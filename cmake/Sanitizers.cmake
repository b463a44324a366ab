# Sanitizer configuration for histest.
#
# HISTEST_SANITIZER selects a dynamic-checking build flavour:
#   ""          - no instrumentation (default)
#   "asan+ubsan" - AddressSanitizer + UndefinedBehaviorSanitizer, plus
#                  float-cast-overflow (GCC's -fsanitize=undefined leaves
#                  out the check that a double -> integer cast is in range)
#   "tsan"       - ThreadSanitizer (mutually exclusive with ASan)
#
# The flags are applied globally (compile AND link) so the static histest
# library, tests, benches, and examples all agree on instrumentation — mixing
# instrumented and uninstrumented TUs produces false negatives (ASan) or
# false positives (TSan).

set(HISTEST_SANITIZER "" CACHE STRING
    "Sanitizer flavour: empty, 'asan+ubsan', or 'tsan'")
set_property(CACHE HISTEST_SANITIZER PROPERTY STRINGS "" "asan+ubsan" "tsan")

if(HISTEST_SANITIZER STREQUAL "")
  return()
endif()

if(HISTEST_SANITIZER STREQUAL "asan+ubsan")
  set(_histest_san_flags
      -fsanitize=address,undefined,float-cast-overflow
      -fno-sanitize-recover=all)
elseif(HISTEST_SANITIZER STREQUAL "tsan")
  set(_histest_san_flags -fsanitize=thread)
else()
  message(FATAL_ERROR
      "HISTEST_SANITIZER must be '', 'asan+ubsan', or 'tsan' "
      "(got '${HISTEST_SANITIZER}')")
endif()

# Sanitizers need frame pointers for usable stacks, and interceptors clash
# with _FORTIFY_SOURCE (glibc's fortified wrappers bypass the interposed
# symbols, so overflows are reported at the wrong place or missed).
list(APPEND _histest_san_flags -fno-omit-frame-pointer)
add_compile_definitions(_FORTIFY_SOURCE=0)

# Keep sanitizer builds debuggable but not glacial: if the user did not pick
# a build type the top-level default of RelWithDebInfo (-O2 -g) is fine for
# ASan/UBSan, but TSan at -O2 can inline away synchronization context in
# reports; -O1 is the documented sweet spot.
if(HISTEST_SANITIZER STREQUAL "tsan" AND CMAKE_BUILD_TYPE STREQUAL "RelWithDebInfo")
  add_compile_options(-O1)
endif()

add_compile_options(${_histest_san_flags})
add_link_options(${_histest_san_flags})

# GCC's -Werror interacts badly with sanitizer instrumentation in two known
# ways: UBSan's pointer-overflow instrumentation triggers spurious
# -Wmaybe-uninitialized/-Warray-bounds at -O2, and TSan instrumentation can
# emit -Wtsan for std::atomic/fence combinations inside libstdc++ headers.
# Keep -Werror (the point of this PR is strictness) but exempt exactly those
# diagnostics rather than dropping the error gate wholesale.
if(CMAKE_CXX_COMPILER_ID STREQUAL "GNU")
  add_compile_options(
      -Wno-error=maybe-uninitialized
      -Wno-error=array-bounds)
endif()

message(STATUS "histest: building with HISTEST_SANITIZER=${HISTEST_SANITIZER}")
