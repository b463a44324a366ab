// Seeded violation for the status_nodiscard_build ctest: drops a Status
// and a Result<T>. Every target builds with -Werror=unused-result (src/
// with -Werror), so the seeded form must not compile. With
// -DHISTEST_CONSUME_RESULTS the drops become (void) casts and the file must
// compile, which proves the failure comes from the drops alone.
#include "common/status.h"

namespace histest {

Status MakeStatus();
Result<int> MakeResult();

void DropBoth() {
#ifdef HISTEST_CONSUME_RESULTS
  (void)MakeStatus();
  (void)MakeResult();
#else
  MakeStatus();
  MakeResult();
#endif
}

}  // namespace histest
