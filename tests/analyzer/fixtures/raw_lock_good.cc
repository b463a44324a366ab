// Fixture: concurrency code on the annotated wrappers, plus an allowed
// std::once_flag (not a capability) — zero findings.
#include <mutex>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace histest {

class GoodCache {
 public:
  void Put(int v) {
    MutexLock lock(mu_);
    value_ = v;
    cv_.NotifyOne();
  }

  int WaitTake() {
    MutexLock lock(mu_);
    cv_.Wait(mu_);
    return value_;
  }

 private:
  mutable Mutex mu_;
  CondVar cv_;
  int value_ HISTEST_GUARDED_BY(mu_) = 0;
};

// once_flag/call_once are not lockable capabilities and stay allowed.
std::once_flag g_init_once;

}  // namespace histest
