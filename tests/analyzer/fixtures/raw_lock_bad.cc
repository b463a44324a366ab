// Fixture: raw std locks outside the wrapper header — findings as marked.
#include <condition_variable>
#include <mutex>

namespace histest {

class BadCache {
 public:
  void Put(int v) {
    std::lock_guard<std::mutex> lock(mu_);  // raw guard + raw mutex type
    value_ = v;
    cv_.notify_one();
  }

  int WaitTake() {
    std::unique_lock<std::mutex> lock(mu_);  // raw unique_lock + raw mutex
    cv_.wait(lock);
    return value_;
  }

 private:
  std::mutex mu_;               // raw capability: invisible to the analysis
  std::condition_variable cv_;  // raw condition variable
  int value_ = 0;
};

}  // namespace histest
