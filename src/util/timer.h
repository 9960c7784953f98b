// Wall-clock timing for benches and tools.  Pipeline stage time is not
// measured here: see StageSpan in util/trace.h.
#pragma once

#include <chrono>

namespace mem2::util {

class Timer {
 public:
  Timer() : start_(clock::now()) {}
  void restart() { start_ = clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace mem2::util
