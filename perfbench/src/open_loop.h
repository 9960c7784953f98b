// Open-loop offer schedule.
//
// Chunk j is due at start + j * period, whatever happened to earlier
// chunks: the generator waits for due times, never for completions.  It
// stamps when it actually offered each chunk, so generator lag
// (offered - due) is visible, and latency is measured from the due time —
// a stall that delays offering later chunks counts against those chunks.
// Time and sleep are injected (util::Clock / util::Sleeper) so the
// accounting is testable with a FakeClock and no real sleeps.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "util/clock.h"

namespace perfbench {

inline double to_ms(std::chrono::nanoseconds d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

class OpenLoopSchedule {
 public:
  using time_point = mem2::util::Clock::time_point;

  OpenLoopSchedule(mem2::util::Clock& clock, mem2::util::Sleeper& sleeper,
                   std::chrono::nanoseconds period)
      : clock_(clock), sleeper_(sleeper), period_(period) {}

  /// Fix chunk 0's due time to now.
  void start() { t0_ = clock_.now(); }
  time_point start_time() const { return t0_; }

  time_point due(std::uint64_t j) const {
    return t0_ + period_ * static_cast<std::int64_t>(j);
  }

  /// Sleep until chunk j is due (no sleep when already late), then return
  /// the moment it is offered.  Chunks must be offered in order.
  time_point offer(std::uint64_t j) {
    const auto wait = due(j) - clock_.now();
    if (wait.count() > 0)
      sleeper_.sleep_for(std::chrono::duration_cast<std::chrono::nanoseconds>(wait));
    const time_point offered = clock_.now();
    offered_.push_back(offered);
    return offered;
  }

  std::uint64_t offered_count() const { return offered_.size(); }
  time_point offered_at(std::uint64_t j) const { return offered_[j]; }
  /// offered - due, in ms (>= 0).
  double lag_ms(std::uint64_t j) const { return to_ms(offered_[j] - due(j)); }
  /// Chunk latency from its due time to `done`, in ms.
  double latency_ms(std::uint64_t j, time_point done) const {
    return to_ms(done - due(j));
  }

 private:
  mem2::util::Clock& clock_;
  mem2::util::Sleeper& sleeper_;
  std::chrono::nanoseconds period_;
  time_point t0_{};
  std::vector<time_point> offered_;
};

}  // namespace perfbench
