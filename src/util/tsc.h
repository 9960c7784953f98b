// Cheap cycle-counter timing for per-row instrumentation inside hot
// kernels.  steady_clock costs ~25 ns per read — too heavy to call several
// times per DP row; rdtsc is ~10 cycles.  Ticks are converted to seconds
// with a once-calibrated frequency.
#pragma once

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace mem2::util {

inline std::uint64_t tsc_now() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Ticks per second, calibrated on first use: the TSC ticks between two
/// steady_clock reads ~2 ms apart.  Each steady_clock read is bracketed by
/// two TSC reads and dated at the bracket's midpoint; of several brackets
/// the narrowest is kept, so a stall inside a bracket (preemption, an
/// interrupt) is discarded instead of inflating the tick count — which
/// would make every converted duration read short.
inline double tsc_ticks_per_second() {
  static const double tps = [] {
#if defined(__x86_64__) || defined(_M_X64)
    struct Stamp {
      std::chrono::steady_clock::time_point wall;
      std::uint64_t tsc = 0;  // bracket midpoint
      std::uint64_t width = ~std::uint64_t{0};
    };
    const auto stamp = [] {
      Stamp best;
      for (int i = 0; i < 8; ++i) {
        const std::uint64_t t0 = tsc_now();
        const auto wall = std::chrono::steady_clock::now();
        const std::uint64_t t1 = tsc_now();
        if (t1 - t0 < best.width) best = {wall, t0 + (t1 - t0) / 2, t1 - t0};
      }
      return best;
    };
    const Stamp a = stamp();
    while (std::chrono::steady_clock::now() - a.wall < std::chrono::milliseconds(2)) {
    }
    const Stamp b = stamp();
    const std::chrono::duration<double> dt = b.wall - a.wall;
    return static_cast<double>(b.tsc - a.tsc) / dt.count();
#else
    return 1e9;  // steady_clock fallback counts nanoseconds
#endif
  }();
  return tps;
}

inline double tsc_to_seconds(std::uint64_t ticks) {
  return static_cast<double>(ticks) / tsc_ticks_per_second();
}

}  // namespace mem2::util
