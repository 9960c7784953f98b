// Order statistics for benchmark samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample v such that at least q% of
/// the samples are <= v (q in [0, 100]).  With n samples, p99 leaves
/// n - ceil(0.99 n) samples above it, so n >= 1000 puts >= 10 beyond it.
/// Returns 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  q = std::clamp(q, 0.0, 100.0);
  const auto n = v.size();
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(n)));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank, n) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

/// Percentile q of each of `blocks` consecutive blocks of v, in order.  The
/// blocks are equal; the last one also takes the remainder.  Fewer samples
/// than blocks give one block per sample; an empty v gives none.
inline std::vector<double> block_percentiles(const std::vector<double>& v, double q,
                                             std::size_t blocks) {
  std::vector<double> out;
  blocks = std::min(blocks, v.size());
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto begin = v.begin() + static_cast<std::ptrdiff_t>(b * (v.size() / blocks));
    const auto end =
        b + 1 == blocks ? v.end() : begin + static_cast<std::ptrdiff_t>(v.size() / blocks);
    out.push_back(percentile(std::vector<double>(begin, end), q));
  }
  return out;
}

/// Median (mean of the two middle samples for an even count); 0 if empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2) return hi;
  return 0.5 * (hi + *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid)));
}

}  // namespace perfbench
