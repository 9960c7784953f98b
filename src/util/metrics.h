// Unified metrics layer: one histogram type for every latency/size
// distribution in the codebase plus Prometheus-text exposition.
//
// Before this existed the repo had three disjoint observability
// mechanisms: util::SwCounters (TLS counter struct), StreamMetrics /
// ServiceMetrics (each with its own copy of sorted-sample percentile
// math and a sample cap), and ad-hoc bench timers.  The Histogram below
// replaces both percentile implementations: fixed log2 buckets mean
// recording is O(1), memory is constant (no 64 Ki-sample vectors), and
// merging per-thread or per-stream shards is bucket-wise addition —
// which is what lets the serve layer fold retired sessions into a
// service-wide view cheaply.  Quantiles are bucket-resolution estimates
// (within a factor of 2, clamped to the observed min/max), which is the
// right trade for operational p50/p99 readouts.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace mem2::util {

struct SwCounters;

/// Fixed log2-bucket histogram for non-negative values (seconds, counts).
/// Bucket i covers (upper(i-1), upper(i)] with upper(i) = kMinUpper * 2^i;
/// the last bucket is the +Inf overflow.  With kMinUpper = 1 µs the finite
/// range tops out above 100 hours, so every latency we measure fits.
class Histogram {
 public:
  static constexpr int kBuckets = 40;      // 39 finite buckets + overflow
  static constexpr double kMinUpper = 1e-6;

  void record(double v);
  void reset() { *this = Histogram{}; }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  /// Bucket-resolution quantile estimate, clamped to [min(), max()].
  /// q in [0,1]; returns 0 when empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p99() const { return quantile(0.99); }

  /// Upper bound of bucket i; +Inf for the last bucket.
  static double bucket_upper(int i);

  const std::array<std::uint64_t, kBuckets>& buckets() const { return counts_; }

  Histogram& operator+=(const Histogram& o);

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// --------------------------------------------------------------- exposition

/// Prometheus text-format writer.  Emits `# HELP` / `# TYPE` headers once
/// per family (tracked internally), so labeled families are written by
/// calling the same method repeatedly with different label sets.
class PromWriter {
 public:
  explicit PromWriter(std::ostream& os) : os_(os) {}

  /// `labels` is the rendered label set without braces, e.g.
  /// `stage="smem",stream="3"`; empty for unlabeled samples.
  void counter(std::string_view name, std::string_view help, double value,
               std::string_view labels = {});
  void gauge(std::string_view name, std::string_view help, double value,
             std::string_view labels = {});
  void histogram(std::string_view name, std::string_view help,
                 const Histogram& h, std::string_view labels = {});

 private:
  void header(std::string_view name, std::string_view help, const char* type);
  std::ostream& os_;
  std::vector<std::string> emitted_;
};

/// Render every SwCounters field (util::sw_counter_fields) as
/// `mem2_sw_<field>_total`.
void write_sw_counters(PromWriter& w, const SwCounters& c,
                       std::string_view labels = {});

}  // namespace mem2::util
