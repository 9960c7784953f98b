// Unified metrics layer (util/metrics.h): the log2-bucket Histogram must
// track the old sorted-sample percentile estimators within bucket
// resolution (it replaced both copies of that code), merging must equal
// recording the concatenated samples, and the Prometheus exposition must
// be well-formed text format.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <set>
#include <sstream>
#include <vector>

#include "util/metrics.h"
#include "util/sw_counters.h"

namespace mem2::util {
namespace {

/// The estimator both StreamMetrics and ServiceMetrics used before the
/// shared histogram: sorted samples, rank = q*(n-1)+0.5.
double oracle_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

TEST(Histogram, EmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
}

TEST(Histogram, ExactMoments) {
  Histogram h;
  for (double v : {0.004, 0.001, 0.032, 0.002}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_NEAR(h.sum(), 0.039, 1e-12);
  EXPECT_NEAR(h.mean(), 0.039 / 4, 1e-12);
  EXPECT_EQ(h.min(), 0.001);
  EXPECT_EQ(h.max(), 0.032);
}

TEST(Histogram, BucketBoundsAreLog2AndEndInInf) {
  EXPECT_EQ(Histogram::bucket_upper(0), Histogram::kMinUpper);
  for (int i = 1; i < Histogram::kBuckets - 1; ++i)
    EXPECT_DOUBLE_EQ(Histogram::bucket_upper(i),
                     2.0 * Histogram::bucket_upper(i - 1));
  EXPECT_TRUE(std::isinf(Histogram::bucket_upper(Histogram::kBuckets - 1)));
}

TEST(Histogram, ExtremesLandInEdgeBuckets) {
  Histogram h;
  h.record(0.0);                       // below the first bound
  h.record(1e-9);                      // below the first bound
  h.record(1e30);                      // beyond the finite range
  EXPECT_EQ(h.buckets().front(), 2u);
  EXPECT_EQ(h.buckets().back(), 1u);
  EXPECT_EQ(h.count(), 3u);
  // Quantiles stay within the observed data range even in edge buckets.
  EXPECT_GE(h.p50(), h.min());
  EXPECT_LE(h.p99(), h.max());
}

TEST(Histogram, NegativeClampsAndNanIgnored) {
  Histogram h;
  h.record(-1.0);
  h.record(std::nan(""));
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0.0);
}

TEST(Histogram, QuantilesTrackSortedSampleOracle) {
  // Log-uniform latencies over 10us..1s — the operational regime the
  // histogram replaced the sample vectors for.  A log2-bucket estimate is
  // within a factor of 2 of the true value by construction; clamping to
  // min/max tightens the tails.
  std::mt19937_64 rng(20260807);
  std::uniform_real_distribution<double> log_u(std::log(1e-5), std::log(1.0));
  std::vector<double> samples;
  Histogram h;
  for (int i = 0; i < 5000; ++i) {
    const double v = std::exp(log_u(rng));
    samples.push_back(v);
    h.record(v);
  }
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const double truth = oracle_quantile(samples, q);
    const double est = h.quantile(q);
    EXPECT_LE(est, truth * 2.0) << "q=" << q;
    EXPECT_GE(est, truth * 0.5) << "q=" << q;
    EXPECT_GE(est, h.min());
    EXPECT_LE(est, h.max());
  }
  EXPECT_GE(h.p99(), h.p50());
}

TEST(Histogram, SingleValueQuantileIsThatValue) {
  Histogram h;
  h.record(0.125);
  EXPECT_DOUBLE_EQ(h.p50(), 0.125);  // clamped to min == max
  EXPECT_DOUBLE_EQ(h.p99(), 0.125);
}

TEST(Histogram, MergeEqualsConcatenatedRecording) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(1e-6, 2.0);
  Histogram a, b, both;
  for (int i = 0; i < 300; ++i) {
    const double v = u(rng);
    (i % 2 ? a : b).record(v);
    both.record(v);
  }
  a += b;
  EXPECT_EQ(a.count(), both.count());
  EXPECT_DOUBLE_EQ(a.sum(), both.sum());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_EQ(a.buckets(), both.buckets());
  // Merging an empty histogram is a no-op in both directions.
  Histogram empty;
  const auto before = a.buckets();
  a += empty;
  EXPECT_EQ(a.buckets(), before);
  empty += a;
  EXPECT_EQ(empty.count(), a.count());
  EXPECT_EQ(empty.min(), a.min());
}

// --------------------------------------------------------------- exposition

TEST(PromWriter, CounterAndGaugeFormat) {
  std::ostringstream os;
  PromWriter w(os);
  w.counter("mem2_things_total", "Things seen", 42);
  w.gauge("mem2_level", "Current level", 1.5);
  const std::string out = os.str();
  EXPECT_NE(out.find("# HELP mem2_things_total Things seen\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE mem2_things_total counter\n"), std::string::npos);
  EXPECT_NE(out.find("\nmem2_things_total 42\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE mem2_level gauge\n"), std::string::npos);
  EXPECT_NE(out.find("\nmem2_level 1.5\n"), std::string::npos);
}

TEST(PromWriter, LabeledFamilyEmitsHeaderOnce) {
  std::ostringstream os;
  PromWriter w(os);
  w.counter("mem2_stage_total", "", 1, "stage=\"smem\"");
  w.counter("mem2_stage_total", "", 2, "stage=\"sal\"");
  const std::string out = os.str();
  EXPECT_EQ(out.find("# TYPE mem2_stage_total counter"),
            out.rfind("# TYPE mem2_stage_total counter"));
  EXPECT_NE(out.find("mem2_stage_total{stage=\"smem\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("mem2_stage_total{stage=\"sal\"} 2\n"),
            std::string::npos);
}

TEST(PromWriter, HistogramIsCumulativeSparseAndCapped) {
  Histogram h;
  h.record(2e-6);  // bucket 1
  h.record(3e-6);  // bucket 2
  h.record(1e30);  // overflow
  std::ostringstream os;
  PromWriter w(os);
  w.histogram("mem2_lat_seconds", "Latency", h);
  const std::string out = os.str();
  EXPECT_NE(out.find("# TYPE mem2_lat_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(out.find("mem2_lat_seconds_bucket{le=\"2e-06\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("mem2_lat_seconds_bucket{le=\"4e-06\"} 2\n"),
            std::string::npos);
  EXPECT_NE(out.find("mem2_lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("mem2_lat_seconds_count 3\n"), std::string::npos);
  // Sparse: empty finite buckets must not be rendered.
  EXPECT_EQ(out.find("le=\"1e-06\""), std::string::npos);
}

TEST(SwCounterMapping, IsTotalAndDistinct) {
  const auto& fields = sw_counter_fields();
  // Every field of SwCounters is a uint64; the table must cover the whole
  // struct, each member exactly once (24 counters, chains_built/kept and
  // cigar_gapless/cigar_dp_cells included).
  EXPECT_EQ(fields.size() * sizeof(std::uint64_t), sizeof(SwCounters));
  EXPECT_EQ(sizeof(SwCounters), 24 * sizeof(std::uint64_t));
  std::set<std::string> names;
  SwCounters probe{};
  std::uint64_t stamp = 1;
  for (const auto& f : fields) {
    EXPECT_TRUE(names.insert(f.name).second) << "duplicate name " << f.name;
    probe.*(f.member) = stamp++;  // distinct member check: no overwrite
  }
  std::set<std::uint64_t> values;
  for (const auto& f : fields) values.insert(probe.*(f.member));
  EXPECT_EQ(values.size(), fields.size());
}

TEST(SwCounterMapping, WritesEveryFieldAsPrometheusCounter) {
  SwCounters c{};
  c.smems_found = 7;
  c.pe_proper_pairs = 9;
  c.chains_built = 11;
  c.chains_kept = 5;
  std::ostringstream os;
  PromWriter w(os);
  write_sw_counters(w, c);
  const std::string out = os.str();
  EXPECT_NE(out.find("mem2_sw_smems_found_total 7\n"), std::string::npos);
  EXPECT_NE(out.find("mem2_sw_pe_proper_pairs_total 9\n"), std::string::npos);
  EXPECT_NE(out.find("mem2_sw_chains_built_total 11\n"), std::string::npos);
  EXPECT_NE(out.find("mem2_sw_chains_kept_total 5\n"), std::string::npos);
  for (const auto& f : sw_counter_fields())
    EXPECT_NE(out.find("mem2_sw_" + std::string(f.name) + "_total"),
              std::string::npos);
}

}  // namespace
}  // namespace mem2::util
