// Self-tests of the benchmark's own measuring code: percentiles, open-loop
// due-time/lag accounting (virtual time, no real sleeps), and the hashing
// SAM stream / chunk-completion sink.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "open_loop.h"
#include "sam_digest.h"
#include "stats.h"
#include "util/checksum.h"

using namespace perfbench;
using namespace std::chrono_literals;
using mem2::io::SamRecord;

namespace {

/// Nearest-rank definition read straight off a sorted copy: the first
/// sorted value whose rank covers q% of the sample.
double oracle_percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  for (std::size_t i = 0; i < v.size(); ++i)
    if (static_cast<double>(i + 1) >= q / 100.0 * static_cast<double>(v.size())) return v[i];
  return v.back();
}

}  // namespace

TEST(Percentile, MatchesSortedSampleOracle) {
  std::mt19937_64 rng(12345);
  for (const std::size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u, 1234u}) {
    std::vector<double> v(n);
    for (auto& x : v) x = std::floor(std::lognormal_distribution<double>(0, 2)(rng) * 10);
    for (const double q : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0})
      EXPECT_EQ(percentile(v, q), oracle_percentile(v, q)) << "n=" << n << " q=" << q;
  }
  EXPECT_EQ(percentile({}, 50), 0.0);
}

TEST(Percentile, P99LeavesTenSamplesBeyondAtOneThousand) {
  std::vector<double> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>((i * 7919) % 1000);
  const double p99 = percentile(v, 99);
  EXPECT_EQ(std::count_if(v.begin(), v.end(), [&](double x) { return x > p99; }), 10);
}

TEST(Percentile, BlocksAreConsecutiveAndTheLastTakesTheRemainder) {
  std::vector<double> v(10);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  EXPECT_EQ(block_percentiles(v, 100, 3), (std::vector<double>{2, 5, 9}));
  EXPECT_EQ(block_percentiles(v, 0, 3), (std::vector<double>{0, 3, 6}));
  EXPECT_EQ(block_percentiles(v, 50, 1), (std::vector<double>{percentile(v, 50)}));
  EXPECT_EQ(block_percentiles({4, 7}, 99, 5), (std::vector<double>{4, 7}));
  EXPECT_TRUE(block_percentiles({}, 99, 4).empty());
}

TEST(Percentile, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(median({5, 1, 3}), 3.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

namespace {

/// A sleeper that moves a FakeClock instead of blocking.
class AdvancingSleeper final : public mem2::util::Sleeper {
 public:
  explicit AdvancingSleeper(mem2::util::FakeClock& clock) : clock_(clock) {}
  void sleep_for(std::chrono::nanoseconds d) override {
    slept.push_back(d);
    clock_.advance(d);
  }
  std::vector<std::chrono::nanoseconds> slept;

 private:
  mem2::util::FakeClock& clock_;
};

}  // namespace

TEST(OpenLoop, DueTimesLagAndLatencyUnderAStall) {
  mem2::util::FakeClock clock;
  AdvancingSleeper sleeper(clock);
  OpenLoopSchedule sched(clock, sleeper, 10ms);
  sched.start();
  const auto t0 = sched.start_time();

  sched.offer(0);  // due now: no sleep
  clock.advance(3ms);
  sched.offer(1);  // sleeps the remaining 7 ms
  clock.advance(35ms);  // a submit blocks for 35 ms
  sched.offer(2);  // due at 20, offered at 45
  sched.offer(3);  // due at 30
  sched.offer(4);  // due at 40
  sched.offer(5);  // due at 50: sleeps 5 ms

  ASSERT_EQ(sleeper.slept.size(), 2u);
  EXPECT_EQ(sleeper.slept[0], 7ms);
  EXPECT_EQ(sleeper.slept[1], 5ms);
  const double want_lag[] = {0, 0, 25, 15, 5, 0};
  for (std::uint64_t j = 0; j < 6; ++j) {
    EXPECT_EQ(sched.due(j), t0 + 10ms * static_cast<int>(j));
    EXPECT_DOUBLE_EQ(sched.lag_ms(j), want_lag[j]) << "chunk " << j;
  }
  // Latency runs from the due time, so the stall counts against chunk 2.
  EXPECT_DOUBLE_EQ(sched.latency_ms(2, t0 + 60ms), 40.0);
  EXPECT_DOUBLE_EQ(to_ms(sched.offered_at(2) - t0), 45.0);
}

namespace {

SamRecord record(const std::string& name, int flag, std::int64_t pos) {
  SamRecord r;
  r.qname = name;
  r.flag = flag;
  if (!(flag & mem2::io::kFlagUnmapped)) {
    r.rname = "chr1";
    r.pos = pos;
    r.mapq = 60;
    r.cigar = "8M";
    r.seq = "ACGTACGT";
    r.qual = "IIIIIIII";
    r.tags = {"NM:i:0", "AS:i:8"};
  }
  return r;
}

}  // namespace

TEST(HashingSamStream, EqualsHashOfConcatenatedLines) {
  const std::string header = "@HD\tVN:1.6\n@SQ\tSN:chr1\tLN:1000\n";
  std::vector<SamRecord> recs = {
      record("r0", 0, 11), record("r0", mem2::io::kFlagSupplementary, 500),
      record("r1", mem2::io::kFlagUnmapped, 0), record("r2", mem2::io::kFlagReverse, 77)};
  std::string text = header;
  for (const auto& r : recs) text += r.to_line() + "\n";

  std::string captured;
  HashingStream out(&captured);
  mem2::align::OstreamSamSink sink(out);
  sink.write_header(header);
  sink.write_records(std::vector<SamRecord>(recs.begin(), recs.begin() + 2));
  sink.write_record(recs[2]);
  sink.write_records(std::vector<SamRecord>(recs.begin() + 3, recs.end()));
  sink.flush();

  EXPECT_EQ(out.digest(), mem2::util::xxhash64(text.data(), text.size()));
  EXPECT_EQ(out.bytes(), text.size());
  EXPECT_EQ(captured, text);
}

TEST(ChunkClockSink, StampsChunksWhenTheirPrimariesArrive) {
  mem2::util::FakeClock clock;
  HashingStream out;
  ChunkClockSink sink(out, /*chunk_reads=*/2, clock);
  sink.write_header("@HD\tVN:1.6\n");
  EXPECT_EQ(sink.header_bytes(), out.bytes());
  const auto t0 = clock.now();

  // Read 0 (primary + supplementary) and read 1: chunk 0 completes.
  sink.write_records({record("r0", 0, 1), record("r0", mem2::io::kFlagSupplementary, 9),
                      record("r1", 0, 20)});
  ASSERT_EQ(sink.done().size(), 1u);
  EXPECT_EQ(sink.done()[0], t0);

  clock.advance(5ms);
  sink.write_records({record("r2", mem2::io::kFlagUnmapped, 0)});
  EXPECT_EQ(sink.done().size(), 1u);  // half a chunk
  clock.advance(5ms);
  sink.write_records({record("r3", 0, 40), record("r3", mem2::io::kFlagSecondary, 3)});
  ASSERT_EQ(sink.done().size(), 2u);
  EXPECT_EQ(sink.done()[1], t0 + 10ms);
  EXPECT_EQ(sink.reads_done(), 4u);
}

TEST(CycledDigest, PredictsASessionFedTheSamePoolRepeatedly) {
  const std::string header = "@HD\tVN:1.6\n";
  std::vector<SamRecord> pool = {
      record("r0", 0, 1), record("r0", mem2::io::kFlagSupplementary, 9),
      record("r1", mem2::io::kFlagUnmapped, 0), record("r2", 0, 30),
      record("r3", 0, 40), record("r3", mem2::io::kFlagSecondary, 3)};
  std::string body;
  for (const auto& r : pool) body += r.to_line() + "\n";
  const auto ends = chunk_ends(body, 2);
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends[0], pool[0].to_line().size() + pool[1].to_line().size() +
                         pool[2].to_line().size() + 3);
  EXPECT_EQ(ends[1], body.size());

  // Five chunks = two whole pool cycles and the first chunk of a third.
  std::string text = header + body + body + body.substr(0, ends[0]);
  EXPECT_EQ(cycled_digest(header, body, ends, 5),
            mem2::util::xxhash64(text.data(), text.size()));
}
