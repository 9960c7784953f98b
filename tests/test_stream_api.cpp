// Streaming session API (aligner.h): the streaming path must be
// byte-identical — header and records — to the one-shot align_reads()
// path for every chunking, thread count and queue depth, including the
// degenerate empty stream; construction-time validation must surface as a
// Status, not a throw; and the handle's lifecycle (inert default handle,
// implicit finish on destruction or move-assignment) must join the
// session's private pool.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "align/aligner.h"
#include "seq/genome_sim.h"
#include "seq/read_sim.h"

namespace mem2::align {
namespace {

struct StreamFixture {
  index::Mem2Index index;
  std::vector<seq::Read> reads;

  StreamFixture() {
    seq::GenomeConfig g;
    g.seed = 20260727;
    g.contig_lengths = {80000, 40000};
    g.repeat_fraction = 0.2;
    index = index::Mem2Index::build(seq::simulate_genome(g));

    seq::ReadSimConfig r;
    r.seed = 99;
    r.num_reads = 150;
    r.read_length = 101;
    reads = seq::simulate_reads(index.ref(), r);
  }
};

const StreamFixture& fixture() {
  static StreamFixture fx;
  return fx;
}

/// Reference output: header + one-shot records, as the CLI would print it.
std::string one_shot_sam(const index::Mem2Index& index,
                         const std::vector<seq::Read>& reads,
                         const DriverOptions& opt) {
  std::string out = sam_header_for(index, opt);
  for (const auto& rec : align_reads(index, reads, opt)) {
    out += rec.to_line();
    out += '\n';
  }
  return out;
}

/// Streaming output through an OstreamSamSink, submitting `chunk_size`
/// reads per submit() call.
std::string streamed_sam(const index::Mem2Index& index,
                         const std::vector<seq::Read>& reads,
                         const DriverOptions& opt, std::size_t chunk_size,
                         DriverStats* stats = nullptr) {
  std::ostringstream os;
  OstreamSamSink sink(os);
  const Aligner aligner(index, opt);
  EXPECT_TRUE(aligner.ok()) << aligner.status().message();
  Stream stream = aligner.open(sink);
  for (std::size_t i = 0; i < reads.size(); i += chunk_size) {
    const std::size_t end = std::min(reads.size(), i + chunk_size);
    std::vector<seq::Read> chunk(reads.begin() + static_cast<std::ptrdiff_t>(i),
                                 reads.begin() + static_cast<std::ptrdiff_t>(end));
    EXPECT_TRUE(stream.submit(std::move(chunk)).ok());
  }
  const Status st = stream.finish();
  EXPECT_TRUE(st.ok()) << st.message();
  if (stats) *stats += stream.stats();
  return os.str();
}

TEST(StreamApi, ByteIdenticalAcrossChunkSizesAndThreads) {
  const auto& fx = fixture();
  DriverOptions opt;
  opt.mode = Mode::kBatch;
  opt.batch_size = 64;

  const std::string expected = one_shot_sam(fx.index, fx.reads, opt);
  ASSERT_FALSE(expected.empty());

  const std::size_t bs = static_cast<std::size_t>(opt.batch_size);
  for (int threads : {1, 4}) {
    for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, bs, 3 * bs + 1}) {
      DriverOptions o = opt;
      o.threads = threads;
      ASSERT_EQ(streamed_sam(fx.index, fx.reads, o, chunk), expected)
          << "chunk=" << chunk << " threads=" << threads;
    }
  }
}

TEST(StreamApi, BaselineModeStreamsIdentically) {
  const auto& fx = fixture();
  DriverOptions opt;
  opt.mode = Mode::kBaseline;
  opt.batch_size = 32;
  opt.threads = 2;
  ASSERT_EQ(streamed_sam(fx.index, fx.reads, opt, 7),
            one_shot_sam(fx.index, fx.reads, opt));
}

TEST(StreamApi, EmptyStreamEmitsHeaderOnly) {
  const auto& fx = fixture();
  DriverOptions opt;
  opt.threads = 3;

  std::ostringstream os;
  OstreamSamSink sink(os);
  const Aligner aligner(fx.index, opt);
  ASSERT_TRUE(aligner.ok());
  Stream stream = aligner.open(sink);
  const Status st = stream.finish();
  EXPECT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(os.str(), aligner.sam_header());
  EXPECT_EQ(stream.stats().reads, 0u);
  EXPECT_EQ(sink.records_written(), 0u);
}

TEST(StreamApi, DepthOneQueueCompletesAndPreservesOrder) {
  const auto& fx = fixture();
  DriverOptions opt;
  opt.mode = Mode::kBatch;
  opt.batch_size = 16;  // many small batches through a depth-1 queue
  opt.threads = 4;
  opt.queue_depth = 1;
  ASSERT_EQ(streamed_sam(fx.index, fx.reads, opt, 3),
            one_shot_sam(fx.index, fx.reads, opt));
}

TEST(StreamApi, MixedOwnedAndBorrowedSubmitsPreserveOrder) {
  // Interleave copying submit(vector) with zero-copy submit(span) at
  // ragged sizes so view batches, staged top-ups and the staged tail all
  // occur; output must still be byte-identical.
  const auto& fx = fixture();
  DriverOptions opt;
  opt.mode = Mode::kBatch;
  opt.batch_size = 16;
  opt.threads = 2;

  std::ostringstream os;
  OstreamSamSink sink(os);
  const Aligner aligner(fx.index, opt);
  Stream stream = aligner.open(sink);
  bool owned = true;
  for (std::size_t i = 0; i < fx.reads.size(); owned = !owned) {
    const std::size_t n = std::min(fx.reads.size() - i, owned ? std::size_t{5}
                                                              : std::size_t{37});
    if (owned) {
      std::vector<seq::Read> chunk(
          fx.reads.begin() + static_cast<std::ptrdiff_t>(i),
          fx.reads.begin() + static_cast<std::ptrdiff_t>(i + n));
      ASSERT_TRUE(stream.submit(std::move(chunk)).ok());
    } else {
      // fx.reads outlives finish(), so views are safe.
      ASSERT_TRUE(
          stream.submit(std::span<const seq::Read>(fx.reads.data() + i, n)).ok());
    }
    i += n;
  }
  ASSERT_TRUE(stream.finish().ok());
  EXPECT_EQ(os.str(), one_shot_sam(fx.index, fx.reads, opt));
}

TEST(StreamApi, CollectSinkMatchesOstreamSink) {
  const auto& fx = fixture();
  DriverOptions opt;
  opt.batch_size = 64;
  opt.threads = 2;

  const Aligner aligner(fx.index, opt);
  CollectSamSink sink;
  DriverStats stats;
  const Status st = aligner.align(fx.reads, sink, &stats);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(sink.header(), aligner.sam_header());
  EXPECT_EQ(stats.reads, fx.reads.size());

  std::string collected = sink.header();
  for (const auto& rec : sink.records()) {
    collected += rec.to_line();
    collected += '\n';
  }
  EXPECT_EQ(collected, streamed_sam(fx.index, fx.reads, opt, 25));
}

TEST(StreamApi, StatsAggregateAcrossWorkers) {
  const auto& fx = fixture();
  DriverOptions serial, parallel;
  serial.batch_size = parallel.batch_size = 32;
  serial.threads = 1;
  parallel.threads = 4;

  CollectSamSink s1, s4;
  DriverStats st1, st4;
  ASSERT_TRUE(Aligner(fx.index, serial).align(fx.reads, s1, &st1).ok());
  ASSERT_TRUE(Aligner(fx.index, parallel).align(fx.reads, s4, &st4).ok());
  EXPECT_EQ(st1.reads, st4.reads);
  // The pooled job count is a function of batch contents only, so worker
  // count must not change it.
  EXPECT_EQ(st1.extensions_computed, st4.extensions_computed);
  EXPECT_EQ(st1.extensions_used, st4.extensions_used);
  EXPECT_EQ(st1.counters.bsw_pairs, st4.counters.bsw_pairs);
}

TEST(StreamApi, InvalidOptionsSurfaceAsStatusAtConstruction) {
  const auto& fx = fixture();
  DriverOptions opt;
  opt.mem.w = 0;  // invalid band width
  const Aligner aligner(fx.index, opt);
  EXPECT_FALSE(aligner.ok());
  EXPECT_NE(aligner.status().message().find("band width"), std::string::npos);

  // Streams opened from a failed aligner refuse work with the same status.
  std::ostringstream os;
  OstreamSamSink sink(os);
  Stream stream = aligner.open(sink);
  EXPECT_FALSE(stream.submit(fx.reads).ok());
  EXPECT_FALSE(stream.finish().ok());
  EXPECT_TRUE(os.str().empty());  // not even a header

  // The shim converts the construction-time Status into the legacy throw.
  EXPECT_THROW(align_reads(fx.index, fx.reads, opt), invariant_error);

  DriverOptions bad_queue;
  bad_queue.queue_depth = 0;
  EXPECT_FALSE(Aligner(fx.index, bad_queue).ok());
}

TEST(StreamApi, SubmitAfterFinishIsAnError) {
  const auto& fx = fixture();
  CollectSamSink sink;
  const Aligner aligner(fx.index, DriverOptions{});
  Stream stream = aligner.open(sink);
  ASSERT_TRUE(stream.finish().ok());
  EXPECT_FALSE(stream.submit(fx.reads).ok());
  ASSERT_TRUE(stream.finish().ok());  // idempotent
}

TEST(StreamApi, MetricsTrackBatchesRecordsAndQueueDepth) {
  const auto& fx = fixture();
  DriverOptions opt;
  opt.mode = Mode::kBatch;
  opt.batch_size = 16;
  opt.queue_depth = 2;
  opt.threads = 2;
  CollectSamSink sink;
  const Aligner aligner(fx.index, opt);
  Stream stream = aligner.open(sink);
  ASSERT_TRUE(stream.submit(fx.reads).ok());
  ASSERT_TRUE(stream.finish().ok());

  const StreamMetrics m = stream.metrics();
  const std::size_t n_batches = (fx.reads.size() + 15) / 16;
  EXPECT_EQ(m.batches, n_batches);
  EXPECT_EQ(m.records, sink.records().size());
  EXPECT_EQ(m.batch_latency.count(), n_batches);
  EXPECT_GE(m.queue_hwm, 1u);
  EXPECT_LE(m.queue_hwm, 2u);  // bounded by queue_depth
  EXPECT_GE(m.p99(), m.p50());
  EXPECT_GT(m.p50(), 0.0);
}

TEST(StreamApi, DefaultHandleIsInert) {
  const auto& fx = fixture();
  Stream stream;
  EXPECT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_FALSE(stream.submit(fx.reads).ok());
  EXPECT_FALSE(stream.submit(std::vector<seq::Read>(fx.reads)).ok());
  stream.cancel();  // no session: nothing to cancel
  EXPECT_FALSE(stream.finish().ok());
  EXPECT_FALSE(stream.finish().ok());
  EXPECT_EQ(stream.stats().reads, 0u);
  EXPECT_EQ(stream.metrics().batches, 0u);
  EXPECT_EQ(stream.status().code(), ErrorCode::kInvalidArgument);
}

/// Threads of this process, from /proc/self/status.
int process_threads() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

TEST(StreamApi, DestroyedUnfinishedStreamJoinsItsPool) {
  // A stream dropped mid-session finishes implicitly: the queued batches
  // drain into the sink, and its private pool is joined — no worker thread
  // survives the handle, and (under ASan) nothing leaks.
  const auto& fx = fixture();
  DriverOptions opt;
  opt.batch_size = 16;
  opt.threads = 4;
  const std::string expected = one_shot_sam(fx.index, fx.reads, opt);
  const int before = process_threads();
  ASSERT_GT(before, 0);

  std::ostringstream os;
  {
    OstreamSamSink sink(os);
    const Aligner aligner(fx.index, opt);
    Stream stream = aligner.open(sink);
    EXPECT_EQ(process_threads(), before + opt.effective_workers());
    ASSERT_TRUE(stream.submit(fx.reads).ok());
  }
  EXPECT_EQ(process_threads(), before);
  EXPECT_EQ(os.str(), expected);

  // Move-assigning over a live handle finishes the session it held first.
  std::ostringstream first, second;
  OstreamSamSink sink1(first), sink2(second);
  const Aligner aligner(fx.index, opt);
  Stream stream = aligner.open(sink1);
  ASSERT_TRUE(stream.submit(fx.reads).ok());
  stream = aligner.open(sink2);
  EXPECT_EQ(first.str(), expected);
  ASSERT_TRUE(stream.finish().ok());
  EXPECT_EQ(second.str(), aligner.sam_header());
  EXPECT_EQ(process_threads(), before);
}

}  // namespace
}  // namespace mem2::align
