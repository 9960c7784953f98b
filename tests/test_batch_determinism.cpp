// Thread-count determinism of the batch driver: the pooled BSW rounds are
// enumerated AND executed in parallel, yet the SAM output and the
// extensions-computed count must be identical for any thread count — the
// scatter-by-original-index design makes the result order-independent, and
// block-ordered splicing makes the job pool itself invariant.
#include <gtest/gtest.h>

#include "align/driver.h"
#include "seq/genome_sim.h"
#include "seq/read_sim.h"

namespace mem2::align {
namespace {

struct Fixture {
  index::Mem2Index index;
  std::vector<seq::Read> reads;

  Fixture() {
    seq::GenomeConfig g;
    g.seed = 31337;
    g.contig_lengths = {90000, 45000};
    g.repeat_fraction = 0.3;  // repeats -> multi-chain reads -> many BSW jobs
    index = index::Mem2Index::build(seq::simulate_genome(g));

    seq::ReadSimConfig r;
    r.seed = 7777;
    r.num_reads = 250;
    r.read_length = 101;
    reads = seq::simulate_reads(index.ref(), r);
  }
};

std::vector<std::string> sam_lines(const std::vector<io::SamRecord>& recs) {
  std::vector<std::string> lines;
  lines.reserve(recs.size());
  for (const auto& r : recs) lines.push_back(r.to_line());
  return lines;
}

TEST(BatchDeterminism, IdenticalSamAndStatsAcrossThreadCounts) {
  Fixture fx;
  std::vector<std::string> ref_sam;
  std::uint64_t ref_computed = 0, ref_used = 0;
  util::SwCounters ref_counters;
  for (int threads : {1, 2, 8}) {
    DriverOptions opt;
    opt.mode = Mode::kBatch;
    opt.threads = threads;
    opt.batch_size = 64;  // several batches, ragged tail
    DriverStats stats;
    const auto sam = sam_lines(align_reads(fx.index, fx.reads, opt, &stats));
    ASSERT_GT(stats.extensions_computed, 0u);
    ASSERT_GE(stats.counters.chains_built, stats.counters.chains_kept);
    ASSERT_GT(stats.counters.chains_kept, fx.reads.size());  // repeats: >1 per read
    if (threads == 1) {
      ref_sam = sam;
      ref_computed = stats.extensions_computed;
      ref_used = stats.extensions_used;
      ref_counters = stats.counters;
      continue;
    }
    ASSERT_EQ(sam, ref_sam) << "threads=" << threads;
    EXPECT_EQ(stats.extensions_computed, ref_computed) << "threads=" << threads;
    EXPECT_EQ(stats.extensions_used, ref_used) << "threads=" << threads;
    EXPECT_EQ(stats.counters.chains_built, ref_counters.chains_built) << "threads=" << threads;
    EXPECT_EQ(stats.counters.chains_kept, ref_counters.chains_kept) << "threads=" << threads;
  }
}

TEST(BatchDeterminism, BswThreadKnobIndependentOfPipelineThreads) {
  Fixture fx;
  DriverOptions base;
  base.mode = Mode::kBatch;
  base.threads = 1;
  const auto expect = sam_lines(align_reads(fx.index, fx.reads, base));

  for (int bsw_threads : {2, 5}) {
    DriverOptions opt = base;
    opt.bsw_threads = bsw_threads;  // BSW rounds parallel, rest serial
    EXPECT_EQ(opt.effective_bsw_threads(), bsw_threads);
    ASSERT_EQ(sam_lines(align_reads(fx.index, fx.reads, opt)), expect)
        << "bsw_threads=" << bsw_threads;
  }

  DriverOptions follow = base;
  follow.threads = 4;  // bsw_threads=0 follows `threads`
  EXPECT_EQ(follow.effective_bsw_threads(), 4);
  ASSERT_EQ(sam_lines(align_reads(fx.index, fx.reads, follow)), expect);
}

TEST(BatchDeterminism, CountersInvariantAcrossBswThreadCounts) {
  // The executor reduces worker-thread software counters onto the calling
  // thread, so BSW cell/pair totals match the serial path exactly.
  Fixture fx;
  std::uint64_t ref_pairs = 0, ref_cells = 0;
  for (int bsw_threads : {1, 4}) {
    DriverOptions opt;
    opt.mode = Mode::kBatch;
    opt.threads = 1;
    opt.bsw_threads = bsw_threads;
    DriverStats stats;
    align_reads(fx.index, fx.reads, opt, &stats);
    if (bsw_threads == 1) {
      ref_pairs = stats.counters.bsw_pairs;
      ref_cells = stats.counters.bsw_cells_total;
      ASSERT_GT(ref_pairs, 0u);
      continue;
    }
    EXPECT_EQ(stats.counters.bsw_pairs, ref_pairs);
    EXPECT_EQ(stats.counters.bsw_cells_total, ref_cells);
  }
}

}  // namespace
}  // namespace mem2::align
