// Worker-count determinism of both drivers: a session's batches run whole,
// concurrently, on its pool's workers, yet the SAM output, every software
// counter and the extension counts must be identical for any worker count.
// Each batch is independent of the others and of the thread it runs on,
// and the session sums per-batch counter captures, so nothing may depend
// on scheduling.
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

TEST(BatchDeterminism, IdenticalSamAndStatsAcrossWorkerCounts) {
  Fixture fx;
  for (const Mode mode : {Mode::kBatch, Mode::kBaseline}) {
    SCOPED_TRACE(mode == Mode::kBatch ? "batch" : "baseline");
    std::vector<std::string> ref_sam;
    DriverStats ref;
    for (int workers : {1, 2, 5, 8}) {
      DriverOptions opt;
      opt.mode = mode;
      opt.threads = workers;
      opt.batch_size = 64;  // several batches, ragged tail
      DriverStats stats;
      const auto sam = sam_lines(align_reads(fx.index, fx.reads, opt, &stats));
      ASSERT_GT(stats.extensions_computed, 0u);
      ASSERT_GE(stats.counters.chains_built, stats.counters.chains_kept);
      ASSERT_GT(stats.counters.chains_kept, fx.reads.size());  // repeats: >1 per read
      if (workers == 1) {
        ref_sam = sam;
        ref = stats;
        continue;
      }
      ASSERT_EQ(sam, ref_sam) << "workers=" << workers;
      EXPECT_TRUE(stats.counters == ref.counters)
          << "workers=" << workers << "\n  got " << stats.counters.summary()
          << "\n  ref " << ref.counters.summary();
      EXPECT_EQ(stats.extensions_computed, ref.extensions_computed) << "workers=" << workers;
      EXPECT_EQ(stats.extensions_used, ref.extensions_used) << "workers=" << workers;
    }
    if (mode == Mode::kBatch) {
      EXPECT_GT(ref.counters.bsw_pairs, 0u);  // the SIMD executor ran
    }
  }
}

}  // namespace
}  // namespace mem2::align
