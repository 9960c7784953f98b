// Paired-end determinism: the SAM byte stream — and every software
// counter — must be identical across session worker counts, submit
// chunkings and batch sizes.  The insert-size prior is estimated once from
// a fixed submission-order prefix, rescue job pools are enumerated in pair
// order, and every batch is pair-independent given the prior, so nothing
// in the paired path may depend on scheduling.
#include <gtest/gtest.h>

#include "align/aligner.h"
#include "seq/genome_sim.h"
#include "seq/read_sim.h"

namespace mem2::align {
namespace {

struct Fixture {
  index::Mem2Index index;
  std::vector<seq::Read> reads;

  Fixture() {
    seq::GenomeConfig g;
    g.seed = 98765;
    g.contig_lengths = {100000, 50000};
    g.repeat_fraction = 0.3;  // repeats -> multi-chain reads -> rescue churn
    index = index::Mem2Index::build(seq::simulate_genome(g));

    seq::PairSimConfig p;
    p.seed = 1234;
    p.num_pairs = 300;
    p.read_length = 101;
    p.insert_mean = 320;
    p.insert_std = 35;
    p.damage_fraction = 0.3;  // exercise the rescue rounds
    reads = seq::simulate_pairs(index.ref(), p);
  }

  DriverOptions base_options() const {
    DriverOptions opt;
    opt.mode = Mode::kBatch;
    opt.paired = true;
    opt.batch_size = 64;
    opt.pe.stat_pairs = 128;  // well inside the dataset
    return opt;
  }
};

struct RunOut {
  std::vector<std::string> sam;
  util::SwCounters counters;
  std::uint64_t extensions_computed = 0, extensions_used = 0;
};

/// Align through the streaming session, submitting in `chunk` read chunks.
RunOut run_paired(const Fixture& fx, DriverOptions opt, std::size_t chunk_reads) {
  Aligner aligner(fx.index, opt);
  EXPECT_TRUE(aligner.ok()) << aligner.status().message();
  CollectSamSink sink;
  Stream stream = aligner.open(sink);
  std::span<const seq::Read> rest(fx.reads);
  while (!rest.empty()) {
    const std::size_t n = std::min(chunk_reads, rest.size());
    EXPECT_TRUE(stream.submit(rest.first(n)).ok());
    rest = rest.subspan(n);
  }
  EXPECT_TRUE(stream.finish().ok());
  RunOut run;
  run.counters = stream.stats().counters;
  run.extensions_computed = stream.stats().extensions_computed;
  run.extensions_used = stream.stats().extensions_used;
  for (const auto& rec : sink.records()) run.sam.push_back(rec.to_line());
  return run;
}

TEST(PairDeterminism, IdenticalAcrossWorkerCounts) {
  Fixture fx;
  RunOut ref;
  for (int workers : {1, 2, 5, 8}) {
    DriverOptions opt = fx.base_options();
    opt.threads = workers;
    RunOut run = run_paired(fx, opt, 64);
    ASSERT_GT(run.counters.pe_proper_pairs, 0u);
    ASSERT_GT(run.counters.pe_rescue_jobs, 0u);  // rescue actually exercised
    if (workers == 1) {
      ref = std::move(run);
      continue;
    }
    ASSERT_EQ(run.sam, ref.sam) << "workers=" << workers;
    EXPECT_TRUE(run.counters == ref.counters)
        << "workers=" << workers << "\n  got " << run.counters.summary()
        << "\n  ref " << ref.counters.summary();
    EXPECT_EQ(run.extensions_computed, ref.extensions_computed) << "workers=" << workers;
    EXPECT_EQ(run.extensions_used, ref.extensions_used) << "workers=" << workers;
  }
}

TEST(PairDeterminism, IdenticalAcrossChunksAndBatches) {
  Fixture fx;
  const RunOut ref = run_paired(fx, fx.base_options(), fx.reads.size());
  ASSERT_GT(ref.counters.pe_proper_pairs, 0u);

  // Submit chunk sizes, including odd ones that split pairs across calls.
  for (std::size_t chunk : {2ul, 7ul, 100ul}) {
    const RunOut run = run_paired(fx, fx.base_options(), chunk);
    ASSERT_EQ(run.sam, ref.sam) << "chunk=" << chunk;
  }
  // Batch sizes (even, as paired mode requires).
  for (int batch : {32, 150, 1024}) {
    DriverOptions opt = fx.base_options();
    opt.batch_size = batch;
    const RunOut run = run_paired(fx, opt, fx.reads.size());
    ASSERT_EQ(run.sam, ref.sam) << "batch=" << batch;
  }
}

TEST(PairDeterminism, RescueSkipOffIsInvariantAndCountPreserving) {
  // With skipping disabled every window is scanned (the pre-skip
  // behavior): output must still be invariant across workers, chunkings
  // and batch sizes, and enabling skipping may drop windows but must not
  // change proper-pair or rescued-pair counts.
  Fixture fx;
  DriverOptions off = fx.base_options();
  off.pe.rescue_skip = false;
  const RunOut ref = run_paired(fx, off, fx.reads.size());
  ASSERT_GT(ref.counters.pe_rescue_jobs, 0u);
  EXPECT_EQ(ref.counters.pe_rescue_win_skipped, 0u);

  for (int workers : {2, 8}) {
    DriverOptions opt = off;
    opt.threads = workers;
    const RunOut run = run_paired(fx, opt, fx.reads.size());
    ASSERT_EQ(run.sam, ref.sam) << "skip off, workers=" << workers;
  }
  for (std::size_t chunk : {7ul, 64ul}) {
    const RunOut run = run_paired(fx, off, chunk);
    ASSERT_EQ(run.sam, ref.sam) << "skip off, chunk=" << chunk;
  }
  {
    DriverOptions opt = off;
    opt.batch_size = 150;
    const RunOut run = run_paired(fx, opt, fx.reads.size());
    ASSERT_EQ(run.sam, ref.sam) << "skip off, batch=150";
  }

  const RunOut on = run_paired(fx, fx.base_options(), fx.reads.size());
  EXPECT_EQ(on.counters.pe_proper_pairs, ref.counters.pe_proper_pairs);
  EXPECT_EQ(on.counters.pe_rescued_pairs, ref.counters.pe_rescued_pairs);
  EXPECT_LE(on.counters.pe_rescue_windows, ref.counters.pe_rescue_windows);
  EXPECT_LE(on.counters.pe_rescue_jobs, ref.counters.pe_rescue_jobs);
}

}  // namespace
}  // namespace mem2::align
