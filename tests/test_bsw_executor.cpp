// BswExecutor contract: bit-identical to scalar ksw on jobs harvested from a
// real pipeline run, the ISA cap reaches engine dispatch, and the persistent
// workspace stops growing after the first batch.
#include <gtest/gtest.h>

#include "bsw/bsw_executor.h"
#include "job_harvest.h"
#include "seq/dna.h"
#include "seq/genome_sim.h"
#include "seq/read_sim.h"
#include "util/rng.h"

namespace mem2::bsw {
namespace {

// Random extension jobs shaped like chain2aln inputs (see test_bsw_simd).
struct JobPool {
  std::vector<std::vector<seq::Code>> queries, targets;
  std::vector<ExtendJob> jobs;

  JobPool(int n, std::uint64_t seed, int min_len = 5, int max_len = 150,
          double mutate = 0.08) {
    util::Xoshiro256ss rng(seed);
    for (int i = 0; i < n; ++i) {
      const int qlen = min_len + static_cast<int>(rng.below(
                                     static_cast<std::uint64_t>(max_len - min_len + 1)));
      std::vector<seq::Code> q(static_cast<std::size_t>(qlen));
      for (auto& c : q) c = static_cast<seq::Code>(rng.below(4));
      std::vector<seq::Code> t;
      for (const auto c : q) {
        if (rng.chance(mutate / 4)) continue;
        t.push_back(rng.chance(mutate) ? static_cast<seq::Code>(rng.below(4)) : c);
      }
      if (t.empty()) t.push_back(0);
      queries.push_back(std::move(q));
      targets.push_back(std::move(t));
    }
    for (int i = 0; i < n; ++i) {
      ExtendJob j;
      j.query = queries[static_cast<std::size_t>(i)].data();
      j.qlen = static_cast<int>(queries[static_cast<std::size_t>(i)].size());
      j.target = targets[static_cast<std::size_t>(i)].data();
      j.tlen = static_cast<int>(targets[static_cast<std::size_t>(i)].size());
      j.h0 = 1 + static_cast<int>(rng.below(60));
      j.w = 5 + static_cast<int>(rng.below(100));
      jobs.push_back(j);
    }
  }
};

TEST(BswExecutor, IsaCapReachesEngineDispatch) {
  // MEM2_FORCE_ISA / util::set_isa_cap() must cap BSW like the occ
  // kernels; explicit get_engine() calls still reach every engine the CPU
  // has.  Queries up to 300 bp put jobs in both precision groups.
  if (util::detect_isa() < util::Isa::kAvx2) GTEST_SKIP() << "CPU lacks AVX2";
  JobPool pool(300, 31337, 5, 300);
  const KswParams p;
  std::vector<KswResult> expect;
  for (const ExtendJob& j : pool.jobs) expect.push_back(ksw_extend_scalar(j, p));

  struct CapGuard {
    util::Isa prev = util::dispatch_isa();
    ~CapGuard() { util::set_isa_cap(prev); }
  } guard;
  util::set_isa_cap(util::Isa::kAvx2);
  BswBatchStats stats;
  std::vector<KswResult> got;
  BswExecutor{}.run(pool.jobs, got, p, {}, &stats);  // options ask for avx512
  EXPECT_STREQ(stats.engine_8bit, "avx2-8bit");
  EXPECT_STREQ(stats.engine_16bit, "avx2-16bit");
  EXPECT_GT(stats.jobs_8bit, 0u);
  EXPECT_GT(stats.jobs_16bit, 0u);
  EXPECT_EQ(got, expect);
  EXPECT_EQ(get_engine(util::detect_isa(), Precision::k8bit).width,
            util::detect_isa() == util::Isa::kAvx512 ? 64 : 32);

  util::set_isa_cap(util::Isa::kScalar);
  BswBatchStats scalar_stats;
  BswExecutor{}.run(pool.jobs, got, p, {}, &scalar_stats);
  EXPECT_STREQ(scalar_stats.engine_8bit, "scalar-8bit");
  EXPECT_EQ(got, expect);
}

TEST(BswExecutor, MatchesScalarKswOnHarvestedJobs) {
  // Jobs intercepted from a real pipeline run over a simulated genome — the
  // same shape of inputs the batch driver pools.
  seq::GenomeConfig g;
  g.seed = 99;
  g.contig_lengths = {80000, 40000};
  g.repeat_fraction = 0.3;
  const auto index = index::Mem2Index::build(seq::simulate_genome(g));
  seq::ReadSimConfig r;
  r.seed = 424242;
  r.num_reads = 150;
  r.read_length = 101;
  const auto reads = seq::simulate_reads(index.ref(), r);

  align::MemOptions mopt;
  auto harvested = bench::harvest_bsw_jobs(index, reads, mopt);
  ASSERT_GT(harvested.jobs.size(), 100u);

  std::vector<KswResult> expect;
  for (const ExtendJob& j : harvested.jobs) expect.push_back(ksw_extend_scalar(j, mopt.ksw));
  std::vector<KswResult> got;
  BswExecutor{}.run(harvested.jobs, got, mopt.ksw, {}, nullptr);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], expect[i]) << "job " << i;
}

TEST(BswExecutor, WorkspaceStopsGrowingInSteadyState) {
  JobPool pool(600, 5150);
  const KswParams p;
  BswExecutor ex;
  std::vector<KswResult> out;
  out.reserve(pool.jobs.size());
  ex.run(pool.jobs, out, p, {}, nullptr);
  const std::size_t after_first = ex.workspace_bytes();
  EXPECT_GT(after_first, 0u);
  for (int rep = 0; rep < 3; ++rep) ex.run(pool.jobs, out, p, {}, nullptr);
  EXPECT_EQ(ex.workspace_bytes(), after_first);
}

TEST(BswExecutor, IntConstructorAcceptsOnlyOne) {
  EXPECT_NO_THROW(BswExecutor(1));
  EXPECT_THROW(BswExecutor(2), invariant_error);
}

}  // namespace
}  // namespace mem2::bsw
