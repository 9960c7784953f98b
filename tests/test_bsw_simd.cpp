// The paper's BSW correctness contract: every vectorized engine (each ISA x
// precision), under any batching and sorting, must return results
// bit-identical to the scalar ksw_extend kernel.
#include <gtest/gtest.h>

#include "bsw/bsw_engine.h"
#include "bsw/bsw_executor.h"
#include "seq/dna.h"
#include "util/rng.h"
#include "util/sw_counters.h"

namespace mem2::bsw {
namespace {

// A pool of random extension jobs that mimics real chain2aln inputs:
// target = mutated query with indels, varying lengths, varying h0/w.
struct JobPool {
  std::vector<std::vector<seq::Code>> queries, targets;
  std::vector<ExtendJob> jobs;

  JobPool(int n, std::uint64_t seed, int min_len = 5, int max_len = 120,
          double mutate = 0.08) {
    util::Xoshiro256ss rng(seed);
    queries.reserve(static_cast<std::size_t>(n));
    targets.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const int qlen = min_len + static_cast<int>(rng.below(
                                     static_cast<std::uint64_t>(max_len - min_len + 1)));
      std::vector<seq::Code> q(static_cast<std::size_t>(qlen));
      for (auto& c : q) c = static_cast<seq::Code>(rng.below(4));
      std::vector<seq::Code> t;
      for (const auto c : q) {
        if (rng.chance(mutate / 4)) continue;
        if (rng.chance(mutate / 4)) t.push_back(static_cast<seq::Code>(rng.below(4)));
        t.push_back(rng.chance(mutate) ? static_cast<seq::Code>(rng.below(4)) : c);
      }
      // Occasionally extend or truncate the target.
      const int extra = static_cast<int>(rng.below(20));
      for (int k = 0; k < extra; ++k) t.push_back(static_cast<seq::Code>(rng.below(4)));
      if (t.empty()) t.push_back(0);
      // Sprinkle ambiguous bases.
      if (rng.chance(0.2)) q[rng.below(q.size())] = seq::kAmbig;
      if (rng.chance(0.2)) t[rng.below(t.size())] = seq::kAmbig;

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

std::vector<KswResult> scalar_reference(const std::vector<ExtendJob>& jobs,
                                        const KswParams& p) {
  std::vector<KswResult> out;
  out.reserve(jobs.size());
  for (const auto& j : jobs) out.push_back(ksw_extend_scalar(j, p));
  return out;
}

struct EngineCase {
  util::Isa isa;
  Precision prec;
  const char* label;
};

class BswEngineTest : public ::testing::TestWithParam<EngineCase> {
 protected:
  bool supported() const {
    return util::detect_isa() >= GetParam().isa;
  }
};

TEST_P(BswEngineTest, MatchesScalarOnRandomJobs) {
  if (!supported()) GTEST_SKIP() << "ISA not available";
  const EngineCase ec = GetParam();
  const KswParams p;
  JobPool pool(300, 42 + static_cast<std::uint64_t>(ec.isa));

  // For the 8-bit engine keep only 8-bit-eligible jobs (the batch layer
  // enforces this in production).
  std::vector<ExtendJob> jobs;
  for (const auto& j : pool.jobs)
    if (ec.prec == Precision::k16bit || fits_8bit(j, p)) jobs.push_back(j);
  ASSERT_GT(jobs.size(), 50u);

  const auto expect = scalar_reference(jobs, p);
  const BswEngine engine = get_engine(ec.isa, ec.prec);
  std::vector<KswResult> got(jobs.size());
  for (std::size_t pos = 0; pos < jobs.size(); pos += static_cast<std::size_t>(engine.width)) {
    const int n = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(engine.width), jobs.size() - pos));
    engine.run(&jobs[pos], &got[pos], n, p, nullptr);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i)
    ASSERT_EQ(got[i], expect[i]) << engine.name << " job " << i << " qlen="
                                 << jobs[i].qlen << " tlen=" << jobs[i].tlen;
}

TEST_P(BswEngineTest, MatchesScalarWithZdropVariants) {
  if (!supported()) GTEST_SKIP() << "ISA not available";
  const EngineCase ec = GetParam();
  JobPool pool(150, 77, 20, 90, 0.25);  // high divergence: aborts & z-drops
  for (int zdrop : {0, 5, 100}) {
    KswParams p;
    p.zdrop = zdrop;
    std::vector<ExtendJob> jobs;
    for (const auto& j : pool.jobs)
      if (ec.prec == Precision::k16bit || fits_8bit(j, p)) jobs.push_back(j);
    const auto expect = scalar_reference(jobs, p);
    const BswEngine engine = get_engine(ec.isa, ec.prec);
    std::vector<KswResult> got(jobs.size());
    for (std::size_t pos = 0; pos < jobs.size(); pos += static_cast<std::size_t>(engine.width)) {
      const int n = static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(engine.width), jobs.size() - pos));
      engine.run(&jobs[pos], &got[pos], n, p, nullptr);
    }
    for (std::size_t i = 0; i < jobs.size(); ++i)
      ASSERT_EQ(got[i], expect[i]) << engine.name << " zdrop=" << zdrop << " job " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, BswEngineTest,
    ::testing::Values(EngineCase{util::Isa::kScalar, Precision::k8bit, "scalar8"},
                      EngineCase{util::Isa::kScalar, Precision::k16bit, "scalar16"},
                      EngineCase{util::Isa::kAvx2, Precision::k8bit, "avx2_8"},
                      EngineCase{util::Isa::kAvx2, Precision::k16bit, "avx2_16"},
                      EngineCase{util::Isa::kAvx512, Precision::k8bit, "avx512_8"},
                      EngineCase{util::Isa::kAvx512, Precision::k16bit, "avx512_16"}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return info.param.label;
    });

TEST(BswBatch, ResultsIndependentOfSortingAndIsa) {
  JobPool pool(500, 1234);
  const KswParams p;
  const auto expect = scalar_reference(pool.jobs, p);

  BswExecutor executor;
  for (bool sort : {false, true}) {
    for (bool force16 : {false, true}) {
      for (util::Isa isa : {util::Isa::kScalar, util::Isa::kAvx2, util::Isa::kAvx512}) {
        BswBatchOptions opt;
        opt.sort_by_length = sort;
        opt.force_16bit = force16;
        opt.isa = isa;
        std::vector<KswResult> got;
        BswBatchStats stats;
        executor.run(pool.jobs, got, p, opt, &stats);
        ASSERT_EQ(got.size(), expect.size());
        for (std::size_t i = 0; i < got.size(); ++i)
          ASSERT_EQ(got[i], expect[i]) << "sort=" << sort << " force16=" << force16
                                       << " isa=" << util::isa_name(isa) << " job " << i;
        EXPECT_EQ(stats.jobs_8bit + stats.jobs_16bit, pool.jobs.size());
        if (force16) {
          EXPECT_EQ(stats.jobs_8bit, 0u);
        }
      }
    }
  }
}

TEST(BswBatch, EmptyBatchIsFine) {
  std::vector<ExtendJob> none;
  std::vector<KswResult> out(3);  // stale results are cleared
  BswExecutor{}.run(none, out, KswParams{});
  EXPECT_TRUE(out.empty());
}

TEST(BswBatch, SortingReducesWastedCells) {
  // Structural check behind Table 6: with wildly mixed lengths, sorting
  // must reduce total computed cells (the wasted-lane effect).
  JobPool pool(2000, 99, 5, 200, 0.05);
  const KswParams p;
  BswExecutor executor;
  auto cells_with = [&](bool sort) {
    auto& ctr = util::tls_counters();
    const auto before = ctr.bsw_cells_total;
    BswBatchOptions opt;
    opt.sort_by_length = sort;
    opt.isa = util::detect_isa();
    std::vector<KswResult> out;
    executor.run(pool.jobs, out, p, opt, nullptr);
    return ctr.bsw_cells_total - before;
  };
  const auto unsorted = cells_with(false);
  const auto sorted = cells_with(true);
  EXPECT_LT(sorted, unsorted);
}

TEST(Fits8Bit, ThresholdBehaviour) {
  KswParams p;
  std::vector<seq::Code> q(100, 0), t(100, 0);
  ExtendJob j;
  j.query = q.data();
  j.target = t.data();
  j.qlen = j.tlen = 100;
  j.w = 10;
  j.h0 = 50;
  EXPECT_TRUE(fits_8bit(j, p));  // 50 + 100 + 5 < 255
  j.h0 = 200;
  EXPECT_FALSE(fits_8bit(j, p));  // 200 + 100 > 255
}

}  // namespace
}  // namespace mem2::bsw
