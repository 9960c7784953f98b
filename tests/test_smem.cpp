// SMEM kernel: smem1 vs brute force, backend equality (CP128 == CP32),
// prefetch-on/off output invariance, three-round seeding behaviour.
#include <gtest/gtest.h>

#include "index/bwt.h"
#include "index/sais.h"
#include "seq/genome_sim.h"
#include "smem/seeding.h"
#include "util/rng.h"

namespace mem2::smem {
namespace {

using index::BiInterval;

struct SmemFixture {
  std::vector<seq::Code> fwd;
  std::vector<seq::Code> text;
  index::FmIndexCp128 fm128;
  index::FmIndexCp32 fm32;
  std::vector<idx_t> sa;

  explicit SmemFixture(std::int64_t len, std::uint64_t seed, bool repeats = false) {
    seq::GenomeConfig cfg;
    cfg.seed = seed;
    cfg.contig_lengths = {len};
    if (!repeats) {
      cfg.repeat_fraction = 0;
      cfg.tandem_fraction = 0;
    }
    const auto genome = seq::simulate_genome(cfg);
    fwd.resize(static_cast<std::size_t>(genome.length()));
    genome.pac().extract(0, fwd.size(), fwd.data());
    text = index::with_reverse_complement(fwd);
    sa = index::build_suffix_array(text);
    const auto bwt = index::derive_bwt(text, sa);
    fm128.build(bwt);
    fm32.build(bwt);
  }

  // Sample an error-free query from the forward strand.
  std::vector<seq::Code> sample_query(util::Xoshiro256ss& rng, int qlen) const {
    const std::size_t pos = rng.below(fwd.size() - static_cast<std::size_t>(qlen));
    return {fwd.begin() + static_cast<std::ptrdiff_t>(pos),
            fwd.begin() + static_cast<std::ptrdiff_t>(pos) + qlen};
  }
};

// Check that (qb,qe) sets agree with brute force, and interval sizes match
// occurrence counts (both strands).
class SmemPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SmemPropertyTest, Smem1MatchesBruteForce) {
  SmemFixture fx(600, 100u + static_cast<unsigned>(GetParam()), GetParam() % 2 == 1);
  util::Xoshiro256ss rng(static_cast<std::uint64_t>(GetParam()));
  SmemWorkspace ws;
  util::PrefetchPolicy pf;
  std::vector<Smem> found;

  for (int trial = 0; trial < 10; ++trial) {
    const int qlen = 30 + static_cast<int>(rng.below(40));
    auto q = fx.sample_query(rng, qlen);
    // Inject a mutation so SMEMs split.
    const std::size_t mut = rng.below(q.size());
    q[mut] = static_cast<seq::Code>((q[mut] + 1 + rng.below(3)) & 3);

    // Collect all SMEMs by scanning start positions like round 1 does.
    std::vector<std::pair<int, int>> got;
    int x = 0;
    while (x < static_cast<int>(q.size())) {
      x = smem1(fx.fm128, q, x, 1, found, ws, pf);
      for (const auto& m : found) got.emplace_back(m.qb, m.qe);
    }
    std::sort(got.begin(), got.end());
    got.erase(std::unique(got.begin(), got.end()), got.end());

    const auto expect = brute_force_smems(fx.text, q, 1);
    ASSERT_EQ(got, expect) << "trial " << trial;
  }
}

TEST_P(SmemPropertyTest, IntervalSizesEqualOccurrenceCounts) {
  SmemFixture fx(500, 200u + static_cast<unsigned>(GetParam()));
  util::Xoshiro256ss rng(77u + static_cast<std::uint64_t>(GetParam()));
  SmemWorkspace ws;
  util::PrefetchPolicy pf;
  std::vector<Smem> found;

  const auto q = fx.sample_query(rng, 50);
  int x = 0;
  while (x < static_cast<int>(q.size())) {
    x = smem1(fx.fm128, q, x, 1, found, ws, pf);
    for (const auto& m : found) {
      // Count occurrences of q[qb,qe) in the doubled text.
      int n = 0;
      const int len = m.qe - m.qb;
      for (std::size_t s = 0; s + static_cast<std::size_t>(len) <= fx.text.size(); ++s) {
        bool ok = true;
        for (int d = 0; d < len && ok; ++d)
          ok = fx.text[s + static_cast<std::size_t>(d)] == q[static_cast<std::size_t>(m.qb + d)];
        n += ok;
      }
      ASSERT_EQ(m.bi.s, n) << "smem [" << m.qb << "," << m.qe << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmemPropertyTest, ::testing::Range(0, 8));

TEST(Smem, BackendsProduceIdenticalSmems) {
  SmemFixture fx(3000, 300, /*repeats=*/true);
  util::Xoshiro256ss rng(8);
  SmemWorkspace ws128, ws32;
  util::PrefetchPolicy pf;
  SeedingOptions opt;
  std::vector<Smem> out128, out32;

  for (int trial = 0; trial < 25; ++trial) {
    auto q = fx.sample_query(rng, 101);
    for (int e = 0; e < 3; ++e) {  // a few errors
      const std::size_t mut = rng.below(q.size());
      q[mut] = static_cast<seq::Code>((q[mut] + 1 + rng.below(3)) & 3);
    }
    collect_smems(fx.fm128, q, opt, out128, ws128, pf);
    collect_smems(fx.fm32, q, opt, out32, ws32, pf);
    ASSERT_EQ(out128, out32) << "trial " << trial;
  }
}

TEST(Smem, PrefetchDoesNotChangeOutput) {
  SmemFixture fx(2000, 301, /*repeats=*/true);
  util::Xoshiro256ss rng(9);
  SmemWorkspace ws;
  SeedingOptions opt;
  std::vector<Smem> with, without;

  for (int trial = 0; trial < 15; ++trial) {
    const auto q = fx.sample_query(rng, 76);
    collect_smems(fx.fm32, q, opt, with, ws, util::PrefetchPolicy{true});
    collect_smems(fx.fm32, q, opt, without, ws, util::PrefetchPolicy{false});
    ASSERT_EQ(with, without);
  }
}

TEST(Smem, AmbiguousBasesTerminateExtension) {
  SmemFixture fx(800, 302);
  SmemWorkspace ws;
  util::PrefetchPolicy pf;
  std::vector<Smem> out;

  util::Xoshiro256ss rng(1);
  auto q = fx.sample_query(rng, 60);
  q[30] = seq::kAmbig;
  int x = 0;
  std::vector<std::pair<int, int>> ranges;
  while (x < static_cast<int>(q.size())) {
    if (q[static_cast<std::size_t>(x)] > 3) {
      ++x;
      continue;
    }
    x = smem1(fx.fm128, q, x, 1, out, ws, pf);
    for (const auto& m : out) ranges.emplace_back(m.qb, m.qe);
  }
  for (const auto& [qb, qe] : ranges) {
    // No SMEM may span the ambiguous position.
    EXPECT_FALSE(qb <= 30 && 30 < qe) << qb << "," << qe;
  }
}

TEST(Smem, ReseedingSplitsLongUniqueSmem) {
  // A read fully matching a unique region yields one read-length SMEM in
  // round 1; round 2 must re-seed from its middle with min_intv = s+1 = 2,
  // producing additional (shorter, more frequent) intervals when repeats
  // exist.
  SmemFixture fx(20000, 303, /*repeats=*/true);
  util::Xoshiro256ss rng(10);
  SmemWorkspace ws;
  util::PrefetchPolicy pf;
  SeedingOptions opt;

  int trials_with_extra = 0;
  std::vector<Smem> out;
  for (int trial = 0; trial < 40; ++trial) {
    const auto q = fx.sample_query(rng, 120);
    collect_smems(fx.fm32, q, opt, out, ws, pf);
    std::size_t full_count = 0;
    for (const auto& m : out)
      if (m.len() == 120) ++full_count;
    if (full_count > 0 && out.size() > full_count) ++trials_with_extra;
  }
  EXPECT_GT(trials_with_extra, 0);
}

TEST(Smem, SeedStrategyRespectsMaxIntv) {
  SmemFixture fx(5000, 304, /*repeats=*/true);
  util::Xoshiro256ss rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const auto q = fx.sample_query(rng, 101);
    int x = 0;
    while (x < static_cast<int>(q.size())) {
      Smem m;
      x = seed_strategy1(fx.fm32, q, x, 19, 20, m);
      if (m.bi.s > 0) {
        EXPECT_LT(m.bi.s, 20);
        EXPECT_GT(m.len(), 19);  // i - x >= min_len means length >= min_len+1
      }
    }
  }
}

TEST(Smem, OutputSortedByQueryStart) {
  SmemFixture fx(4000, 305, /*repeats=*/true);
  util::Xoshiro256ss rng(12);
  SmemWorkspace ws;
  util::PrefetchPolicy pf;
  SeedingOptions opt;
  std::vector<Smem> out;
  for (int trial = 0; trial < 10; ++trial) {
    const auto q = fx.sample_query(rng, 151);
    collect_smems(fx.fm32, q, opt, out, ws, pf);
    for (std::size_t i = 1; i < out.size(); ++i) {
      ASSERT_LE(out[i - 1].qb, out[i].qb);
      if (out[i - 1].qb == out[i].qb) {
        ASSERT_LE(out[i - 1].qe, out[i].qe);
      }
    }
  }
}

}  // namespace
}  // namespace mem2::smem
