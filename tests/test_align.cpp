// align module unit tests: region post-processing (dedup, primary marking,
// mapq), extension context helpers, band-retry predicate, SAM formation
// details (CIGAR spans, NM, strand handling).
#include <gtest/gtest.h>

#include "align/extend.h"
#include "align/region.h"
#include "align/sam_format.h"
#include "seq/genome_sim.h"

namespace mem2::align {
namespace {

AlnReg make_reg(idx_t rb, idx_t re, int qb, int qe, int score) {
  AlnReg r;
  r.rb = rb;
  r.re = re;
  r.qb = qb;
  r.qe = qe;
  r.score = score;
  r.truesc = score;
  r.rid = 0;
  r.w = 100;
  r.seedcov = qe - qb;
  r.seedlen0 = qe - qb;
  return r;
}

TEST(Regions, DedupRemovesNearDuplicates) {
  MemOptions opt;
  std::vector<AlnReg> regs = {
      make_reg(1000, 1100, 0, 100, 95),
      make_reg(1000, 1100, 0, 100, 90),  // exact duplicate region, worse score
      make_reg(5000, 5100, 0, 100, 80),  // different locus: kept
  };
  sort_dedup_regions(regs, opt);
  ASSERT_EQ(regs.size(), 2u);
  EXPECT_EQ(regs[0].score, 95);  // better duplicate survived
  EXPECT_EQ(regs[1].rb, 5000);
}

TEST(Regions, DedupKeepsPartialOverlaps) {
  MemOptions opt;
  std::vector<AlnReg> regs = {
      make_reg(1000, 1100, 0, 100, 95),
      make_reg(1050, 1150, 0, 100, 90),  // 50% reference overlap: below 0.95
  };
  sort_dedup_regions(regs, opt);
  EXPECT_EQ(regs.size(), 2u);
}

TEST(Regions, MarkPrimaryFlagsOverlappingSecondaries) {
  MemOptions opt;
  std::vector<AlnReg> regs = {
      make_reg(5000, 5100, 0, 100, 80),   // will sort second
      make_reg(1000, 1100, 0, 100, 95),   // best: primary
  };
  mark_primary(regs, opt);
  ASSERT_EQ(regs.size(), 2u);
  EXPECT_EQ(regs[0].score, 95);
  EXPECT_EQ(regs[0].secondary, -1);
  EXPECT_EQ(regs[1].secondary, 0);       // overlaps the primary on query
  EXPECT_EQ(regs[0].sub, 80);            // competitor recorded for mapq
}

TEST(Regions, DisjointQueryIntervalsAreBothPrimary) {
  MemOptions opt;
  std::vector<AlnReg> regs = {
      make_reg(1000, 1050, 0, 50, 50),
      make_reg(9000, 9050, 50, 100, 45),  // different query half
  };
  mark_primary(regs, opt);
  EXPECT_EQ(regs[0].secondary, -1);
  EXPECT_EQ(regs[1].secondary, -1);
}

TEST(Mapq, UniqueStrongHitScoresHigh) {
  MemOptions opt;
  AlnReg r = make_reg(1000, 1101, 0, 101, 101);
  EXPECT_GE(approx_mapq(r, opt), 50);
}

TEST(Mapq, CloseCompetitorDropsToZeroish) {
  MemOptions opt;
  AlnReg r = make_reg(1000, 1101, 0, 101, 101);
  r.sub = 100;  // nearly equal second hit
  EXPECT_LE(approx_mapq(r, opt), 5);
  r.sub = r.score;
  EXPECT_EQ(approx_mapq(r, opt), 0);
}

TEST(Mapq, RepetitiveFractionScalesDown) {
  MemOptions opt;
  AlnReg r = make_reg(1000, 1101, 0, 101, 101);
  const int clean = approx_mapq(r, opt);
  r.frac_rep = 0.9f;
  EXPECT_LT(approx_mapq(r, opt), clean / 2);
}

TEST(Mapq, SuboptimalCountPenalty) {
  MemOptions opt;
  // sub close enough that the base mapq is below the 60 cap, so the
  // sub_n penalty is visible.
  AlnReg r = make_reg(1000, 1101, 0, 101, 101);
  r.sub = 95;
  const int base = approx_mapq(r, opt);
  ASSERT_LT(base, 60);
  r.sub_n = 5;
  EXPECT_LT(approx_mapq(r, opt), base);
}

TEST(BandRetry, MatchesBwaCondition) {
  // retry iff score changed AND max_off >= 3/4 of the band.
  EXPECT_FALSE(band_retry_needed(50, 50, 100, 100));   // unchanged score
  EXPECT_FALSE(band_retry_needed(60, 50, 10, 100));    // small offset
  EXPECT_TRUE(band_retry_needed(60, 50, 75, 100));     // 75 >= 50+25
  EXPECT_FALSE(band_retry_needed(60, 50, 74, 100));
}

TEST(EditDistance, CountsSubsAndGaps) {
  const auto q = seq::encode("ACGTACGT");
  auto t = seq::encode("ACGAACGT");
  bsw::Cigar cig = {{'M', 8}};
  EXPECT_EQ(edit_distance(cig, q.data(), t.data()), 1);

  const auto q2 = seq::encode("ACGTAACGT");  // 1-base insertion
  bsw::Cigar cig2 = {{'M', 4}, {'I', 1}, {'M', 4}};
  const auto t2 = seq::encode("ACGTACGT");
  EXPECT_EQ(edit_distance(cig2, q2.data(), t2.data()), 1);

  bsw::Cigar cig3 = {{'M', 4}, {'D', 2}, {'M', 4}};
  const auto q3 = seq::encode("ACGTACGT");
  const auto t3 = seq::encode("ACGTGGACGT");
  EXPECT_EQ(edit_distance(cig3, q3.data(), t3.data()), 2);
}

struct ExtendFixture {
  index::Mem2Index index;
  MemOptions opt;

  ExtendFixture() {
    seq::GenomeConfig g;
    g.seed = 71;
    g.contig_lengths = {50000};
    g.repeat_fraction = 0;
    index = index::Mem2Index::build(seq::simulate_genome(g));
  }
};

TEST(ChainRef, WindowCoversSeedsAndClampsToContig) {
  ExtendFixture fx;
  std::vector<seq::Code> q(100, 0), q_rev(100, 0);
  ExtendContext ctx{fx.opt, fx.index, q, q_rev};

  chain::Chain c;
  c.rid = 0;
  c.seeds = {{1000, 10, 50, 50}};
  std::vector<seq::Code> window;
  const ChainRef cref = make_chain_ref(ctx, c, window);
  EXPECT_LE(cref.rmax0, 1000);
  EXPECT_GE(cref.rmax1, 1050);
  EXPECT_GE(cref.rmax0, 0);
  EXPECT_LE(cref.rmax1, fx.index.l_pac());
  EXPECT_EQ(cref.rseq.size(), static_cast<std::size_t>(cref.rmax1 - cref.rmax0));
  // Reversal is a plain reverse.
  for (std::size_t i = 0; i < cref.rseq.size(); ++i)
    ASSERT_EQ(cref.rseq_rev[i], cref.rseq[cref.rseq.size() - 1 - i]);
}

TEST(ChainRef, ReverseStrandSeedStaysOnReverseHalf) {
  ExtendFixture fx;
  std::vector<seq::Code> q(100, 0), q_rev(100, 0);
  ExtendContext ctx{fx.opt, fx.index, q, q_rev};
  const idx_t L = fx.index.l_pac();

  chain::Chain c;
  c.rid = 0;
  c.seeds = {{L + 1000, 10, 50, 50}};
  std::vector<seq::Code> window;
  const ChainRef cref = make_chain_ref(ctx, c, window);
  EXPECT_GE(cref.rmax0, L);  // clamped to the reverse half
  EXPECT_LE(cref.rmax1, 2 * L);
}

TEST(ExtendJobs, LeftJobIsReversedPrefix) {
  ExtendFixture fx;
  auto q = fx.index.fetch(2000, 2100);
  std::vector<seq::Code> q_rev(q.rbegin(), q.rend());
  ExtendContext ctx{fx.opt, fx.index, q, q_rev};

  chain::Chain c;
  c.rid = 0;
  c.seeds = {{2030, 30, 40, 40}};  // query[30,70) at ref 2030
  std::vector<seq::Code> window;
  const ChainRef cref = make_chain_ref(ctx, c, window);
  const auto job = make_left_job(ctx, cref, c.seeds[0], fx.opt.w);
  ASSERT_EQ(job.qlen, 30);
  // job.query[0] must be query[29], job.query[29] == query[0].
  EXPECT_EQ(job.query[0], q[29]);
  EXPECT_EQ(job.query[29], q[0]);
  ASSERT_EQ(job.tlen, static_cast<int>(2030 - cref.rmax0));
  // job.target[0] must be the reference base just left of the seed.
  EXPECT_EQ(job.target[0], fx.index.fetch(2029, 2030)[0]);
  EXPECT_EQ(job.h0, 40 * fx.opt.ksw.a);
}

TEST(ExtendJobs, RightJobIsSuffixWithLeftScore) {
  ExtendFixture fx;
  auto q = fx.index.fetch(2000, 2100);
  std::vector<seq::Code> q_rev(q.rbegin(), q.rend());
  ExtendContext ctx{fx.opt, fx.index, q, q_rev};

  chain::Chain c;
  c.rid = 0;
  c.seeds = {{2030, 30, 40, 40}};
  std::vector<seq::Code> window;
  const ChainRef cref = make_chain_ref(ctx, c, window);
  const auto job = make_right_job(ctx, cref, c.seeds[0], fx.opt.w, 77);
  ASSERT_EQ(job.qlen, 30);  // 100 - (30+40)
  EXPECT_EQ(job.query[0], q[70]);
  EXPECT_EQ(job.h0, 77);
  EXPECT_EQ(job.target[0], fx.index.fetch(2070, 2071)[0]);
}

TEST(ProcessChains, PerfectSeedYieldsFullLengthRegion) {
  ExtendFixture fx;
  auto q = fx.index.fetch(3000, 3100);
  std::vector<seq::Code> q_rev(q.rbegin(), q.rend());
  ExtendContext ctx{fx.opt, fx.index, q, q_rev};

  chain::Chain c;
  c.rid = 0;
  c.frac_rep = 0;
  c.seeds = {{3040, 40, 30, 30}};  // middle seed; both flanks perfect
  ScalarSource source(fx.opt.ksw);
  std::vector<AlnReg> regs;
  process_chains(ctx, {&c, 1}, source, regs);
  ASSERT_EQ(regs.size(), 1u);
  EXPECT_EQ(regs[0].qb, 0);
  EXPECT_EQ(regs[0].qe, 100);
  EXPECT_EQ(regs[0].rb, 3000);
  EXPECT_EQ(regs[0].re, 3100);
  EXPECT_EQ(regs[0].score, 100 * fx.opt.ksw.a);
}

TEST(ProcessChains, ContainedSeedSkipped) {
  ExtendFixture fx;
  auto q = fx.index.fetch(3000, 3100);
  std::vector<seq::Code> q_rev(q.rbegin(), q.rend());
  ExtendContext ctx{fx.opt, fx.index, q, q_rev};

  // Two seeds of the same chain on the same diagonal; after the first
  // (longer) is extended to the full read, the second is contained and has
  // no same-length competitor -> skipped (one region only).
  chain::Chain c;
  c.rid = 0;
  c.seeds = {{3020, 20, 60, 60}, {3030, 30, 20, 20}};
  ScalarSource source(fx.opt.ksw);
  std::vector<AlnReg> regs;
  process_chains(ctx, {&c, 1}, source, regs);
  EXPECT_EQ(regs.size(), 1u);
}

}  // namespace
}  // namespace mem2::align
