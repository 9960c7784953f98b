// Chaining: merge rules, containment, strand/contig boundary rejection,
// weights and the overlap filter.
#include <gtest/gtest.h>

#include "chain/chain.h"
#include "seq/genome_sim.h"

namespace mem2::chain {
namespace {

seq::Reference two_contig_ref() {
  seq::Reference ref;
  ref.add_contig("chr1", std::string(1000, 'A'));
  ref.add_contig("chr2", std::string(500, 'C'));
  return ref;
}

TEST(IntervalRid, ForwardStrand) {
  const auto ref = two_contig_ref();
  const idx_t l_pac = ref.length();  // 1500
  EXPECT_EQ(interval_rid(ref, l_pac, 0, 50), 0);
  EXPECT_EQ(interval_rid(ref, l_pac, 990, 10), 0);
  EXPECT_EQ(interval_rid(ref, l_pac, 995, 10), -1);  // crosses chr1/chr2
  EXPECT_EQ(interval_rid(ref, l_pac, 1000, 10), 1);
}

TEST(IntervalRid, ReverseStrandAndBoundary) {
  const auto ref = two_contig_ref();
  const idx_t l_pac = ref.length();
  // Doubled coordinate 2*1500-10 = 2990 maps to forward [0,10) of chr1.
  EXPECT_EQ(interval_rid(ref, l_pac, 2990, 10), 0);
  // Reverse-strand interval covering the chr boundary mirror.
  EXPECT_EQ(interval_rid(ref, l_pac, 1995, 10), -1);
  // Crossing the strand boundary itself.
  EXPECT_EQ(interval_rid(ref, l_pac, 1495, 10), -1);
}

ChainOptions default_opt() { return ChainOptions{}; }

TEST(BuildChains, CollinearSeedsMerge) {
  const auto ref = two_contig_ref();
  const idx_t l_pac = ref.length();
  // Two seeds on the same diagonal, close together -> one chain.
  std::vector<Seed> seeds = {{100, 0, 30, 30}, {140, 40, 30, 30}};
  const auto chains = build_chains(ref, l_pac, seeds, 100, default_opt(), 0.0);
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].seeds.size(), 2u);
  EXPECT_EQ(chains[0].pos, 100);
}

TEST(BuildChains, FarSeedsSplit) {
  const auto ref = two_contig_ref();
  std::vector<Seed> seeds = {{10, 0, 30, 30}, {700, 40, 30, 30}};
  // Gap 690 on reference vs 40 on query: diagonal difference 650 > w.
  const auto chains = build_chains(ref, ref.length(), seeds, 100, default_opt(), 0.0);
  EXPECT_EQ(chains.size(), 2u);
}

TEST(BuildChains, ContainedSeedAbsorbedWithoutGrowth) {
  const auto ref = two_contig_ref();
  std::vector<Seed> seeds = {{100, 0, 60, 60}, {110, 10, 20, 20}};
  const auto chains = build_chains(ref, ref.length(), seeds, 100, default_opt(), 0.0);
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].seeds.size(), 1u);  // contained: not appended
}

TEST(BuildChains, BoundaryCrossingSeedDropped) {
  const auto ref = two_contig_ref();
  std::vector<Seed> seeds = {{995, 0, 10, 10}};  // crosses chr1/chr2
  const auto chains = build_chains(ref, ref.length(), seeds, 50, default_opt(), 0.0);
  EXPECT_TRUE(chains.empty());
}

TEST(BuildChains, OppositeStrandsNeverChain) {
  const auto ref = two_contig_ref();
  const idx_t l_pac = ref.length();
  // Forward seed then reverse-strand seed with compatible offsets.
  std::vector<Seed> seeds = {{100, 0, 30, 30}, {2 * l_pac - 200, 40, 30, 30}};
  const auto chains = build_chains(ref, l_pac, seeds, 100, default_opt(), 0.0);
  EXPECT_EQ(chains.size(), 2u);
}

TEST(ChainWeight, MinOfQueryAndReferenceCoverage) {
  Chain c;
  c.seeds = {{100, 0, 30, 30}, {130, 10, 30, 30}};  // query [0,60) ovlp, ref [100,160)
  // Query coverage: [0,30)+[10,40) -> 40; ref: [100,130)+[130,160) -> 60.
  EXPECT_EQ(chain_weight(c), 40);
}

TEST(FilterChains, DropsDominatedOverlappingChain) {
  // bwa semantics: a dominated chain is dropped, EXCEPT that the first
  // chain shadowed by each kept chain survives with kept==1 so mapq can see
  // the competition.  With two dominated chains, only the first survives.
  ChainOptions opt;
  Chain big, small1, small2;
  big.seeds = {{100, 0, 80, 80}};
  small1.seeds = {{5000, 2, 19, 19}};   // dominated, first shadow -> kept
  small2.seeds = {{9000, 3, 19, 19}};   // dominated, second shadow -> dropped
  std::vector<Chain> chains = {small1, small2, big};
  filter_chains(chains, opt);
  ASSERT_EQ(chains.size(), 2u);
  EXPECT_EQ(chains[0].seeds[0].len, 80);
  EXPECT_EQ(chains[0].kept, 3);
  EXPECT_EQ(chains[1].kept, 1);  // shadow kept for mapq accounting
}

TEST(FilterChains, KeepsNonOverlappingChains) {
  ChainOptions opt;
  Chain a, b;
  a.seeds = {{100, 0, 40, 40}};
  b.seeds = {{5000, 60, 40, 40}};  // disjoint query intervals
  std::vector<Chain> chains = {a, b};
  filter_chains(chains, opt);
  EXPECT_EQ(chains.size(), 2u);
}

TEST(FilterChains, ComparableWeightsBothKept) {
  ChainOptions opt;
  Chain a, b;
  a.seeds = {{100, 0, 50, 50}};
  b.seeds = {{9000, 0, 45, 45}};  // overlapping but within drop_ratio
  std::vector<Chain> chains = {a, b};
  filter_chains(chains, opt);
  ASSERT_EQ(chains.size(), 2u);
  EXPECT_EQ(chains[0].weight, 50);  // sorted by weight desc
  EXPECT_EQ(chains[1].weight, 45);
  EXPECT_EQ(chains[1].kept, 2);  // kept despite overlap
}

TEST(SeedsFromSmems, SamplesCappedByMaxOcc) {
  ChainOptions opt;
  opt.max_occ = 4;
  std::vector<smem::Smem> smems(1);
  smems[0].bi = {100, 200, 10};  // 10 occurrences
  smems[0].qb = 0;
  smems[0].qe = 25;
  int calls = 0;
  std::vector<Seed> seeds;
  seeds_from_smems(
      smems, opt,
      [&](idx_t row) {
        ++calls;
        return row * 7;  // fake SAL
      },
      seeds);
  EXPECT_EQ(seeds.size(), 4u);  // capped
  EXPECT_EQ(calls, 4);
  // Stepped sampling: rows 100, 102, 104, 106 (step = 10/4 = 2).
  EXPECT_EQ(seeds[0].rbeg, 700);
  EXPECT_EQ(seeds[1].rbeg, 714);
  EXPECT_EQ(seeds[0].len, 25);
}

TEST(RepetitiveFraction, UnionOfHighOccIntervals) {
  std::vector<smem::Smem> smems(3);
  smems[0].bi.s = 1000;  // repetitive
  smems[0].qb = 0;
  smems[0].qe = 40;
  smems[1].bi.s = 2;  // unique: ignored
  smems[1].qb = 30;
  smems[1].qe = 80;
  smems[2].bi.s = 600;  // repetitive, overlaps smems[0]
  smems[2].qb = 20;
  smems[2].qe = 60;
  EXPECT_DOUBLE_EQ(repetitive_fraction(smems, 100, 500), 0.6);
}

}  // namespace
}  // namespace mem2::chain
