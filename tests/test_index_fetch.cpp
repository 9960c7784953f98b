// Mem2Index coordinate semantics: strand-aware fetch over the doubled
// coordinate space, and pipeline behaviour on reads containing N bases.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "align/driver.h"
#include "seq/genome_sim.h"
#include "seq/read_sim.h"

namespace mem2::index {
namespace {

TEST(IndexFetch, ForwardMatchesReference) {
  const auto idx = Mem2Index::build(seq::random_genome(5000, 3));
  const auto got = idx.fetch(100, 150);
  for (int i = 0; i < 50; ++i)
    ASSERT_EQ(got[static_cast<std::size_t>(i)], idx.ref().base(100 + i));
}

TEST(IndexFetch, ReverseHalfIsReverseComplement) {
  const auto idx = Mem2Index::build(seq::random_genome(5000, 4));
  const idx_t L = idx.l_pac();
  // Doubled coordinate L+k corresponds to forward position 2L-1-(L+k)=L-1-k,
  // complemented.
  const auto got = idx.fetch(L + 10, L + 40);
  for (int i = 0; i < 30; ++i)
    ASSERT_EQ(got[static_cast<std::size_t>(i)],
              seq::complement(idx.ref().base(L - 1 - (10 + i))));
}

TEST(IndexFetch, EveryAlignmentMatchesPerBaseDefinition) {
  const auto idx = Mem2Index::build(seq::random_genome(3001, 6));
  const idx_t L = idx.l_pac();
  for (const idx_t base : {idx_t{0}, idx_t{1500}, L - 40, L, L + 777, 2 * L - 40})
    for (idx_t b = base; b < base + 12; ++b)
      for (idx_t e = b; e <= base + 40; ++e) {
        const auto got = idx.fetch(b, e);
        ASSERT_EQ(got.size(), static_cast<std::size_t>(e - b));
        for (idx_t p = b; p < e; ++p)
          ASSERT_EQ(got[static_cast<std::size_t>(p - b)],
                    p < L ? idx.ref().base(p) : seq::complement(idx.ref().base(2 * L - 1 - p)))
              << b << ".." << e << " at " << p;
      }
}

TEST(IndexFetch, RejectsStrandCrossing) {
  const auto idx = Mem2Index::build(seq::random_genome(2000, 5));
  const idx_t L = idx.l_pac();
  EXPECT_THROW(idx.fetch(L - 5, L + 5), mem2::invariant_error);
  EXPECT_THROW(idx.fetch(-1, 5), mem2::invariant_error);
}

TEST(IndexFetch, DoubledTextContainsBothStrandsOfEveryWindow) {
  // Property: any window of the forward strand occurs revcomp'ed in the
  // reverse half at the mirrored coordinates.
  const auto idx = Mem2Index::build(seq::random_genome(3000, 6));
  const idx_t L = idx.l_pac();
  for (idx_t b : {idx_t{0}, idx_t{123}, L - 60}) {
    const auto fwd = idx.fetch(b, b + 50);
    auto mirrored = idx.fetch(2 * L - (b + 50), 2 * L - b);
    ASSERT_EQ(mirrored, seq::reverse_complement(fwd)) << "b=" << b;
  }
}

TEST(AmbiguousReads, PipelineHandlesNs) {
  const auto idx = Mem2Index::build(seq::random_genome(100000, 7));
  seq::ReadSimConfig rc;
  rc.num_reads = 50;
  rc.read_length = 101;
  rc.seed = 9;
  auto reads = seq::simulate_reads(idx.ref(), rc);
  // Inject N runs into every read.
  for (auto& r : reads) {
    r.bases[10] = 'N';
    r.bases[50] = 'N';
    r.bases[51] = 'N';
  }
  align::DriverOptions batch, base;
  batch.mode = align::Mode::kBatch;
  base.mode = align::Mode::kBaseline;
  const auto sam_a = align::align_reads(idx, reads, batch);
  const auto sam_b = align::align_reads(idx, reads, base);
  ASSERT_EQ(sam_a.size(), sam_b.size());
  int mapped = 0;
  for (std::size_t i = 0; i < sam_a.size(); ++i) {
    ASSERT_EQ(sam_a[i].to_line(), sam_b[i].to_line());
    if (!(sam_a[i].flag & io::kFlagUnmapped)) ++mapped;
  }
  EXPECT_GT(mapped, 40);  // Ns should not prevent mapping
}

TEST(AmbiguousReads, AllNReadIsUnmapped) {
  const auto idx = Mem2Index::build(seq::random_genome(50000, 8));
  seq::Read r;
  r.name = "allN";
  r.bases = std::string(101, 'N');
  r.qual = std::string(101, '#');
  align::DriverOptions opt;
  const auto sam = align::align_reads(idx, {r}, opt);
  ASSERT_EQ(sam.size(), 1u);
  EXPECT_TRUE(sam[0].flag & io::kFlagUnmapped);
}

TEST(LargeIndex, SixtyFourMbpBuildSaveLoadAlignRoundTrip) {
  // Chromosome-scale smoke: a 64 Mbp multi-contig reference through the
  // parallel SA-IS build, the streaming v2 writer/reader, and an alignment
  // pass on the reloaded index.  Skippable where minutes matter (the
  // sanitizer CI job sets MEM2_SKIP_LARGE_TESTS).
  if (std::getenv("MEM2_SKIP_LARGE_TESTS"))
    GTEST_SKIP() << "MEM2_SKIP_LARGE_TESTS set";

  seq::GenomeConfig cfg;
  cfg.seed = 64646464;
  cfg.contig_lengths = {30'000'000, 20'000'000, 14'000'000};
  IndexBuildOptions opt;
  opt.threads = 2;
  const auto idx = Mem2Index::build(seq::simulate_genome(cfg), opt);
  ASSERT_EQ(idx.l_pac(), 64'000'000);
  ASSERT_TRUE(idx.has_flat_sa());

  const std::string path =
      (std::filesystem::temp_directory_path() / "mem2_large_roundtrip.m2i")
          .string();
  save_index(path, idx);
  const auto loaded = load_index(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.seq_len(), idx.seq_len());
  EXPECT_EQ(loaded.fm128().primary(), idx.fm128().primary());
  // Spot-check both SAL structures across the whole row space.
  for (idx_t r = 0; r <= idx.seq_len(); r += idx.seq_len() / 997)
    ASSERT_EQ(loaded.sa_lookup_flat(r), idx.sa_lookup_flat(r)) << "row " << r;
  for (idx_t r = 1; r <= idx.seq_len(); r += idx.seq_len() / 97)
    ASSERT_EQ(loaded.sa_lookup_baseline(r), idx.sa_lookup_flat(r));

  // Alignment over the reloaded index: simulated reads must map back.
  seq::ReadSimConfig rc;
  rc.num_reads = 200;
  rc.read_length = 101;
  rc.seed = 11;
  const auto reads = seq::simulate_reads(loaded.ref(), rc);
  align::DriverOptions dopt;
  const auto sam = align::align_reads(loaded, reads, dopt);
  int mapped = 0;
  for (const auto& rec : sam)
    if (!(rec.flag & io::kFlagUnmapped)) ++mapped;
  EXPECT_GT(mapped, 180);
}

}  // namespace
}  // namespace mem2::index
