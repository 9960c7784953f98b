// seq module: codec round trips, reverse complement involution, packed
// reference coordinates, genome/read simulator properties.
#include <gtest/gtest.h>

#include "seq/dna.h"
#include "seq/genome_sim.h"
#include "seq/pack.h"
#include "seq/read_sim.h"
#include "util/rng.h"

namespace mem2::seq {
namespace {

TEST(Dna, EncodeDecodeRoundTrip) {
  const std::string s = "ACGTacgtNnXacg";
  const auto codes = encode(s);
  EXPECT_EQ(decode(codes), "ACGTACGTNNNACG");
}

TEST(Dna, ComplementPairs) {
  EXPECT_EQ(complement(kA), kT);
  EXPECT_EQ(complement(kT), kA);
  EXPECT_EQ(complement(kC), kG);
  EXPECT_EQ(complement(kG), kC);
  EXPECT_EQ(complement(kAmbig), kAmbig);
}

TEST(Dna, ReverseComplementIsInvolution) {
  util::Xoshiro256ss rng(2);
  for (int t = 0; t < 50; ++t) {
    std::vector<Code> s(rng.below(200));
    for (auto& c : s) c = static_cast<Code>(rng.below(5));
    EXPECT_EQ(reverse_complement(reverse_complement(s)), s);
  }
}

TEST(Dna, ReverseComplementInplaceMatchesCopy) {
  util::Xoshiro256ss rng(3);
  for (int t = 0; t < 50; ++t) {
    std::vector<Code> s(rng.below(99));  // odd and even lengths
    for (auto& c : s) c = static_cast<Code>(rng.below(4));
    auto expect = reverse_complement(s);
    auto inplace = s;
    reverse_complement_inplace(inplace);
    EXPECT_EQ(inplace, expect);
  }
}

TEST(Dna, ReverseComplementAscii) {
  EXPECT_EQ(reverse_complement_ascii("ACGT"), "ACGT");
  EXPECT_EQ(reverse_complement_ascii("AACGTN"), "NACGTT");
}

TEST(PackedSequence, StoresAndExtracts) {
  PackedSequence p;
  std::vector<Code> ref;
  util::Xoshiro256ss rng(4);
  for (int i = 0; i < 1000; ++i) {
    const Code c = static_cast<Code>(rng.below(4));
    ref.push_back(c);
    p.push_back(c);
  }
  ASSERT_EQ(p.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(p[i], ref[i]);
  EXPECT_EQ(p.extract(100, 200), std::vector<Code>(ref.begin() + 100, ref.begin() + 200));
  // Every alignment of begin/end against the 4-code bytes.
  for (std::size_t b = 0; b < 24; ++b)
    for (std::size_t e = b; e < 40; ++e)
      ASSERT_EQ(p.extract(b, e), std::vector<Code>(ref.begin() + static_cast<std::ptrdiff_t>(b),
                                                  ref.begin() + static_cast<std::ptrdiff_t>(e)))
          << b << ".." << e;
}

TEST(PackedSequence, RejectsAmbiguousCodes) {
  PackedSequence p;
  EXPECT_THROW(p.push_back(kAmbig), mem2::invariant_error);
}

TEST(Reference, CoordinateTranslation) {
  Reference ref;
  ref.add_contig("chr1", "ACGTACGTAC");  // len 10
  ref.add_contig("chr2", "TTTTT");       // len 5
  EXPECT_EQ(ref.length(), 15);
  auto [c0, p0] = ref.locate(0);
  EXPECT_EQ(c0, 0);
  EXPECT_EQ(p0, 0);
  auto [c1, p1] = ref.locate(9);
  EXPECT_EQ(c1, 0);
  EXPECT_EQ(p1, 9);
  auto [c2, p2] = ref.locate(10);
  EXPECT_EQ(c2, 1);
  EXPECT_EQ(p2, 0);
  EXPECT_TRUE(ref.within_one_contig(3, 10));
  EXPECT_FALSE(ref.within_one_contig(8, 12));
  EXPECT_THROW(ref.locate(15), mem2::invariant_error);
}

TEST(Reference, AmbiguousBasesReplacedAndRecorded) {
  Reference ref;
  ref.add_contig("c", "ACGNNNNNACG");
  ASSERT_EQ(ref.ambiguous().size(), 1u);
  EXPECT_EQ(ref.ambiguous()[0].begin, 3);
  EXPECT_EQ(ref.ambiguous()[0].end, 8);
  for (idx_t i = 0; i < ref.length(); ++i) EXPECT_LT(ref.base(i), 4);
}

TEST(GenomeSim, DeterministicAndSized) {
  GenomeConfig cfg;
  cfg.seed = 99;
  cfg.contig_lengths = {10000, 5000};
  const auto a = simulate_genome(cfg);
  const auto b = simulate_genome(cfg);
  ASSERT_EQ(a.length(), 15000);
  ASSERT_EQ(a.contigs().size(), 2u);
  for (idx_t i = 0; i < a.length(); ++i) ASSERT_EQ(a.base(i), b.base(i));
}

TEST(GenomeSim, GcContentRoughlyRespected) {
  GenomeConfig cfg;
  cfg.contig_lengths = {200000};
  cfg.gc_content = 0.6;
  cfg.repeat_fraction = 0;
  cfg.tandem_fraction = 0;
  const auto ref = simulate_genome(cfg);
  std::int64_t gc = 0;
  for (idx_t i = 0; i < ref.length(); ++i)
    gc += ref.base(i) == kC || ref.base(i) == kG;
  const double frac = static_cast<double>(gc) / static_cast<double>(ref.length());
  EXPECT_NEAR(frac, 0.6, 0.01);
}

TEST(GenomeSim, RepeatsCreateDuplicatedKmers) {
  GenomeConfig cfg;
  cfg.contig_lengths = {100000};
  cfg.repeat_fraction = 0.3;
  cfg.repeat_divergence = 0.0;  // exact copies -> guaranteed duplicates
  const auto ref = simulate_genome(cfg);
  // Sample a window inside a repeat element copy and expect >1 occurrence
  // somewhere.  Cheap proxy: count 32-mers occurring twice via hashing.
  std::vector<std::uint64_t> kmers;
  std::uint64_t h = 0;
  for (idx_t i = 0; i < ref.length(); ++i) {
    h = (h << 2 | ref.base(i)) & ((std::uint64_t{1} << 62) - 1);
    if (i >= 31) kmers.push_back(h);
  }
  std::sort(kmers.begin(), kmers.end());
  std::size_t dups = 0;
  for (std::size_t i = 1; i < kmers.size(); ++i) dups += kmers[i] == kmers[i - 1];
  EXPECT_GT(dups, 100u);
}

TEST(ReadSim, ProducesRequestedReads) {
  const auto ref = random_genome(50000, 5);
  ReadSimConfig cfg;
  cfg.num_reads = 500;
  cfg.read_length = 101;
  const auto reads = simulate_reads(ref, cfg);
  ASSERT_EQ(reads.size(), 500u);
  for (const auto& r : reads) {
    ASSERT_EQ(r.bases.size(), 101u);
    ASSERT_EQ(r.qual.size(), 101u);
    const auto truth = parse_truth(r.name);
    ASSERT_TRUE(truth.valid) << r.name;
    EXPECT_EQ(truth.contig, "chr1");
    EXPECT_GE(truth.pos, 0);
  }
}

TEST(ReadSim, ErrorFreeReadsMatchReference) {
  const auto ref = random_genome(20000, 6);
  ReadSimConfig cfg;
  cfg.num_reads = 50;
  cfg.read_length = 80;
  cfg.substitution_rate = 0;
  cfg.insertion_rate = 0;
  cfg.deletion_rate = 0;
  const auto reads = simulate_reads(ref, cfg);
  for (const auto& r : reads) {
    const auto truth = parse_truth(r.name);
    auto expect = ref.slice(truth.pos, truth.pos + cfg.read_length);
    if (truth.reverse) {
      // Read came from an oversized template; the first read_length bases
      // of revcomp(template) are the revcomp of the template's tail.
      auto tpl = ref.slice(truth.pos, truth.pos + cfg.read_length + 16);
      reverse_complement_inplace(tpl);
      expect.assign(tpl.begin(), tpl.begin() + cfg.read_length);
    }
    EXPECT_EQ(r.bases, decode(expect)) << r.name;
  }
}

TEST(ReadSim, PaperDatasetsMatchTable3Shapes) {
  const auto sets = paper_datasets(1.0);
  ASSERT_EQ(sets.size(), 5u);
  EXPECT_EQ(sets[0].read_length, 151);
  EXPECT_EQ(sets[2].read_length, 76);
  EXPECT_EQ(sets[3].read_length, 101);
  // D3..D5 have 2.5x the reads of D1/D2 (Table 3 ratio).
  EXPECT_EQ(sets[2].num_reads, sets[0].num_reads * 5 / 2);
}

TEST(ReadSim, TruthParserRejectsForeignNames) {
  EXPECT_FALSE(parse_truth("SRR123.456").valid);
  EXPECT_FALSE(parse_truth("r_1:chr1:oops:+").valid);
  const auto t = parse_truth("D1_7:chr2:1234:-");
  ASSERT_TRUE(t.valid);
  EXPECT_EQ(t.contig, "chr2");
  EXPECT_EQ(t.pos, 1234);
  EXPECT_TRUE(t.reverse);
}

}  // namespace
}  // namespace mem2::seq
