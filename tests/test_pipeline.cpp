// End-to-end pipeline tests — the paper's headline correctness property:
// the optimized (batch/SIMD/flat-SA/prefetch) driver produces output
// IDENTICAL to the baseline (read-at-a-time/scalar/compressed) driver; and
// both actually map simulated reads back to where they came from.
#include <gtest/gtest.h>

#include <sstream>

#include "align/driver.h"
#include "seq/genome_sim.h"
#include "seq/read_sim.h"

namespace mem2::align {
namespace {

struct PipelineFixture {
  index::Mem2Index index;
  std::vector<seq::Read> reads;

  PipelineFixture(std::int64_t genome_len, std::int64_t n_reads, int read_len,
                  std::uint64_t seed, double repeat_fraction = 0.15) {
    seq::GenomeConfig g;
    g.seed = seed;
    g.contig_lengths = {genome_len * 2 / 3, genome_len / 3};
    g.repeat_fraction = repeat_fraction;
    index = index::Mem2Index::build(seq::simulate_genome(g));

    seq::ReadSimConfig r;
    r.seed = seed * 31 + 7;
    r.num_reads = n_reads;
    r.read_length = read_len;
    reads = seq::simulate_reads(index.ref(), r);
  }
};

std::vector<std::string> sam_lines(const std::vector<io::SamRecord>& recs) {
  std::vector<std::string> lines;
  lines.reserve(recs.size());
  for (const auto& r : recs) lines.push_back(r.to_line());
  return lines;
}

TEST(Pipeline, BaselineAndBatchProduceIdenticalSam) {
  PipelineFixture fx(120000, 300, 101, 5);

  DriverOptions base;
  base.mode = Mode::kBaseline;
  DriverOptions batch;
  batch.mode = Mode::kBatch;
  batch.batch_size = 64;  // multiple batches

  DriverStats s_base, s_batch;
  const auto sam_base = align_reads(fx.index, fx.reads, base, &s_base);
  const auto sam_batch = align_reads(fx.index, fx.reads, batch, &s_batch);

  ASSERT_EQ(sam_base.size(), sam_batch.size());
  const auto lines_base = sam_lines(sam_base);
  const auto lines_batch = sam_lines(sam_batch);
  for (std::size_t i = 0; i < lines_base.size(); ++i)
    ASSERT_EQ(lines_base[i], lines_batch[i]) << "record " << i;

  // The batch driver must have done extra (wasted) extensions — the paper's
  // ~14% effect — but never fewer than it used.
  EXPECT_GE(s_batch.extensions_computed, s_batch.extensions_used);
  EXPECT_GT(s_batch.extensions_used, 0u);
  EXPECT_EQ(s_base.extensions_computed, s_base.extensions_used);
  // Both drivers run the same CHAIN code, so they count the same chains.
  EXPECT_GT(s_base.counters.chains_kept, 0u);
  EXPECT_EQ(s_base.counters.chains_built, s_batch.counters.chains_built);
  EXPECT_EQ(s_base.counters.chains_kept, s_batch.counters.chains_kept);
}

TEST(Pipeline, IdenticalAcrossBatchSizes) {
  PipelineFixture fx(60000, 120, 76, 9);
  DriverOptions a, b;
  a.mode = b.mode = Mode::kBatch;
  a.batch_size = 17;  // ragged batches
  b.batch_size = 1024;
  const auto sam_a = sam_lines(align_reads(fx.index, fx.reads, a));
  const auto sam_b = sam_lines(align_reads(fx.index, fx.reads, b));
  ASSERT_EQ(sam_a, sam_b);
}

TEST(Pipeline, IdenticalAcrossIsaAndSorting) {
  PipelineFixture fx(60000, 100, 101, 11);
  std::vector<std::string> reference;
  for (util::Isa isa : {util::Isa::kScalar, util::Isa::kAvx2, util::Isa::kAvx512}) {
    for (bool sort : {false, true}) {
      DriverOptions opt;
      opt.mode = Mode::kBatch;
      opt.bsw.isa = isa;
      opt.bsw.sort_by_length = sort;
      const auto sam = sam_lines(align_reads(fx.index, fx.reads, opt));
      if (reference.empty())
        reference = sam;
      else
        ASSERT_EQ(sam, reference) << util::isa_name(isa) << " sort=" << sort;
    }
  }
}

TEST(Pipeline, IdenticalWithAndWithoutPrefetch) {
  PipelineFixture fx(50000, 80, 151, 13);
  DriverOptions on, off;
  on.mode = off.mode = Mode::kBatch;
  off.prefetch = false;
  ASSERT_EQ(sam_lines(align_reads(fx.index, fx.reads, on)),
            sam_lines(align_reads(fx.index, fx.reads, off)));
}

TEST(Pipeline, IdenticalAcrossThreadCounts) {
  PipelineFixture fx(50000, 100, 101, 15);
  DriverOptions one, four;
  one.mode = four.mode = Mode::kBatch;
  one.threads = 1;
  four.threads = 4;
  ASSERT_EQ(sam_lines(align_reads(fx.index, fx.reads, one)),
            sam_lines(align_reads(fx.index, fx.reads, four)));

  DriverOptions b1 = one, b4 = four;
  b1.mode = b4.mode = Mode::kBaseline;
  ASSERT_EQ(sam_lines(align_reads(fx.index, fx.reads, b1)),
            sam_lines(align_reads(fx.index, fx.reads, b4)));
}

// Mapping accuracy: most error-bearing simulated reads must map back to
// their true origin (within a small tolerance for indel placement).
class MappingAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(MappingAccuracy, PrimaryAlignmentsHitTruth) {
  const int read_len = GetParam();
  PipelineFixture fx(150000, 250, read_len, 17u + static_cast<unsigned>(read_len));
  DriverOptions opt;
  opt.mode = Mode::kBatch;
  DriverStats stats;
  const auto sam = align_reads(fx.index, fx.reads, opt, &stats);

  int mapped = 0, correct = 0, primaries = 0;
  for (const auto& rec : sam) {
    if (rec.flag & (io::kFlagSecondary | io::kFlagSupplementary)) continue;
    ++primaries;
    if (rec.flag & io::kFlagUnmapped) continue;
    ++mapped;
    const auto truth = seq::parse_truth(rec.qname);
    ASSERT_TRUE(truth.valid);
    if (rec.rname == truth.contig && std::abs((rec.pos - 1) - truth.pos) <= 20 &&
        ((rec.flag & io::kFlagReverse) != 0) == truth.reverse)
      ++correct;
  }
  EXPECT_EQ(primaries, 250);
  EXPECT_GT(mapped, 240);                         // nearly all map
  EXPECT_GT(correct, static_cast<int>(mapped * 0.95));  // and to the right place
}

INSTANTIATE_TEST_SUITE_P(ReadLengths, MappingAccuracy, ::testing::Values(76, 101, 151));

TEST(Pipeline, UnmappedForForeignReads) {
  PipelineFixture fx(40000, 1, 101, 19);
  // Random reads not drawn from the reference.
  seq::Read junk;
  junk.name = "junk";
  junk.bases = std::string(101, 'A');
  for (std::size_t i = 0; i < junk.bases.size(); i += 2) junk.bases[i] = 'C';
  junk.qual = std::string(101, 'I');
  DriverOptions opt;
  const auto sam = align_reads(fx.index, {junk}, opt);
  ASSERT_EQ(sam.size(), 1u);
  // An alternating AC read may accidentally hit a tandem repeat; accept
  // either unmapped or a mapped record, but the record must be well formed.
  EXPECT_EQ(sam[0].qname, "junk");
}

TEST(Pipeline, SamRecordsAreWellFormed) {
  PipelineFixture fx(60000, 60, 101, 23);
  DriverOptions opt;
  const auto sam = align_reads(fx.index, fx.reads, opt);
  for (const auto& rec : sam) {
    if (rec.flag & io::kFlagUnmapped) continue;
    // CIGAR query span must equal SEQ length.
    int span = 0, num = 0;
    for (char c : rec.cigar) {
      if (std::isdigit(static_cast<unsigned char>(c))) {
        num = num * 10 + (c - '0');
      } else {
        if (c == 'M' || c == 'I' || c == 'S') span += num;
        num = 0;
      }
    }
    EXPECT_EQ(span, static_cast<int>(rec.seq.size())) << rec.to_line();
    EXPECT_GE(rec.mapq, 0);
    EXPECT_LE(rec.mapq, 60);
    EXPECT_GE(rec.pos, 1);
  }
}

TEST(Pipeline, HeaderContainsContigsAndProgram) {
  PipelineFixture fx(30000, 1, 76, 29);
  DriverOptions opt;
  const auto hdr = sam_header_for(fx.index, opt);
  EXPECT_NE(hdr.find("@SQ\tSN:chr1"), std::string::npos);
  EXPECT_NE(hdr.find("@SQ\tSN:chr2"), std::string::npos);
  EXPECT_NE(hdr.find("@PG\tID:mem2"), std::string::npos);
}

}  // namespace
}  // namespace mem2::align
