// Mapping accuracy against simulator truth.
//
// The simulators record each read's true origin in its name, so accuracy is
// checked against the truth, not against earlier output:
//   - single-end, per error rate: the fraction of reads whose primary lands
//     within 20 bp of the origin on the right strand, and the number of
//     primaries placed wrongly at mapq >= 30 (confidently wrong);
//   - paired-end, per mate-damage level: the same pairs aligned single-end
//     and paired, where pairing (with mate rescue) must place at least as
//     many mates correctly as single-end alignment does, and a minimum
//     fraction of all mates.
// The data is fixed-seed and the output deterministic, so the measured
// values repeat exactly; each bound sits a stated margin from them (see
// the tables), room for a change that moves a few reads but not for a
// regression.  MEM2_SKIP_LARGE_TESTS (the sanitizer job) runs one dataset
// of each kind, with the same bounds.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "align/aligner.h"
#include "seq/genome_sim.h"
#include "seq/read_sim.h"

namespace mem2 {
namespace {

const index::Mem2Index& accuracy_index() {
  static const index::Mem2Index index = [] {
    seq::GenomeConfig g;
    g.contig_lengths = {1500000, 500000};
    g.repeat_fraction = 0.3;
    g.repeat_divergence = 0.02;
    return index::Mem2Index::build(seq::simulate_genome(g));
  }();
  return index;
}

bool small_run() { return std::getenv("MEM2_SKIP_LARGE_TESTS") != nullptr; }

std::vector<io::SamRecord> align_all(const std::vector<seq::Read>& reads, bool paired) {
  align::DriverOptions opt;
  opt.mode = align::Mode::kBatch;
  opt.paired = paired;
  align::CollectSamSink sink;
  const align::Status st = align::Aligner(accuracy_index(), opt).align(reads, sink);
  EXPECT_TRUE(st.ok()) << st.message();
  return sink.records();
}

bool is_primary(const io::SamRecord& rec) {
  return !(rec.flag & (io::kFlagSecondary | io::kFlagSupplementary));
}

struct SeBound {
  double error_rate;
  double min_correct_frac;  // of all reads
  int max_wrong_mapq30;     // mapped primaries, wrong place, mapq >= 30
};

// Measured (2000 reads of 101 bp each): correct 0.968 / 0.969 / 0.9615 /
// 0.9495 / 0.8765 and wrong at mapq >= 30 0 / 1 / 4 / 6 / 50.  The bounds
// allow 1 point less correct (20 reads) and 5, or 10%, more confident
// errors, whichever is more.
constexpr SeBound kSeBounds[] = {
    {0.0, 0.958, 5},
    {0.005, 0.959, 6},
    {0.01, 0.9515, 9},
    {0.02, 0.9395, 11},
    {0.05, 0.8665, 55},
};

TEST(Accuracy, SingleEndAgainstSimulatorTruth) {
  for (const SeBound& b : kSeBounds) {
    if (small_run() && b.error_rate != 0.01) continue;
    seq::ReadSimConfig rc;
    rc.num_reads = 2000;
    rc.read_length = 101;
    rc.substitution_rate = b.error_rate;
    rc.insertion_rate = b.error_rate / 10;
    rc.deletion_rate = b.error_rate / 10;
    rc.seed = 42;
    const auto reads = seq::simulate_reads(accuracy_index().ref(), rc);

    int mapped = 0, correct = 0, wrong_confident = 0;
    for (const auto& rec : align_all(reads, /*paired=*/false)) {
      if (!is_primary(rec) || (rec.flag & io::kFlagUnmapped)) continue;
      ++mapped;
      const auto truth = seq::parse_truth(rec.qname);
      const bool ok = truth.valid && rec.rname == truth.contig &&
                      std::llabs((rec.pos - 1) - truth.pos) <= 20 &&
                      ((rec.flag & io::kFlagReverse) != 0) == truth.reverse;
      correct += ok;
      wrong_confident += !ok && rec.mapq >= 30;
    }
    const double frac = static_cast<double>(correct) / static_cast<double>(reads.size());
    std::printf("SE error %.3f: %zu reads, mapped %d, correct %d (%.4f), "
                "wrong at mapq>=30 %d\n",
                b.error_rate, reads.size(), mapped, correct, frac, wrong_confident);
    EXPECT_GE(frac, b.min_correct_frac) << "error rate " << b.error_rate;
    EXPECT_LE(wrong_confident, b.max_wrong_mapq30) << "error rate " << b.error_rate;
  }
}

/// Mates placed correctly among the primary records (mates named by the
/// Read1/Read2 flags in paired mode, by record order single-end).
int correct_mates(const std::vector<io::SamRecord>& sam, bool paired) {
  int correct = 0;
  std::size_t read_idx = 0;
  for (const auto& rec : sam) {
    if (!is_primary(rec)) continue;
    const bool is_read2 = paired ? (rec.flag & io::kFlagRead2) != 0 : read_idx++ % 2 == 1;
    if (rec.flag & io::kFlagUnmapped) continue;
    const auto truth = seq::parse_pair_truth(rec.qname);
    if (!truth.valid) continue;
    const auto pos = is_read2 ? truth.pos2 : truth.pos1;
    const bool rev = is_read2 ? truth.reverse2 : truth.reverse1;
    correct += rec.rname == truth.contig && std::llabs((rec.pos - 1) - pos) <= 25 &&
               ((rec.flag & io::kFlagReverse) != 0) == rev;
  }
  return correct;
}

struct PeBound {
  double damage;            // fraction of pairs with one mate damaged
  double min_correct_frac;  // paired, of all mates
};

// Measured (1000 pairs of 2 x 101 bp): paired correct 0.9665 / 0.944 /
// 0.924 of all mates (single-end on the same reads 0.965 / 0.9115 /
// 0.822).  The bounds allow 1 point less.
constexpr PeBound kPeBounds[] = {
    {0.0, 0.9565},
    {0.1, 0.934},
    {0.3, 0.914},
};

TEST(Accuracy, PairedAgainstSimulatorTruth) {
  for (const PeBound& b : kPeBounds) {
    if (small_run() && b.damage != 0.3) continue;
    seq::PairSimConfig pc;
    pc.seed = 99;
    pc.num_pairs = 1000;
    pc.read_length = 101;
    pc.insert_mean = 380;
    pc.insert_std = 40;
    pc.substitution_rate = 0.005;
    pc.damage_fraction = b.damage;
    const auto reads = seq::simulate_pairs(accuracy_index().ref(), pc);
    const int se = correct_mates(align_all(reads, /*paired=*/false), false);
    const int pe = correct_mates(align_all(reads, /*paired=*/true), true);
    const double frac = static_cast<double>(pe) / static_cast<double>(reads.size());
    std::printf("PE damage %.2f: %zu reads, correct SE %d, PE %d (%.4f)\n", b.damage,
                reads.size(), se, pe, frac);
    EXPECT_GE(pe, se) << "damage " << b.damage;
    EXPECT_GE(frac, b.min_correct_frac) << "damage " << b.damage;
  }
}

}  // namespace
}  // namespace mem2
