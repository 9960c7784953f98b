// Paired-end subsystem: insert-size estimation on synthetic distributions,
// orientation inference, SAM flag invariants of aligned pairs, and the
// BSW-powered mate rescue path.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "align/aligner.h"
#include "pair/insert_stats.h"
#include "pair/mate_rescue.h"
#include "seq/genome_sim.h"
#include "seq/read_sim.h"
#include "util/rng.h"

namespace mem2 {
namespace {

// ------------------------------------------------------------ estimation

TEST(InsertStats, EstimatesSyntheticDistribution) {
  // A deterministic saw-tooth around 400: uniform-ish in [350, 450].
  std::vector<pair::InsertSample> samples;
  for (int i = 0; i < 200; ++i)
    samples.push_back({1, 350 + (i * 37) % 101});
  const auto stats = pair::estimate_insert_stats(samples, {});
  EXPECT_EQ(stats.pairs_sampled, 200u);
  ASSERT_FALSE(stats.dir[1].failed);
  EXPECT_NEAR(stats.dir[1].mean, 400.0, 5.0);
  EXPECT_GT(stats.dir[1].std, 10.0);
  EXPECT_LT(stats.dir[1].low, 350);
  EXPECT_GT(stats.dir[1].high, 450);
  for (int d : {0, 2, 3}) EXPECT_TRUE(stats.dir[d].failed);
}

TEST(InsertStats, MinorityAndSparseClassesFail) {
  std::vector<pair::InsertSample> samples;
  for (int i = 0; i < 300; ++i) samples.push_back({1, 380 + i % 40});
  for (int i = 0; i < 12; ++i) samples.push_back({2, 200 + i});  // 12 < 5% of 300? no: ratio vs max
  const auto stats = pair::estimate_insert_stats(samples, {});
  ASSERT_FALSE(stats.dir[1].failed);
  // 12 samples pass min_dir_count but fail min_dir_ratio (12 < 0.05 * 300).
  EXPECT_TRUE(stats.dir[2].failed);
  // Fewer than min_dir_count outright.
  std::vector<pair::InsertSample> few(5, {0, 100});
  EXPECT_TRUE(pair::estimate_insert_stats(few, {}).dir[0].failed);
}

TEST(InsertStats, IgnoresOutOfRangeSamples) {
  pair::PairOptions popt;
  popt.max_ins = 1000;
  std::vector<pair::InsertSample> samples;
  for (int i = 0; i < 50; ++i) samples.push_back({1, 400 + i % 20});
  samples.push_back({1, 0});      // below 1
  samples.push_back({1, 50000});  // beyond max_ins
  const auto stats = pair::estimate_insert_stats(samples, popt);
  EXPECT_EQ(stats.dir[1].count, 50u);
}

TEST(InsertStats, TinyCalibrationSets) {
  // Estimation must behave when the stream holds far fewer pairs than
  // stat_pairs: exactly min_dir_count samples calibrate, one fewer fails.
  pair::PairOptions popt;
  std::vector<pair::InsertSample> ten;
  for (int i = 0; i < popt.min_dir_count; ++i)
    ten.push_back({1, 300 + 7 * i});  // 300, 307, ..., 363
  const auto ok = pair::estimate_insert_stats(ten, popt);
  ASSERT_FALSE(ok.dir[1].failed);
  EXPECT_EQ(ok.dir[1].count, static_cast<std::uint64_t>(popt.min_dir_count));
  // Percentile bounds at tiny N: the accepted range must bracket every
  // sample (nothing is an outlier in a 10-point saw-tooth) and stay >= 1.
  EXPECT_GE(ok.dir[1].low, 1);
  EXPECT_LE(ok.dir[1].low, 300);
  EXPECT_GE(ok.dir[1].high, 363);
  EXPECT_GT(ok.dir[1].mean, 300.0);
  EXPECT_LT(ok.dir[1].mean, 363.0);

  ten.pop_back();
  EXPECT_TRUE(pair::estimate_insert_stats(ten, popt).dir[1].failed);
  // And the empty set fails everywhere without dividing by zero.
  const auto none = pair::estimate_insert_stats({}, popt);
  EXPECT_EQ(none.pairs_sampled, 0u);
  for (const auto& d : none.dir) EXPECT_TRUE(d.failed);
}

TEST(InsertStats, AllOneOrientation) {
  // A library that is 100% RF: that class calibrates, every other fails,
  // and the ratio test cannot divide against a zero-count dominant class.
  std::vector<pair::InsertSample> samples;
  for (int i = 0; i < 100; ++i) samples.push_back({2, 500 + i % 50});
  const auto stats = pair::estimate_insert_stats(samples, {});
  ASSERT_FALSE(stats.dir[2].failed);
  EXPECT_EQ(stats.dir[2].count, 100u);
  for (int d : {0, 1, 3}) {
    EXPECT_TRUE(stats.dir[d].failed);
    EXPECT_EQ(stats.dir[d].count, 0u);
  }
  EXPECT_FALSE(stats.any() && stats.dir[2].failed);
  EXPECT_TRUE(stats.any());
}

TEST(InsertStats, ZeroVarianceInserts) {
  // An exact-insert library (every fragment 250 bp): mean lands on the
  // sample, std is floored to a positive epsilon instead of zero (pair
  // scoring divides by it), and the accepted range collapses to the point.
  std::vector<pair::InsertSample> samples(64, {1, 250});
  const auto stats = pair::estimate_insert_stats(samples, {});
  ASSERT_FALSE(stats.dir[1].failed);
  EXPECT_DOUBLE_EQ(stats.dir[1].mean, 250.0);
  EXPECT_GT(stats.dir[1].std, 0.0);
  EXPECT_LT(stats.dir[1].std, 1e-6);
  EXPECT_EQ(stats.dir[1].low, 250);
  EXPECT_EQ(stats.dir[1].high, 250);
}

TEST(InsertStats, PercentileRoundingNeverReadsPastTheEnd) {
  // bwa's percentile rounding (f * n + .499) can land one past the end for
  // small classes; the clamp must keep bounds finite and ordered for the
  // smallest N that can calibrate.
  pair::PairOptions popt;
  popt.min_dir_count = 1;
  for (int n : {1, 2, 3, 4}) {
    std::vector<pair::InsertSample> samples;
    for (int i = 0; i < n; ++i) samples.push_back({0, 100 * (i + 1)});
    const auto stats = pair::estimate_insert_stats(samples, popt);
    ASSERT_FALSE(stats.dir[0].failed) << "n=" << n;
    EXPECT_GE(stats.dir[0].low, 1) << "n=" << n;
    EXPECT_LE(stats.dir[0].low, stats.dir[0].high) << "n=" << n;
    EXPECT_GE(stats.dir[0].mean, 100.0) << "n=" << n;
    EXPECT_LE(stats.dir[0].mean, 100.0 * n) << "n=" << n;
  }
}

TEST(InsertStats, InferDirClassesAreConsistent) {
  const idx_t l_pac = 10000;
  idx_t dist = 0;
  // FR: mate 1 forward at 1000, mate 2 reverse with rb = 2*l_pac - 1400
  // (forward projection 1399): classic proper pair, insert ~400.
  EXPECT_EQ(pair::infer_dir(l_pac, 1000, 2 * l_pac - 1400, &dist), 1);
  EXPECT_NEAR(static_cast<double>(dist), 399.0, 1.0);
  // Same strand: FF.
  EXPECT_EQ(pair::infer_dir(l_pac, 1000, 1400, &dist), 0);
  EXPECT_EQ(dist, 400);
}

TEST(MateRescue, SatisfiedDirsMatchesInferDirLoop) {
  // The rescue harvest's skip test: binary searches over the mate's sorted
  // region starts must set exactly the classes bwa's loop over
  // (anchor, mate region) infer_dir pairs sets, on both strands, at the
  // strand edges and at the [low, high] boundaries.
  util::Xoshiro256ss rng(1812);
  const idx_t l_pac = 5000;
  int skipped = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    pair::InsertStats pes;
    for (auto& d : pes.dir) {
      d.failed = rng.chance(0.25);
      d.low = static_cast<int>(rng.below(300)) - 20;  // some low <= 0
      d.high = d.low + static_cast<int>(rng.below(500)) - 30;  // some empty
    }
    const auto pick = [&] {
      // Cluster near the strand boundary and both ends now and then.
      switch (rng.below(4)) {
        case 0: return static_cast<idx_t>(rng.below(static_cast<std::uint64_t>(2 * l_pac)));
        case 1: return l_pac - 400 + static_cast<idx_t>(rng.below(800));
        case 2: return static_cast<idx_t>(rng.below(400));
        default: return 2 * l_pac - 1 - static_cast<idx_t>(rng.below(400));
      }
    };
    std::vector<idx_t> mate_rb;
    const int n_mate = static_cast<int>(rng.below(6));
    const idx_t b1 = pick();
    for (int m = 0; m < n_mate; ++m) {
      // Some mates exactly at the range boundaries of some class.
      idx_t rb = pick();
      if (rng.chance(0.3)) {
        const auto& d = pes.dir[rng.below(4)];
        const idx_t off = rng.chance(0.5) ? d.low : d.high;
        rb = std::clamp<idx_t>(rng.chance(0.5) ? b1 + off : 2 * l_pac - 1 - b1 - off,
                               0, 2 * l_pac - 1);
      }
      mate_rb.push_back(rb);
    }
    bool want[4], got[4];
    for (int d = 0; d < 4; ++d) want[d] = got[d] = pes.dir[d].failed;
    for (const idx_t rb : mate_rb) {
      idx_t dist = 0;
      const int d = pair::infer_dir(l_pac, b1, rb, &dist);
      if (dist >= pes.dir[d].low && dist <= pes.dir[d].high) want[d] = true;
    }
    std::sort(mate_rb.begin(), mate_rb.end());
    pair::satisfied_dirs(l_pac, b1, mate_rb, pes, got);
    for (int d = 0; d < 4; ++d) {
      ASSERT_EQ(got[d], want[d]) << "iter " << iter << " dir " << d << " b1 " << b1;
      skipped += want[d] && !pes.dir[d].failed;
    }
  }
  EXPECT_GT(skipped, 300);  // the ranges are actually hit
}

// ------------------------------------------------------------- alignment

struct PairedFixture {
  index::Mem2Index index;
  std::vector<seq::Read> reads;

  explicit PairedFixture(double damage_fraction = 0.0, std::int64_t pairs = 400) {
    seq::GenomeConfig g;
    g.seed = 20240401;
    g.contig_lengths = {120000, 60000};
    g.repeat_fraction = 0.2;
    index = index::Mem2Index::build(seq::simulate_genome(g));

    seq::PairSimConfig p;
    p.seed = 4242;
    p.num_pairs = pairs;
    p.read_length = 101;
    p.insert_mean = 350;
    p.insert_std = 30;
    p.damage_fraction = damage_fraction;
    reads = seq::simulate_pairs(index.ref(), p);
  }
};

struct PairedRun {
  std::vector<io::SamRecord> records;
  pair::InsertStats stats;
  align::DriverStats dstats;
};

PairedRun align_paired(const PairedFixture& fx, align::DriverOptions opt) {
  opt.mode = align::Mode::kBatch;
  opt.paired = true;
  if (opt.batch_size % 2) ++opt.batch_size;
  align::Aligner aligner(fx.index, opt);
  EXPECT_TRUE(aligner.ok()) << aligner.status().message();
  align::CollectSamSink sink;
  align::Stream stream = aligner.open(sink);
  EXPECT_TRUE(stream.submit(std::span<const seq::Read>(fx.reads)).ok());
  EXPECT_TRUE(stream.finish().ok());
  return {sink.take_records(), stream.pair_stats(), stream.stats()};
}

TEST(InsertStats, SessionWithFewerPairsThanStatPairs) {
  // A stream shorter than the calibration prefix must still calibrate (the
  // session estimates at finish() over whatever arrived).
  PairedFixture fx(0.0, 40);  // 40 pairs << default stat_pairs = 512
  const auto run = align_paired(fx, {});
  ASSERT_FALSE(run.stats.dir[1].failed) << run.stats.summary();
  EXPECT_GT(run.stats.pairs_sampled, 0u);
  EXPECT_LE(run.stats.pairs_sampled, 40u);
  EXPECT_GT(run.dstats.counters.pe_proper_pairs, 30u);
}

TEST(PairedSam, FlagInvariants) {
  PairedFixture fx;
  const auto run = align_paired(fx, {});
  ASSERT_FALSE(run.records.empty());
  ASSERT_FALSE(run.stats.dir[1].failed) << run.stats.summary();

  // Collect each pair's primary records.
  struct Primaries {
    const io::SamRecord* r[2] = {nullptr, nullptr};
  };
  std::map<std::string, Primaries> pairs;
  for (const auto& rec : run.records) {
    EXPECT_TRUE(rec.flag & io::kFlagPaired) << rec.to_line();
    const bool is1 = rec.flag & io::kFlagRead1;
    const bool is2 = rec.flag & io::kFlagRead2;
    EXPECT_NE(is1, is2) << rec.to_line();
    if (rec.flag & (io::kFlagSecondary | io::kFlagSupplementary)) continue;
    Primaries& p = pairs[rec.qname];
    const int which = is2 ? 1 : 0;
    EXPECT_EQ(p.r[which], nullptr) << "duplicate primary: " << rec.to_line();
    p.r[which] = &rec;
  }

  int proper = 0;
  for (const auto& [name, p] : pairs) {
    ASSERT_NE(p.r[0], nullptr) << name;
    ASSERT_NE(p.r[1], nullptr) << name;
    const io::SamRecord& a = *p.r[0];
    const io::SamRecord& b = *p.r[1];
    // Mate bits mirror the other record's own bits.
    EXPECT_EQ((a.flag & io::kFlagMateUnmapped) != 0,
              (b.flag & io::kFlagUnmapped) != 0);
    EXPECT_EQ((b.flag & io::kFlagMateUnmapped) != 0,
              (a.flag & io::kFlagUnmapped) != 0);
    if (!(b.flag & io::kFlagUnmapped)) {
      EXPECT_EQ((a.flag & io::kFlagMateReverse) != 0,
                (b.flag & io::kFlagReverse) != 0);
    }
    // Proper-pair bit is a property of the template.
    EXPECT_EQ((a.flag & io::kFlagProperPair) != 0,
              (b.flag & io::kFlagProperPair) != 0);
    const bool both_mapped =
        !(a.flag & io::kFlagUnmapped) && !(b.flag & io::kFlagUnmapped);
    if (both_mapped && a.rname == b.rname) {
      EXPECT_EQ(a.tlen, -b.tlen) << name;
      EXPECT_EQ(a.pnext, b.pos) << name;
      EXPECT_EQ(b.pnext, a.pos) << name;
    }
    if (a.flag & io::kFlagProperPair) {
      ++proper;
      ASSERT_TRUE(both_mapped);
      ASSERT_EQ(a.rname, b.rname);
      // Proper iff within the estimated bounds: |TLEN| - 1 is exactly the
      // mem_pair distance for FR pairs.
      const auto dist = std::abs(a.tlen) - 1;
      EXPECT_GE(dist, run.stats.dir[1].low) << name;
      EXPECT_LE(dist, run.stats.dir[1].high) << name;
    }
  }
  // The clean library pairs almost everything.
  EXPECT_GT(proper, static_cast<int>(pairs.size()) * 9 / 10);
  EXPECT_EQ(run.dstats.counters.pe_proper_pairs, static_cast<std::uint64_t>(proper));

  // Converse direction: a confidently mapped FR pair within bounds must
  // carry the proper-pair flag.
  for (const auto& [name, p] : pairs) {
    const io::SamRecord& a = *p.r[0];
    const io::SamRecord& b = *p.r[1];
    if (a.flag & io::kFlagProperPair) continue;
    if ((a.flag | b.flag) & io::kFlagUnmapped) continue;
    if (a.mapq < 30 || b.mapq < 30 || a.rname != b.rname) continue;
    if (((a.flag & io::kFlagReverse) != 0) == ((b.flag & io::kFlagReverse) != 0))
      continue;  // not FR
    const auto dist = std::abs(a.tlen) - 1;
    EXPECT_TRUE(dist < run.stats.dir[1].low || dist > run.stats.dir[1].high)
        << name << ": in-bounds unique FR pair not flagged proper";
  }
}

TEST(PairedSam, MateRescueRecoversDamagedMates) {
  // Half the R2 mates carry periodic substitutions (period 12 <
  // min_seed_len 19): SMEM seeding cannot seed them, banded-SW rescue can.
  PairedFixture fx(/*damage_fraction=*/0.5);
  const auto run = align_paired(fx, {});
  const auto& c = run.dstats.counters;
  EXPECT_GT(c.pe_rescue_windows, 0u);
  EXPECT_GT(c.pe_rescue_jobs, 0u);
  EXPECT_GT(c.pe_rescue_hits, 0u);
  EXPECT_GT(c.pe_rescued_pairs, 0u);

  // Rescued mates land on the simulated origin: check R2 primaries.
  int r2_mapped = 0, r2_correct = 0;
  for (const auto& rec : run.records) {
    if (!(rec.flag & io::kFlagRead2)) continue;
    if (rec.flag & (io::kFlagSecondary | io::kFlagSupplementary)) continue;
    if (rec.flag & io::kFlagUnmapped) continue;
    ++r2_mapped;
    const auto truth = seq::parse_pair_truth(rec.qname);
    ASSERT_TRUE(truth.valid) << rec.qname;
    if (rec.rname == truth.contig &&
        std::llabs((rec.pos - 1) - truth.pos2) <= 25 &&
        ((rec.flag & io::kFlagReverse) != 0) == truth.reverse2)
      ++r2_correct;
  }
  EXPECT_GT(r2_mapped, 0);
  // The overwhelming majority of mapped damaged mates are placed right.
  EXPECT_GT(r2_correct, r2_mapped * 8 / 10);

  // Against the single-end run of the same reads, pairing must map more
  // primaries — the rescued mates.
  align::DriverOptions se;
  se.mode = align::Mode::kBatch;
  align::CollectSamSink sink;
  ASSERT_TRUE(align::Aligner(fx.index, se).align(fx.reads, sink).ok());
  int se_mapped = 0, pe_mapped = 0;
  for (const auto& rec : sink.records())
    if (!(rec.flag & (io::kFlagSecondary | io::kFlagSupplementary)) &&
        !(rec.flag & io::kFlagUnmapped))
      ++se_mapped;
  for (const auto& rec : run.records)
    if (!(rec.flag & (io::kFlagSecondary | io::kFlagSupplementary)) &&
        !(rec.flag & io::kFlagUnmapped))
      ++pe_mapped;
  EXPECT_GT(pe_mapped, se_mapped) << "mate rescue should map more reads than SE";
}

TEST(PairedSam, OddReadCountFailsCleanly) {
  PairedFixture fx(0.0, 10);
  align::DriverOptions opt;
  opt.mode = align::Mode::kBatch;
  opt.paired = true;
  align::Aligner aligner(fx.index, opt);
  ASSERT_TRUE(aligner.ok());
  align::CollectSamSink sink;
  align::Stream stream = aligner.open(sink);
  std::vector<seq::Read> odd(fx.reads.begin(), fx.reads.end() - 1);
  ASSERT_TRUE(stream.submit(std::move(odd)).ok());
  const auto st = stream.finish();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("even number of reads"), std::string::npos);
}

TEST(PairedSam, OptionValidation) {
  PairedFixture fx(0.0, 2);
  align::DriverOptions opt;
  opt.paired = true;
  opt.mode = align::Mode::kBaseline;
  EXPECT_FALSE(align::Aligner(fx.index, opt).ok());
  opt.mode = align::Mode::kBatch;
  opt.batch_size = 333;  // odd
  EXPECT_FALSE(align::Aligner(fx.index, opt).ok());
  opt.batch_size = 334;
  EXPECT_TRUE(align::Aligner(fx.index, opt).ok());
}

}  // namespace
}  // namespace mem2
