// Randomized differential test: every inter-task BSW engine the host runs
// (scalar/avx2/avx512 x 8/16-bit) against ksw_extend_scalar, the oracle.
//
// Each case draws a job shape, scoring parameters and a chunk split from
// its seed; a failure names the seed, and `test_bsw_oracle --seed=N` replays
// exactly that case.  The shapes aim at what the fixed-seed test_bsw_simd
// pools miss: 8-bit targets longer than 255 rows, qlen 254 and an 8-bit
// peak of exactly 255, chunks of 1 and W-1 jobs, every lane aborting on
// row 0, z-drop in some lanes while others extend, w = 1, all-N sequences,
// and extreme KswParams.  Besides the results, the engines must agree with
// the oracle on bsw_pairs, bsw_cells_useful and bsw_aborted_pairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bsw/bsw_engine.h"
#include "seq/dna.h"
#include "util/rng.h"
#include "util/sw_counters.h"

namespace mem2::bsw {
namespace oracle_seed {
// Set by --seed=N: run only that case.
std::uint64_t g_replay = 0;
bool g_have_replay = false;
}  // namespace oracle_seed

namespace {

constexpr int kCases = 240;
constexpr std::uint64_t kBaseSeed = 20261017;

int pick(util::Xoshiro256ss& rng, int lo, int hi) {  // [lo, hi]
  return lo + static_cast<int>(rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
}

seq::Code base(util::Xoshiro256ss& rng) { return static_cast<seq::Code>(rng.below(4)); }

enum Shape {
  kMixed,         // chain2aln-like: mutated copies, mixed lengths, some N
  kLongTarget,    // an insertion puts the 8-bit best cell past row 255
  kQlen254,       // qlen 254, one below the 8-bit lane limit (runs 16-bit)
  kPeak255,       // perfect matches whose peak is exactly 255 (8-bit limit)
  kRowZeroAbort,  // every lane dies on row 0
  kZdropSplit,    // half the lanes extend, half hit junk and z-drop
  kNarrowOrN,     // w = 1, all-N queries and targets
  kShapes
};

const char* shape_name(int s) {
  static const char* const names[] = {"mixed",     "long-target", "qlen-254",  "peak-255",
                                      "row0-abort", "zdrop-split", "narrow-or-N"};
  return names[s];
}

struct Case {
  int shape = kMixed;
  KswParams p;
  std::vector<std::vector<seq::Code>> seqs;  // owns query/target storage
  std::vector<ExtendJob> jobs;

  void add(std::vector<seq::Code> q, std::vector<seq::Code> t, int h0, int w) {
    seqs.push_back(std::move(q));
    seqs.push_back(std::move(t));
    const auto& qs = seqs[seqs.size() - 2];
    const auto& ts = seqs.back();
    jobs.push_back(ExtendJob{qs.data(), static_cast<int>(qs.size()), ts.data(),
                             static_cast<int>(ts.size()), h0, w});
  }
};

/// Mostly bwa defaults; one case in four gets extreme gap, z-drop and
/// end-bonus values within what align::validate_options accepts (positive
/// a, b and gap extensions, non-negative gap opens).
KswParams random_params(util::Xoshiro256ss& rng) {
  KswParams p;
  if (rng.chance(0.75)) {
    if (rng.chance(0.3)) p.zdrop = pick(rng, 0, 3) == 0 ? 0 : pick(rng, 1, 150);
    return p;
  }
  p.a = pick(rng, 1, 3);
  p.b = pick(rng, 1, 9);
  p.o_del = pick(rng, 0, 300);
  p.e_del = rng.chance(0.5) ? pick(rng, 1, 3) : pick(rng, 50, 400);
  p.o_ins = pick(rng, 0, 300);
  p.e_ins = rng.chance(0.5) ? pick(rng, 1, 3) : pick(rng, 50, 400);
  const int z = pick(rng, 0, 3);
  p.zdrop = z == 0 ? 0 : z == 1 ? 1 : z == 2 ? pick(rng, 2, 60) : pick(rng, 200, 5000);
  p.end_bonus = rng.chance(0.5) ? pick(rng, 0, 10) : pick(rng, 100, 1000);
  return p;
}

std::vector<seq::Code> mutate(util::Xoshiro256ss& rng, const std::vector<seq::Code>& q,
                              double rate) {
  std::vector<seq::Code> t;
  for (const auto c : q) {
    if (rng.chance(rate / 4)) continue;
    if (rng.chance(rate / 4)) t.push_back(base(rng));
    t.push_back(rng.chance(rate) ? base(rng) : c);
  }
  if (t.empty()) t.push_back(base(rng));
  return t;
}

std::vector<seq::Code> random_seq(util::Xoshiro256ss& rng, int len) {
  std::vector<seq::Code> s(static_cast<std::size_t>(len));
  for (auto& c : s) c = base(rng);
  return s;
}

Case make_case(std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  Case c;
  c.shape = static_cast<int>(seed % kShapes);
  c.p = random_params(rng);
  const bool long_jobs = c.shape == kLongTarget || c.shape == kQlen254;
  const int n = pick(rng, 1, long_jobs ? 16 : 80);
  for (int k = 0; k < n; ++k) {
    switch (c.shape) {
      case kMixed: {
        auto q = random_seq(rng, pick(rng, 1, 160));
        auto t = mutate(rng, q, 0.02 + 0.2 * rng.uniform());
        for (int e = pick(rng, 0, 20); e > 0; --e) t.push_back(base(rng));
        if (rng.chance(0.2)) q[rng.below(q.size())] = seq::kAmbig;
        if (rng.chance(0.2)) t[rng.below(t.size())] = seq::kAmbig;
        c.add(std::move(q), std::move(t), pick(rng, 1, 60), pick(rng, 0, 120));
        break;
      }
      case kLongTarget: {
        // Default scoring, peak 255: a query whose target carries a K-base
        // insertion that the extension bridges, so the best cell (tle) lies
        // past row 255 while the job still runs on the 8-bit engine.
        const int len = pick(rng, 185, 200), ins = pick(rng, 75, 85), h0 = 250 - len;
        const int split = pick(rng, ins + 10 - h0, len - ins - 10);
        auto q = random_seq(rng, len);
        std::vector<seq::Code> t(q.begin(), q.begin() + split);
        for (int e = 0; e < ins; ++e) t.push_back(base(rng));
        t.insert(t.end(), q.begin() + split, q.end());
        for (int e = pick(rng, 0, 300); e > 0; --e) t.push_back(base(rng));
        c.add(std::move(q), std::move(t), h0, pick(rng, ins + 10, 200));
        break;
      }
      case kQlen254: {
        auto q = random_seq(rng, rng.chance(0.5) ? 254 : pick(rng, 200, 260));
        auto t = mutate(rng, q, 0.03);
        c.add(std::move(q), std::move(t), pick(rng, 1, 40), pick(rng, 1, 300));
        break;
      }
      case kPeak255: {
        // h0 + qlen*a + a + max(b,1) == 255 exactly; exact copies reach the
        // peak score h0 + qlen*a.
        const int qlen = pick(rng, 1, 240 / c.p.a);
        const int h0 = 255 - qlen * c.p.a - c.p.a - std::max(c.p.b, 1);
        if (h0 < 1) {
          c.add(random_seq(rng, 5), random_seq(rng, 5), 1, 5);
          break;
        }
        auto q = random_seq(rng, qlen);
        auto t = rng.chance(0.7) ? q : mutate(rng, q, 0.05);
        c.add(std::move(q), std::move(t), h0, pick(rng, 1, 300));
        break;
      }
      case kRowZeroAbort: {
        // Query of one base, target opening with another: row 0 scores zero
        // in every column once h0 cannot pay for the first gap.
        const seq::Code b = base(rng);
        std::vector<seq::Code> q(static_cast<std::size_t>(pick(rng, 1, 100)), b);
        auto t = random_seq(rng, pick(rng, 1, 100));
        t[0] = static_cast<seq::Code>((b + 1) % 4);
        c.add(std::move(q), std::move(t), 1, pick(rng, 1, 100));
        break;
      }
      case kZdropSplit: {
        auto q = random_seq(rng, pick(rng, 30, 150));
        std::vector<seq::Code> t;
        if (k % 2 == 0) {
          t = q;  // extends to the end
        } else {
          const int keep = pick(rng, 5, static_cast<int>(q.size()) / 2);
          t.assign(q.begin(), q.begin() + keep);
          for (int e = pick(rng, 40, 200); e > 0; --e) t.push_back(base(rng));
        }
        c.add(std::move(q), std::move(t), pick(rng, 5, 40), pick(rng, 10, 120));
        break;
      }
      default: {  // kNarrowOrN
        auto q = random_seq(rng, pick(rng, 1, 120));
        auto t = mutate(rng, q, 0.05);
        if (rng.chance(0.4)) std::fill(q.begin(), q.end(), seq::kAmbig);
        if (rng.chance(0.4)) std::fill(t.begin(), t.end(), seq::kAmbig);
        c.add(std::move(q), std::move(t), pick(rng, 1, 60), rng.chance(0.6) ? 1 : pick(rng, 0, 3));
        break;
      }
    }
  }
  if (c.shape == kZdropSplit && c.p.zdrop <= 0) c.p.zdrop = pick(rng, 1, 40);
  if (c.shape == kLongTarget) c.p = KswParams{};
  return c;
}

struct Counts {
  std::uint64_t pairs = 0, useful = 0, aborted = 0, total = 0;
};

Counts counts_since(const util::SwCounters& before) {
  const util::SwCounters& now = util::tls_counters();
  return Counts{now.bsw_pairs - before.bsw_pairs, now.bsw_cells_useful - before.bsw_cells_useful,
                now.bsw_aborted_pairs - before.bsw_aborted_pairs,
                now.bsw_cells_total - before.bsw_cells_total};
}

struct HostEngine {
  BswEngine engine;
  Precision prec;
};

/// Every engine this CPU can run: (isa, precision) pairs up to detect_isa().
std::vector<HostEngine> host_engines() {
  std::vector<HostEngine> engines;
  for (util::Isa isa : {util::Isa::kScalar, util::Isa::kAvx2, util::Isa::kAvx512})
    if (isa <= util::detect_isa())
      for (Precision prec : {Precision::k8bit, Precision::k16bit})
        engines.push_back({get_engine(isa, prec), prec});
  return engines;
}

/// Chunk sizes for n jobs on a width-w engine: 1 and w-1 first (partial
/// chunks), then random sizes up to w.
std::vector<int> chunk_split(util::Xoshiro256ss& rng, std::size_t n, int w) {
  std::vector<int> sizes;
  std::size_t left = n;
  for (int first : {1, std::max(1, w - 1)}) {
    if (left == 0) break;
    const int s = static_cast<int>(std::min<std::size_t>(left, static_cast<std::size_t>(first)));
    sizes.push_back(s);
    left -= static_cast<std::size_t>(s);
  }
  while (left > 0) {
    const int s = static_cast<int>(
        std::min<std::size_t>(left, static_cast<std::size_t>(pick(rng, 1, w))));
    sizes.push_back(s);
    left -= static_cast<std::size_t>(s);
  }
  return sizes;
}

/// The oracle's result and counter deltas for every job of a case.
struct Oracle {
  std::vector<KswResult> result;
  std::vector<Counts> counts;

  explicit Oracle(const Case& c) {
    for (const ExtendJob& j : c.jobs) {
      const util::SwCounters before = util::tls_counters();
      result.push_back(ksw_extend_scalar(j, c.p));
      counts.push_back(counts_since(before));
    }
  }
};

void check_engine(const HostEngine& he, const Case& c, const Oracle& oracle_all,
                  std::uint64_t seed) {
  const BswEngine& engine = he.engine;
  SCOPED_TRACE(std::string(engine.name) + " shape " + shape_name(c.shape));
  std::vector<ExtendJob> jobs;
  std::vector<KswResult> want;
  Counts oracle;
  for (std::size_t i = 0; i < c.jobs.size(); ++i) {
    if (he.prec == Precision::k8bit && !fits_8bit(c.jobs[i], c.p)) continue;
    jobs.push_back(c.jobs[i]);
    want.push_back(oracle_all.result[i]);
    oracle.pairs += oracle_all.counts[i].pairs;
    oracle.useful += oracle_all.counts[i].useful;
    oracle.aborted += oracle_all.counts[i].aborted;
  }
  if (jobs.empty()) return;

  util::Xoshiro256ss rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<KswResult> got(jobs.size());
  const util::SwCounters before = util::tls_counters();
  std::size_t pos = 0;
  for (int n : chunk_split(rng, jobs.size(), engine.width)) {
    engine.run(&jobs[pos], &got[pos], n, c.p, nullptr);
    pos += static_cast<std::size_t>(n);
  }
  const Counts simd = counts_since(before);

  for (std::size_t i = 0; i < jobs.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "job " << i << " qlen=" << jobs[i].qlen
                               << " tlen=" << jobs[i].tlen << " h0=" << jobs[i].h0
                               << " w=" << jobs[i].w;
  EXPECT_EQ(simd.pairs, oracle.pairs);
  EXPECT_EQ(simd.useful, oracle.useful);
  EXPECT_EQ(simd.aborted, oracle.aborted);
  // Computed cells differ by engine width: whole registers per column.
  EXPECT_EQ(simd.total % static_cast<std::uint64_t>(engine.width), 0u);
  EXPECT_GE(simd.total, simd.useful);
}

/// Runs body(seed) for every case seed (or only the --seed replay), with
/// the seed attached to any failure.
template <class Body>
void for_each_case(Body&& body) {
  const auto one = [&](std::uint64_t seed) {
    SCOPED_TRACE("replay with: test_bsw_oracle --seed=" + std::to_string(seed));
    body(seed);
  };
  if (oracle_seed::g_have_replay) {
    one(oracle_seed::g_replay);
    return;
  }
  for (int k = 0; k < kCases && !::testing::Test::HasFailure(); ++k)
    one(kBaseSeed + static_cast<std::uint64_t>(k));
}

TEST(BswOracle, EveryEngineMatchesScalarKsw) {
  const auto engines = host_engines();
  for_each_case([&](std::uint64_t seed) {
    const Case c = make_case(seed);
    const Oracle oracle(c);
    for (const HostEngine& e : engines) check_engine(e, c, oracle, seed);
  });
}

TEST(BswOracle, ShapesReachTheirEdges) {
  // The generators must actually produce the edges they are named for.
  if (oracle_seed::g_have_replay) GTEST_SKIP() << "replaying one case";
  int long_8bit = 0, peak_255 = 0, qlen_254 = 0, all_abort = 0;
  for (int k = 0; k < kCases; ++k) {
    const Case c = make_case(kBaseSeed + static_cast<std::uint64_t>(k));
    for (const ExtendJob& j : c.jobs) {
      const bool fits = fits_8bit(j, c.p);
      long_8bit += fits && j.tlen > 255 && ksw_extend_scalar(j, c.p).tle > 255;
      peak_255 += fits && j.h0 + j.qlen * c.p.a + c.p.a + std::max(c.p.b, 1) == 255;
      qlen_254 += j.qlen == 254;
    }
    if (c.shape == kRowZeroAbort) {
      util::SwCounters before = util::tls_counters();
      for (const ExtendJob& j : c.jobs) ksw_extend_scalar(j, c.p);
      const Counts n = counts_since(before);
      all_abort += n.aborted == n.pairs;
    }
  }
  EXPECT_GT(long_8bit, 0);
  EXPECT_GT(peak_255, 0);
  EXPECT_GT(qlen_254, 0);
  EXPECT_GT(all_abort, 0);
}

}  // namespace
}  // namespace mem2::bsw

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--seed=", 0) == 0) {
      mem2::bsw::oracle_seed::g_replay = std::strtoull(argv[i] + 7, nullptr, 0);
      mem2::bsw::oracle_seed::g_have_replay = true;
      std::printf("replaying case seed %llu\n",
                  static_cast<unsigned long long>(mem2::bsw::oracle_seed::g_replay));
    }
  }
  std::printf("engines run:");
  for (const auto& e : mem2::bsw::host_engines()) std::printf(" %s", e.engine.name);
  std::printf("\nengines skipped (ISA above %s):", mem2::util::isa_name(mem2::util::detect_isa()));
  for (mem2::util::Isa isa : {mem2::util::Isa::kAvx2, mem2::util::Isa::kAvx512})
    if (isa > mem2::util::detect_isa()) std::printf(" %s-8bit %s-16bit", mem2::util::isa_name(isa),
                                                     mem2::util::isa_name(isa));
  std::printf("\n");
  return RUN_ALL_TESTS();
}
