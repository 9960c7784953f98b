// FM-index invariants: occ backends vs naive counting, CP128 == CP32,
// backward/forward extension vs brute-force substring search over the
// doubled text, bucket layout static properties, and a seeded property test
// of the one-base steps against the four-base extensions (a failure names
// its case seed; `test_fm_index --seed=N` replays exactly that case).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "index/bwt.h"
#include "index/fm_index.h"
#include "index/sais.h"
#include "seq/genome_sim.h"
#include "util/rng.h"

namespace mem2::index {
namespace step_seed {
// Set by --seed=N: run only that case.
std::uint64_t g_replay = 0;
bool g_have_replay = false;
}  // namespace step_seed

namespace {

struct Fixture {
  std::vector<seq::Code> ref;   // forward strand
  std::vector<seq::Code> text;  // ref + revcomp(ref)
  std::vector<idx_t> sa;
  BwtData bwt;
  FmIndexCp128 fm128;
  FmIndexCp32 fm32;

  explicit Fixture(std::int64_t len, std::uint64_t seed) {
    const auto genome = seq::random_genome(len, seed);
    ref.resize(static_cast<std::size_t>(genome.length()));
    genome.pac().extract(0, ref.size(), ref.data());
    text = with_reverse_complement(ref);
    sa = build_suffix_array(text);
    bwt = derive_bwt(text, sa);
    fm128.build(bwt);
    fm128.store_raw_bwt(bwt);
    fm32.build(bwt);
  }

  // Number of occurrences of pattern in text (exact, forward only).
  int count_occurrences(const std::vector<seq::Code>& pat) const {
    if (pat.empty()) return static_cast<int>(text.size()) + 1;
    int n = 0;
    for (std::size_t s = 0; s + pat.size() <= text.size(); ++s) {
      bool ok = true;
      for (std::size_t d = 0; d < pat.size() && ok; ++d)
        ok = text[s + d] == pat[d];
      n += ok;
    }
    return n;
  }
};

TEST(OccLayout, Cp32BucketIsOneCacheLine) {
  EXPECT_EQ(sizeof(OccCp32::Bucket), 64u);
  EXPECT_EQ(alignof(OccCp32::Bucket), 64u);
  EXPECT_EQ(OccCp32::kBucket, 32);
  EXPECT_EQ(sizeof(OccCp128::Bucket), 64u);
  EXPECT_EQ(OccCp128::kBucket, 128);
}

TEST(Occ, BackendsMatchNaiveCounting) {
  Fixture fx(2000, 3);
  const auto& bwtv = fx.bwt.bwt;
  // Naive prefix counts.
  std::vector<std::array<idx_t, 4>> prefix(bwtv.size() + 1, {0, 0, 0, 0});
  for (std::size_t j = 0; j < bwtv.size(); ++j) {
    prefix[j + 1] = prefix[j];
    ++prefix[j + 1][bwtv[j]];
  }
  OccCp128 occ128(bwtv);
  OccCp32 occ32(bwtv);
  util::Xoshiro256ss rng(5);
  for (int t = 0; t < 3000; ++t) {
    const idx_t j = static_cast<idx_t>(rng.below(bwtv.size() + 1));
    for (int c = 0; c < 4; ++c) {
      ASSERT_EQ(occ128.occ(c, j), prefix[static_cast<std::size_t>(j)][static_cast<std::size_t>(c)])
          << "cp128 j=" << j << " c=" << c;
      ASSERT_EQ(occ32.occ(c, j), prefix[static_cast<std::size_t>(j)][static_cast<std::size_t>(c)])
          << "cp32 j=" << j << " c=" << c;
    }
    idx_t o128[4], o32[4];
    occ128.occ4(j, o128);
    occ32.occ4(j, o32);
    for (int c = 0; c < 4; ++c) {
      ASSERT_EQ(o128[c], prefix[static_cast<std::size_t>(j)][static_cast<std::size_t>(c)]);
      ASSERT_EQ(o32[c], prefix[static_cast<std::size_t>(j)][static_cast<std::size_t>(c)]);
    }
  }
}

TEST(Occ, Cp32ScalarMatchesAvx2) {
  if (util::detect_isa() < util::Isa::kAvx2) GTEST_SKIP() << "no AVX2";
  Fixture fx(1000, 17);
  OccCp32 occ(fx.bwt.bwt);
  for (idx_t j = 0; j <= static_cast<idx_t>(fx.bwt.bwt.size()); ++j) {
    const auto* bkt = &occ.buckets()[static_cast<std::size_t>(j >> OccCp32::kBucketShift)];
    const int y = static_cast<int>(j & (OccCp32::kBucket - 1));
    for (int c = 0; c < 4; ++c)
      ASSERT_EQ(OccCp32::occ_in_bucket_scalar(bkt, c, y),
                OccCp32::occ_in_bucket_avx2(bkt, c, y))
          << "j=" << j << " c=" << c;
  }
}

TEST(FmIndex, SingleBaseIntervalsCoverAllRows) {
  Fixture fx(500, 23);
  idx_t covered = 1;  // the sentinel row
  for (int c = 0; c < 4; ++c) {
    const BiInterval bi = fx.fm128.set_intv(c);
    covered += bi.s;
    EXPECT_EQ(bi.k, fx.fm128.cum(c));
    // Palindromic text: count(c) == count(comp(c)), so the l-side interval
    // has the same size by construction.
    EXPECT_EQ(bi.l, fx.fm128.cum(3 - c));
  }
  EXPECT_EQ(covered, fx.fm128.seq_len() + 1);
}

// Walk a random query with backward extension; at every step the interval
// size must equal the brute-force occurrence count and the l-interval must
// be the interval of the reverse complement.
class FmExtensionTest : public ::testing::TestWithParam<int> {};

TEST_P(FmExtensionTest, BackwardExtensionMatchesBruteForce) {
  Fixture fx(800, 29u + static_cast<unsigned>(GetParam()));
  util::Xoshiro256ss rng(static_cast<std::uint64_t>(GetParam()));

  for (int trial = 0; trial < 20; ++trial) {
    // Random pattern, extended backward base by base.
    const int max_len = 12;
    std::vector<seq::Code> pat;
    int c0 = static_cast<int>(rng.below(4));
    BiInterval bi128 = fx.fm128.set_intv(c0);
    BiInterval bi32 = fx.fm32.set_intv(c0);
    pat.insert(pat.begin(), static_cast<seq::Code>(c0));

    for (int step = 0; step < max_len; ++step) {
      ASSERT_EQ(bi128, bi32);
      ASSERT_EQ(bi128.s, fx.count_occurrences(pat));
      // l side: interval of revcomp(pat).
      const auto rc = seq::reverse_complement(pat);
      ASSERT_EQ(bi128.s, fx.count_occurrences(rc));

      const int b = static_cast<int>(rng.below(4));
      BiInterval ok128[4], ok32[4];
      fx.fm128.backward_ext(bi128, ok128);
      fx.fm32.backward_ext(bi32, ok32);
      for (int c = 0; c < 4; ++c) ASSERT_EQ(ok128[c], ok32[c]);
      pat.insert(pat.begin(), static_cast<seq::Code>(b));
      bi128 = ok128[b];
      bi32 = ok32[b];
      if (bi128.s == 0) {
        ASSERT_EQ(fx.count_occurrences(pat), 0);
        break;
      }
    }
  }
}

TEST_P(FmExtensionTest, ForwardExtensionMatchesBruteForce) {
  Fixture fx(800, 31u + static_cast<unsigned>(GetParam()));
  util::Xoshiro256ss rng(97u + static_cast<std::uint64_t>(GetParam()));

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<seq::Code> pat;
    const int c0 = static_cast<int>(rng.below(4));
    BiInterval bi = fx.fm32.set_intv(c0);
    pat.push_back(static_cast<seq::Code>(c0));

    for (int step = 0; step < 12; ++step) {
      ASSERT_EQ(bi.s, fx.count_occurrences(pat)) << "len=" << pat.size();
      const int b = static_cast<int>(rng.below(4));
      BiInterval ok[4];
      fx.fm32.forward_ext(bi, ok);
      pat.push_back(static_cast<seq::Code>(b));
      bi = ok[b];
      if (bi.s == 0) {
        ASSERT_EQ(fx.count_occurrences(pat), 0);
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FmExtensionTest, ::testing::Range(0, 8));

TEST(FmIndex, LfStepWalksTextBackwards) {
  Fixture fx(300, 41);
  // Row r corresponds to suffix sa[r]; lf_step(r) must be the row of
  // suffix sa[r]-1 (wrapping the sentinel to row 0).
  std::vector<idx_t> row_of(fx.sa.size());
  for (std::size_t r = 0; r < fx.sa.size(); ++r)
    row_of[static_cast<std::size_t>(fx.sa[r])] = static_cast<idx_t>(r);

  for (std::size_t r = 0; r < fx.sa.size(); ++r) {
    const idx_t pos = fx.sa[r];
    const idx_t expect = pos == 0 ? 0 : row_of[static_cast<std::size_t>(pos - 1)];
    ASSERT_EQ(fx.fm128.lf_step(static_cast<idx_t>(r)), expect) << "row " << r;
  }
}

// ---------------------------------------------- one-base step property test

constexpr int kStepCases = 120;
constexpr std::uint64_t kStepBaseSeed = 0x5e9a11;

/// backward_ext1 / forward_ext1 against backward_ext(in)[c] /
/// forward_ext(in)[c] for every c on one interval.
template <class Fm>
void check_steps(const Fm& fm, const BiInterval& in) {
  SCOPED_TRACE(std::string(Fm::occ_type::name()) + " k=" + std::to_string(in.k) +
               " l=" + std::to_string(in.l) + " s=" + std::to_string(in.s) +
               " primary=" + std::to_string(fm.primary()) +
               " N=" + std::to_string(fm.seq_len()));
  BiInterval back[4], fwd[4];
  fm.backward_ext(in, back);
  fm.forward_ext(in, fwd);
  for (int c = 0; c < 4; ++c) {
    ASSERT_EQ(fm.backward_ext1(in, c), back[c]) << "c=" << c;
    ASSERT_EQ(fm.forward_ext1(in, c), fwd[c]) << "c=" << c;
  }
}

/// One case: a random genome (its length decides how full the last bucket
/// of each backend is), then random intervals and the edge cases on both
/// backends.  Rows run 0..N; an interval [k, k+s-1] reads rows k-1 and
/// k+s-1, so k = 0 reads row -1.
void step_case(std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  Fixture fx(static_cast<std::int64_t>(20 + rng.below(1500)), seed);
  const idx_t n = fx.fm32.seq_len();
  const idx_t primary = fx.fm32.primary();
  auto below = [&](idx_t m) {
    return static_cast<idx_t>(rng.below(static_cast<std::uint64_t>(m)));
  };
  // k in [0, N+1] and s in [0, N+1-k]; l is opaque to the step but kept in
  // range so the result stays a valid interval.
  auto with = [&](idx_t k, idx_t s) { return BiInterval{k, below(n + 2 - s), s}; };

  std::vector<BiInterval> cases;
  for (int t = 0; t < 60; ++t) {
    const idx_t k = below(n + 2);
    cases.push_back(with(k, below(n + 2 - k)));
  }
  for (const idx_t s : {idx_t{0}, idx_t{1}, below(n + 2)}) cases.push_back(with(0, s));
  for (int t = 0; t < 8; ++t) {
    cases.push_back(with(below(n + 2), 0));
    cases.push_back(with(below(n + 1), 1));
    const idx_t k = below(primary + 1);  // spans the primary (sentinel) row
    cases.push_back(with(k, primary - k + 1 + below(n + 1 - primary)));
  }
  cases.push_back(with(primary, 1));  // the primary row alone
  cases.push_back(fx.fm32.full_interval());
  // Rows in the last, partial bucket of either backend (its positions past
  // the text are zero padding that the prefix mask must drop).
  for (const idx_t bucket : {idx_t{OccCp32::kBucket}, idx_t{OccCp128::kBucket}}) {
    const idx_t first = std::max<idx_t>(1, n - n % bucket);
    for (int t = 0; t < 6; ++t) {
      const idx_t k = first + below(n + 2 - first);
      cases.push_back(with(k, below(n + 2 - k)));
    }
    cases.push_back(with(first, n + 1 - first));  // ends at row N
  }

  for (const BiInterval& in : cases) {
    ASSERT_LE(in.k + in.s, n + 1);
    ASSERT_NO_FATAL_FAILURE(check_steps(fx.fm32, in));
    ASSERT_NO_FATAL_FAILURE(check_steps(fx.fm128, in));
  }
}

TEST(FmIndex, OneBaseStepsMatchFourBaseExtensions) {
  const auto one = [](std::uint64_t seed) {
    SCOPED_TRACE("replay with: test_fm_index --seed=" + std::to_string(seed));
    step_case(seed);
  };
  if (step_seed::g_have_replay) {
    one(step_seed::g_replay);
    return;
  }
  for (int k = 0; k < kStepCases && !::testing::Test::HasFailure(); ++k)
    one(kStepBaseSeed + static_cast<std::uint64_t>(k));
}

}  // namespace
}  // namespace mem2::index

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--seed=", 0) == 0) {
      mem2::index::step_seed::g_replay = std::strtoull(argv[i] + 7, nullptr, 0);
      mem2::index::step_seed::g_have_replay = true;
      std::printf("replaying case seed %llu\n",
                  static_cast<unsigned long long>(mem2::index::step_seed::g_replay));
    }
  }
  return RUN_ALL_TESTS();
}
