// Filtered 2-bit rescue scan (pair/rescue_scan.h): RescueScanner must emit
// exactly the anchor set of the reference nested memcmp scan — same
// anchors, same order, same first-per-diagonal and max_anchors saturation
// behavior, same exact-run annotations — for any k, table size, ambiguous
// bases, window edges and probe-cap saturation.
//
// The randomized oracle runs kCases seeded cases; a failure names its case
// seed, and `test_rescue_scan --seed=N` replays exactly that case.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "pair/rescue_scan.h"
#include "util/rng.h"

namespace mem2::pair {
namespace oracle_seed {
// Set by --seed=N: run only that case.
std::uint64_t g_replay = 0;
bool g_have_replay = false;
}  // namespace oracle_seed

namespace {

constexpr std::uint64_t kBaseSeed = 20260727;
constexpr int kCases = 500;

std::vector<seq::Code> random_codes(util::Xoshiro256ss& rng, int len,
                                    double n_prob) {
  std::vector<seq::Code> v(static_cast<std::size_t>(len));
  for (auto& c : v)
    c = rng.chance(n_prob) ? seq::kAmbig
                           : static_cast<seq::Code>(rng.below(4));
  return v;
}

std::vector<RescueAnchor> reference(std::span<const seq::Code> seq,
                                    std::span<const seq::Code> win, int k,
                                    int max_anchors) {
  std::vector<RescueAnchor> out(kMaxRescueAnchors);
  out.resize(static_cast<std::size_t>(
      scan_rescue_anchors(seq, win, k, max_anchors, out.data())));
  return out;
}

std::vector<RescueAnchor> filtered(std::span<const seq::Code> seq,
                                   std::span<const seq::Code> win, int k,
                                   int max_anchors, int hash_bits) {
  RescueScanner scanner;
  scanner.build(seq, k, hash_bits);
  std::vector<RescueAnchor> out(kMaxRescueAnchors);
  out.resize(static_cast<std::size_t>(
      scanner.scan(win, max_anchors, out.data())));
  return out;
}

void expect_same(std::span<const seq::Code> seq, std::span<const seq::Code> win,
                 int k, int max_anchors, int hash_bits,
                 const std::string& what) {
  const auto ref = reference(seq, win, k, max_anchors);
  const auto got = filtered(seq, win, k, max_anchors, hash_bits);
  ASSERT_EQ(got.size(), ref.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got[i].qbeg, ref[i].qbeg) << what << " anchor " << i;
    EXPECT_EQ(got[i].tbeg, ref[i].tbeg) << what << " anchor " << i;
    EXPECT_EQ(got[i].len, ref[i].len) << what << " anchor " << i;
    EXPECT_EQ(got[i].exact_run, ref[i].exact_run) << what << " anchor " << i;
  }
}

/// Runs body(seed) for every case seed (or only the --seed replay), with
/// the seed attached to any failure.
template <class Body>
void for_each_case(Body&& body) {
  const auto one = [&](std::uint64_t seed) {
    SCOPED_TRACE("replay with: test_rescue_scan --seed=" + std::to_string(seed));
    body(seed);
  };
  if (oracle_seed::g_have_replay) {
    one(oracle_seed::g_replay);
    return;
  }
  for (int c = 0; c < kCases && !::testing::Test::HasFailure(); ++c)
    one(kBaseSeed + static_cast<std::uint64_t>(c));
}

/// What one randomized case planted, for the non-vacuity checks.
struct CaseStats {
  bool anchored = false;  // the reference found at least one anchor
  int tail_only = 0;      // planted probes whose head was broken
};

/// One randomized case: k in 4..40 (so k = 32, 33 and 40 exercise the
/// 2-bit tail code's full width and the memcmp of longer probes), windows
/// with N bases, planted mate fragments, and for k > 32 planted probes that
/// match only in their last kRescueTailBases bases — the filter and the
/// tail compare accept them and the memcmp must reject them.  Every
/// hash_bits value runs on the same inputs.
CaseStats run_case(std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  CaseStats st;
  const int k = 4 + static_cast<int>(rng.below(37));           // 4..40
  const int l_seq = static_cast<int>(rng.below(200));          // 0..199
  const int l_win = static_cast<int>(rng.below(500));          // 0..499
  const double n_prob = seed % 3 == 0 ? 0.05 : 0.0;
  const int max_anchors = 1 + static_cast<int>(rng.below(kMaxRescueAnchors));
  auto seq = random_codes(rng, l_seq, n_prob);
  auto win = random_codes(rng, l_win, seed % 2 == 0 ? 0.02 : n_prob);
  // Plant mate fragments in the window so anchors actually occur: copy a
  // few random substrings of seq to random window offsets.
  for (int plant = 0; plant < 3 && l_seq >= k && l_win >= k; ++plant) {
    const int frag = k + static_cast<int>(rng.below(
                             static_cast<std::uint64_t>(l_seq - k + 1)));
    const int from = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(l_seq - frag + 1)));
    if (frag > l_win) continue;
    const int to = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(l_win - frag + 1)));
    std::copy(seq.begin() + from, seq.begin() + from + frag,
              win.begin() + to);
  }
  // Tail-only matches: a whole probe copied in, then one base of its head
  // (the part the tail code does not cover) changed.
  const int n_probe_slots = k > 0 ? l_seq / k : 0;
  for (int plant = 0; plant < 2 && k > kRescueTailBases && n_probe_slots > 0 &&
                      l_win >= k;
       ++plant) {
    const int q0 = k * static_cast<int>(rng.below(static_cast<std::uint64_t>(n_probe_slots)));
    const int to = static_cast<int>(rng.below(static_cast<std::uint64_t>(l_win - k + 1)));
    std::copy(seq.begin() + q0, seq.begin() + q0 + k, win.begin() + to);
    const int head = static_cast<int>(rng.below(static_cast<std::uint64_t>(k - kRescueTailBases)));
    seq::Code& b = win[static_cast<std::size_t>(to + head)];
    b = static_cast<seq::Code>((b + 1 + rng.below(3)) & 3);
    ++st.tail_only;
  }
  st.anchored = !reference(seq, win, k, max_anchors).empty();
  for (int bits = 1; bits <= kMaxRescueHashBits; ++bits)
    expect_same(seq, win, k, max_anchors, bits,
                "k=" + std::to_string(k) + " bits=" + std::to_string(bits));
  return st;
}

TEST(RescueScan, MatchesReferenceOnRandomInputs) {
  int with_anchors = 0, tail_only = 0;
  for_each_case([&](std::uint64_t seed) {
    const CaseStats st = run_case(seed);
    with_anchors += st.anchored;
    tail_only += st.tail_only;
  });
  if (oracle_seed::g_have_replay) return;
  // The planting must make the comparison non-vacuous.
  EXPECT_GT(with_anchors, kCases / 4);
  EXPECT_GT(tail_only, kCases / 10);
}

TEST(RescueScan, TailOnlyMatchIsRejected) {
  // k = 40: a window holding a probe whose last 32 bases match but whose
  // first base does not must yield no anchor there, at every table size.
  util::Xoshiro256ss rng(33);
  const int k = 40;
  auto seq = random_codes(rng, 2 * k, 0.0);
  std::vector<seq::Code> win(200, seq::kAmbig);
  std::copy(seq.begin() + k, seq.begin() + 2 * k, win.begin() + 50);
  win[50] = static_cast<seq::Code>((win[50] + 1) & 3);
  // And an exact copy of probe 0 further on, which must anchor.
  std::copy(seq.begin(), seq.begin() + k, win.begin() + 120);
  const auto ref = reference(seq, win, k, kMaxRescueAnchors);
  ASSERT_EQ(ref.size(), 1u);
  EXPECT_EQ(ref[0].tbeg, 120);
  for (int bits = 1; bits <= kMaxRescueHashBits; ++bits)
    expect_same(seq, win, k, kMaxRescueAnchors, bits,
                "tail-only bits=" + std::to_string(bits));
}

TEST(RescueScan, AnchorsAtWindowEdges) {
  util::Xoshiro256ss rng(7);
  const int k = 11;
  auto seq = random_codes(rng, 101, 0.0);
  // Window starts and ends exactly on probe matches.
  std::vector<seq::Code> win = random_codes(rng, 300, 0.0);
  std::copy(seq.begin(), seq.begin() + k, win.begin());                // t = 0
  std::copy(seq.begin() + k, seq.begin() + 2 * k, win.end() - k);      // t = l_win - k
  const auto ref = reference(seq, win, k, kMaxRescueAnchors);
  ASSERT_GE(ref.size(), 2u);
  EXPECT_EQ(ref.front().tbeg, 0);
  EXPECT_EQ(ref.back().tbeg, static_cast<int>(win.size()) - k);
  for (int bits : {1, 7, kMaxRescueHashBits})
    expect_same(seq, win, k, kMaxRescueAnchors, bits,
                "edges bits=" + std::to_string(bits));
  // A window exactly k long.
  std::vector<seq::Code> tiny(seq.begin(), seq.begin() + k);
  expect_same(seq, tiny, k, kMaxRescueAnchors, 7, "window == k");
  EXPECT_EQ(reference(seq, tiny, k, kMaxRescueAnchors).size(), 1u);
}

TEST(RescueScan, MaxAnchorSaturationStopsAtSamePoint) {
  // A tandem-repeat window where every offset of the repeated probe
  // matches: both scans must cut off at the same saturation anchor.
  util::Xoshiro256ss rng(99);
  const int k = 8;
  auto seq = random_codes(rng, 64, 0.0);
  std::vector<seq::Code> win;
  for (int copies = 0; copies < 40; ++copies)
    win.insert(win.end(), seq.begin(), seq.begin() + k);
  for (int max_anchors : {1, 2, kMaxRescueAnchors, kMaxRescueAnchors + 5}) {
    const auto ref = reference(seq, win, k, max_anchors);
    EXPECT_EQ(static_cast<int>(ref.size()),
              std::min(max_anchors, kMaxRescueAnchors));
    expect_same(seq, win, k, max_anchors, 7,
                "saturation max=" + std::to_string(max_anchors));
  }
}

TEST(RescueScan, AmbiguousBasesNeverAnchor) {
  const int k = 6;
  // seq = one clean probe then one probe with an N (skipped at build).
  std::vector<seq::Code> seq = {0, 1, 2, 3, 0, 1,
                                2, 3, seq::kAmbig, 0, 1, 2};
  // Window contains both probes verbatim: only the clean one may anchor.
  std::vector<seq::Code> win;
  win.insert(win.end(), seq.begin() + 6, seq.begin() + 12);
  win.insert(win.end(), seq.begin(), seq.begin() + 6);
  const auto ref = reference(seq, win, k, kMaxRescueAnchors);
  ASSERT_EQ(ref.size(), 1u);
  EXPECT_EQ(ref[0].qbeg, 0);
  EXPECT_EQ(ref[0].tbeg, 6);
  expect_same(seq, win, k, kMaxRescueAnchors, 7, "ambiguous probes");

  // An N inside the window terminates exact runs but never matches.
  std::vector<seq::Code> win2(seq.begin(), seq.begin() + 6);
  win2.push_back(seq::kAmbig);
  win2.insert(win2.end(), seq.begin(), seq.begin() + 6);
  expect_same(seq, win2, k, kMaxRescueAnchors, 7, "ambiguous window");
}

TEST(RescueScan, ProbeCapIsBoundedAndShared) {
  // 600 bases at k = 4 offers 150 candidate probes; both scans must cap at
  // kMaxRescueProbes and still agree.
  util::Xoshiro256ss rng(4242);
  const int k = 4;
  auto seq = random_codes(rng, 600, 0.0);
  RescueScanner scanner;
  scanner.build(seq, k, 7);
  EXPECT_EQ(scanner.probe_count(), kMaxRescueProbes);
  static_assert(kMaxRescueProbes >= kMaxRescueAnchors,
                "probe cap must not undercut the anchor bound");

  // An all-N window (no incidental 4-mer matches) with planted matches for
  // probes on both sides of the cap: probe 10 (inside) and the k-mer at
  // query offset kMaxRescueProbes * k (beyond the cap — the reference must
  // ignore it too).
  std::vector<seq::Code> win(400, seq::kAmbig);
  std::copy(seq.begin() + 10 * k, seq.begin() + 11 * k, win.begin() + 50);
  std::copy(seq.begin() + kMaxRescueProbes * k,
            seq.begin() + (kMaxRescueProbes + 1) * k, win.begin() + 100);
  const auto ref = reference(seq, win, k, kMaxRescueAnchors);
  bool saw_capped_probe = false;
  for (const auto& an : ref) {
    EXPECT_LT(an.qbeg, kMaxRescueProbes * k) << "probe beyond the cap anchored";
    saw_capped_probe |= an.qbeg == 10 * k;
  }
  EXPECT_TRUE(saw_capped_probe);
  expect_same(seq, win, k, kMaxRescueAnchors, 7, "probe cap");
}

TEST(RescueScan, ExactRunAnnotations) {
  const int k = 5;
  // seq: 15 bases; window embeds bases [5, 10) with 3 matching bases on the
  // left and 2 on the right, then a mismatch on each side.
  util::Xoshiro256ss rng(1);
  auto seq = random_codes(rng, 15, 0.0);
  std::vector<seq::Code> win(20, seq::kAmbig);
  for (int j = 0; j < 3; ++j) win[static_cast<std::size_t>(4 + j)] = seq[static_cast<std::size_t>(2 + j)];
  for (int j = 0; j < k; ++j) win[static_cast<std::size_t>(7 + j)] = seq[static_cast<std::size_t>(5 + j)];
  for (int j = 0; j < 2; ++j) win[static_cast<std::size_t>(12 + j)] = seq[static_cast<std::size_t>(10 + j)];
  const auto ref = reference(seq, win, k, kMaxRescueAnchors);
  ASSERT_EQ(ref.size(), 1u);
  EXPECT_EQ(ref[0].qbeg, 5);
  EXPECT_EQ(ref[0].tbeg, 7);
  EXPECT_EQ(ref[0].exact_run, k + 3 + 2);
  expect_same(seq, win, k, kMaxRescueAnchors, 7, "exact runs");
}

TEST(RescueScan, DegenerateInputs) {
  util::Xoshiro256ss rng(3);
  auto seq = random_codes(rng, 30, 0.0);
  auto win = random_codes(rng, 30, 0.0);
  RescueAnchor out[kMaxRescueAnchors];
  RescueScanner scanner;
  // k longer than the sequence, empty windows, k = 0.
  scanner.build(seq, 40, 7);
  EXPECT_EQ(scanner.probe_count(), 0);
  EXPECT_EQ(scanner.scan(win, kMaxRescueAnchors, out), 0);
  EXPECT_EQ(scan_rescue_anchors(seq, win, 40, kMaxRescueAnchors, out), 0);
  scanner.build(seq, 0, 7);
  EXPECT_EQ(scanner.scan(win, kMaxRescueAnchors, out), 0);
  EXPECT_EQ(scan_rescue_anchors(seq, win, 0, kMaxRescueAnchors, out), 0);
  scanner.build(seq, 11, 7);
  EXPECT_EQ(scanner.scan(std::span<const seq::Code>(), kMaxRescueAnchors, out), 0);
  // Window shorter than k.
  std::vector<seq::Code> shorty(seq.begin(), seq.begin() + 5);
  EXPECT_EQ(scanner.scan(shorty, kMaxRescueAnchors, out), 0);
  EXPECT_EQ(scan_rescue_anchors(seq, shorty, 11, kMaxRescueAnchors, out), 0);
  // All-ambiguous sequence has no probes.
  std::vector<seq::Code> ns(60, seq::kAmbig);
  scanner.build(ns, 11, 7);
  EXPECT_EQ(scanner.probe_count(), 0);
  EXPECT_EQ(scanner.scan(win, kMaxRescueAnchors, out), 0);
}

}  // namespace
}  // namespace mem2::pair

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--seed=", 0) == 0) {
      mem2::pair::oracle_seed::g_replay = std::strtoull(argv[i] + 7, nullptr, 0);
      mem2::pair::oracle_seed::g_have_replay = true;
      std::printf("replaying case seed %llu\n",
                  static_cast<unsigned long long>(mem2::pair::oracle_seed::g_replay));
    }
  }
  return RUN_ALL_TESTS();
}
