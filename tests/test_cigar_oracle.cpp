// Differential tests for SAM CIGAR formation: bsw::ksw_global's band-only
// traceback and align::region_to_aln's gapless shortcut against the
// full-matrix ksw_global they replaced, kept below verbatim as the oracle,
// driven through the bwa mem_reg2aln band-retry loop as region_to_aln ran
// it before the shortcut.
//
// Every property runs kCases seeded cases; a failure names its case seed,
// and `test_cigar_oracle --seed=N` replays exactly that case.  Shapes:
// equal-length segments with 0-6 substitutions (which land on both sides of
// the shortcut bound), segments with indels, query N bases, non-default
// KswParams, and bands from 0 to 4w; regions sit on both strands.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "align/sam_format.h"
#include "bsw/ksw.h"
#include "index/mem2_index.h"
#include "seq/genome_sim.h"
#include "util/rng.h"
#include "util/sw_counters.h"

namespace mem2 {
namespace oracle_seed {
// Set by --seed=N: run only that case.
std::uint64_t g_replay = 0;
bool g_have_replay = false;
}  // namespace oracle_seed

namespace oracle {

using bsw::Cigar;
using bsw::KswParams;

// ---- ksw_global.cpp before the band-only traceback, verbatim ----
constexpr std::int32_t kNegInf = std::numeric_limits<std::int32_t>::min() / 2;

// Traceback codes for H, plus extension flags for E/D and F/I chains.
enum : std::uint8_t {
  kFromDiag = 0,
  kFromDel = 1,  // H came from E (gap in query / deletion)
  kFromIns = 2,  // H came from F (gap in target / insertion)
  kHMask = 3,
  kDelExt = 4,  // E extended (stay in deletion state)
  kInsExt = 8,  // F extended (stay in insertion state)
};

void push_op(Cigar& cigar, char op, int len) {
  if (len <= 0) return;
  if (!cigar.empty() && cigar.back().op == op)
    cigar.back().len += len;
  else
    cigar.push_back({op, len});
}

int ksw_global_full(const seq::Code* query, int qlen, const seq::Code* target,
               int tlen, const KswParams& p, int w, Cigar& cigar) {
  cigar.clear();
  if (qlen == 0 && tlen == 0) return 0;
  if (qlen == 0) {
    push_op(cigar, 'D', tlen);
    return -(p.o_del + p.e_del * tlen);
  }
  if (tlen == 0) {
    push_op(cigar, 'I', qlen);
    return -(p.o_ins + p.e_ins * qlen);
  }

  // The band must cover the length difference or no global path exists.
  w = std::max(w, std::abs(tlen - qlen) + 1);
  const auto mat = p.matrix();
  const int oe_del = p.o_del + p.e_del, oe_ins = p.o_ins + p.e_ins;

  const std::size_t width = static_cast<std::size_t>(qlen) + 1;
  std::vector<std::int32_t> h(width), e(width);
  std::vector<std::uint8_t> tb(static_cast<std::size_t>(tlen + 1) * width, 0);

  // Row 0: only insertions.
  h[0] = 0;
  e[0] = kNegInf;
  for (int j = 1; j <= qlen; ++j) {
    h[static_cast<std::size_t>(j)] = j <= w ? -(p.o_ins + p.e_ins * j) : kNegInf;
    e[static_cast<std::size_t>(j)] = kNegInf;
    tb[static_cast<std::size_t>(j)] = kFromIns | kInsExt;
  }

  for (int i = 1; i <= tlen; ++i) {
    const int beg = std::max(1, i - w);
    const int end = std::min(qlen, i + w);
    std::int32_t h_diag = h[static_cast<std::size_t>(beg - 1)];  // H(i-1, beg-1)
    // Column beg-1 of this row.
    std::int32_t h_left;
    if (beg == 1) {
      h_left = -(p.o_del + p.e_del * i);
      tb[static_cast<std::size_t>(i) * width] = kFromDel | kDelExt;
    } else {
      h_left = kNegInf;
    }
    h[static_cast<std::size_t>(beg - 1)] = h_left;
    std::int32_t f = kNegInf;

    for (int j = beg; j <= end; ++j) {
      std::uint8_t dir = 0;
      // E (deletion, vertical): from H(i-1, j) or E(i-1, j).
      const std::int32_t h_up = h[static_cast<std::size_t>(j)];
      std::int32_t e_open = h_up - oe_del;
      std::int32_t e_ext = e[static_cast<std::size_t>(j)] - p.e_del;
      if (e_ext > e_open) dir |= kDelExt;
      const std::int32_t e_cur = std::max(e_open, e_ext);

      // F (insertion, horizontal): from H(i, j-1) or F(i, j-1).
      std::int32_t f_open = h_left - oe_ins;
      std::int32_t f_ext = f - p.e_ins;
      if (f_ext > f_open) dir |= kInsExt;
      const std::int32_t f_cur = std::max(f_open, f_ext);

      // H: diagonal vs E vs F (prefer diagonal on ties, then deletion —
      // matches ksw_global's choice order).
      const std::int32_t diag =
          h_diag + mat[static_cast<std::size_t>(target[i - 1] * 5 + query[j - 1])];
      std::int32_t best = diag;
      std::uint8_t from = kFromDiag;
      if (e_cur > best) {
        best = e_cur;
        from = kFromDel;
      }
      if (f_cur > best) {
        best = f_cur;
        from = kFromIns;
      }
      dir |= from;
      tb[static_cast<std::size_t>(i) * width + static_cast<std::size_t>(j)] = dir;

      h_diag = h_up;
      h[static_cast<std::size_t>(j)] = best;
      e[static_cast<std::size_t>(j)] = e_cur;
      f = f_cur;
      h_left = best;
    }
    // Kill columns outside the band for the next row.
    if (end < qlen) h[static_cast<std::size_t>(end + 1)] = kNegInf;
    if (beg > 1) e[static_cast<std::size_t>(beg - 1)] = kNegInf;
  }

  const int score = h[static_cast<std::size_t>(qlen)];

  // Traceback from (tlen, qlen): a three-state machine (H, deletion run,
  // insertion run); extension flags decide whether a gap run continues.
  Cigar rev;
  int i = tlen, j = qlen;
  int state = 0;  // 0 = H, 1 = in deletion (E), 2 = in insertion (F)
  while (i > 0 || j > 0) {
    const std::uint8_t dir =
        tb[static_cast<std::size_t>(i) * width + static_cast<std::size_t>(j)];
    if (state == 0) {
      const std::uint8_t from = dir & kHMask;
      if (from == kFromDiag) {
        MEM2_REQUIRE(i > 0 && j > 0, "global traceback escaped the matrix");
        push_op(rev, 'M', 1);
        --i;
        --j;
      } else if (from == kFromDel) {
        state = 1;  // re-read this cell in deletion state
      } else {
        state = 2;
      }
    } else if (state == 1) {
      push_op(rev, 'D', 1);
      state = (dir & kDelExt) != 0 ? 1 : 0;
      --i;
    } else {
      push_op(rev, 'I', 1);
      state = (dir & kInsExt) != 0 ? 2 : 0;
      --j;
    }
  }
  // Reverse and merge adjacent runs of the same op.
  cigar.clear();
  for (auto it = rev.rbegin(); it != rev.rend(); ++it) push_op(cigar, it->op, it->len);
  return score;
}


/// region_to_aln's CIGAR core before the shortcut: band inferred from
/// truesc, doubled while the global score falls short.  Returns the final
/// score; `cigar` and `nm` are the alignment's.
int reg2aln_cigar(const seq::Code* qseg, int l1, const seq::Code* target, int l2,
                  int truesc, const align::MemOptions& opt, Cigar& cigar, int* nm) {
  const auto& ksw = opt.ksw;
  auto infer_bw = [&](int score, int q_pen, int r_pen) {
    if (l1 == l2 && l1 * ksw.a - score < (q_pen + r_pen - ksw.a) * 2) return 0;
    int w = static_cast<int>(
        (static_cast<double>(std::min(l1, l2)) * ksw.a - score - q_pen) / r_pen + 2.0);
    return std::max(w, std::abs(l1 - l2));
  };
  int band = std::max(infer_bw(truesc, ksw.o_del, ksw.e_del),
                      infer_bw(truesc, ksw.o_ins, ksw.e_ins));
  band = std::min(band, opt.w * 4);
  int score = ksw_global_full(qseg, l1, target, l2, ksw, band, cigar);
  while (score < truesc && band < opt.w * 4) {
    band = std::min(band * 2 + 1, opt.w * 4);
    score = ksw_global_full(qseg, l1, target, l2, ksw, band, cigar);
  }
  *nm = align::edit_distance(cigar, qseg, target);
  return score;
}

}  // namespace oracle

namespace {

using bsw::Cigar;
using bsw::KswParams;

constexpr std::uint64_t kBaseSeed = 0x5a11c16a;
constexpr int kCases = 400;

/// Runs body(seed) for every case seed (or only the --seed replay), with
/// the seed attached to any failure.
template <class Body>
void for_each_case(Body&& body) {
  const auto one = [&](std::uint64_t seed) {
    SCOPED_TRACE("replay with: test_cigar_oracle --seed=" + std::to_string(seed));
    body(seed);
  };
  if (oracle_seed::g_have_replay) {
    one(oracle_seed::g_replay);
    return;
  }
  for (int c = 0; c < kCases && !::testing::Test::HasFailure(); ++c)
    one(kBaseSeed + static_cast<std::uint64_t>(c));
}

const index::Mem2Index& genome() {
  static const index::Mem2Index idx = index::Mem2Index::build(seq::random_genome(60000, 77));
  return idx;
}

enum Shape { kSubstitutions, kIndels, kAmbiguous, kShapes };

/// One region: a reference segment, the query segment aligned to it
/// (forward-strand orientation), and the read and AlnReg that region_to_aln
/// turns back into exactly those two segments.
struct Case {
  Shape shape;
  align::MemOptions opt;
  std::vector<seq::Code> qseg, target;
  std::vector<seq::Code> read;  // as sequenced (reverse-complemented if rev)
  align::AlnReg reg;
};

seq::Code other_base(util::Xoshiro256ss& rng, seq::Code c) {
  return static_cast<seq::Code>((c + 1 + rng.below(3)) & 3);
}

Case make_case(std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  const index::Mem2Index& idx = genome();
  const idx_t l_pac = idx.l_pac();
  Case c;
  c.shape = static_cast<Shape>(seed % kShapes);
  if (rng.chance(0.5)) {  // non-default scoring
    KswParams& p = c.opt.ksw;
    p.a = 1 + static_cast<int>(rng.below(3));
    p.b = 1 + static_cast<int>(rng.below(6));
    p.o_del = static_cast<int>(rng.below(9));
    p.e_del = 1 + static_cast<int>(rng.below(3));
    p.o_ins = static_cast<int>(rng.below(9));
    p.e_ins = 1 + static_cast<int>(rng.below(3));
  }
  c.opt.w = 1 + static_cast<int>(rng.below(40));

  const int l2 = 1 + static_cast<int>(rng.below(180));
  const idx_t rb = static_cast<idx_t>(rng.below(static_cast<std::uint64_t>(l_pac - l2)));
  c.target = idx.fetch(rb, rb + l2);
  c.qseg = c.target;
  if (c.shape == kSubstitutions || c.shape == kAmbiguous) {
    const int n_sub = static_cast<int>(rng.below(7));  // 0..6
    for (int s = 0; s < n_sub; ++s) {
      seq::Code& b = c.qseg[rng.below(c.qseg.size())];
      b = other_base(rng, b);
    }
  }
  if (c.shape == kIndels || (c.shape == kAmbiguous && rng.chance(0.5))) {
    const int n_indel = 1 + static_cast<int>(rng.below(3));
    for (int g = 0; g < n_indel; ++g) {
      const std::size_t at = rng.below(c.qseg.size() + 1);
      const int len = 1 + static_cast<int>(rng.below(4));
      if (rng.chance(0.5)) {
        for (int k = 0; k < len; ++k)
          c.qseg.insert(c.qseg.begin() + static_cast<std::ptrdiff_t>(at),
                        static_cast<seq::Code>(rng.below(4)));
      } else if (c.qseg.size() > static_cast<std::size_t>(len)) {
        const std::size_t from = std::min(at, c.qseg.size() - static_cast<std::size_t>(len));
        c.qseg.erase(c.qseg.begin() + static_cast<std::ptrdiff_t>(from),
                     c.qseg.begin() + static_cast<std::ptrdiff_t>(from) + len);
      }
    }
  }
  if (c.shape == kAmbiguous) {
    const int n_ambig = 1 + static_cast<int>(rng.below(4));
    for (int s = 0; s < n_ambig; ++s) c.qseg[rng.below(c.qseg.size())] = seq::kAmbig;
  }

  // The read: clipped flanks around the query segment, on either strand.
  const int clip5 = static_cast<int>(rng.below(15)), clip3 = static_cast<int>(rng.below(15));
  std::vector<seq::Code> fwd;
  for (int k = 0; k < clip5; ++k) fwd.push_back(static_cast<seq::Code>(rng.below(4)));
  fwd.insert(fwd.end(), c.qseg.begin(), c.qseg.end());
  for (int k = 0; k < clip3; ++k) fwd.push_back(static_cast<seq::Code>(rng.below(4)));
  const int l1 = static_cast<int>(c.qseg.size());
  const int l_read = static_cast<int>(fwd.size());
  if (rng.chance(0.5)) {
    c.read = fwd;
    c.reg.qb = clip5;
    c.reg.qe = clip5 + l1;
    c.reg.rb = rb;
    c.reg.re = rb + l2;
  } else {
    c.read.assign(fwd.rbegin(), fwd.rend());
    for (auto& b : c.read) b = seq::complement(b);
    c.reg.qb = l_read - clip5 - l1;
    c.reg.qe = l_read - clip5;
    c.reg.rb = 2 * l_pac - (rb + l2);
    c.reg.re = 2 * l_pac - rb;
  }
  // truesc around the best global score, so the band-doubling retries run
  // to their cap in some cases and stop early in others.
  Cigar cig;
  const int best = oracle::ksw_global_full(c.qseg.data(), l1, c.target.data(), l2,
                                           c.opt.ksw, c.opt.w * 4, cig);
  c.reg.truesc = best + 3 - static_cast<int>(rng.below(12));
  c.reg.score = c.reg.truesc;
  c.reg.rid = 0;
  return c;
}

std::uint64_t band_cells(int qlen, int tlen, int w) {
  w = std::max(w, std::abs(tlen - qlen) + 1);
  std::uint64_t n = 0;
  for (int i = 1; i <= tlen; ++i)
    n += static_cast<std::uint64_t>(std::min(qlen, i + w) - std::max(1, i - w) + 1);
  return n;
}

TEST(CigarOracle, KswGlobalMatchesFullMatrixAtEveryBand) {
  for_each_case([](std::uint64_t seed) {
    const Case c = make_case(seed);
    const int l1 = static_cast<int>(c.qseg.size()), l2 = static_cast<int>(c.target.size());
    const std::optional<int> gapless =
        l1 == l2 ? bsw::ksw_global_gapless(c.qseg.data(), c.target.data(), l1, c.opt.ksw)
                 : std::nullopt;
    for (int band = 0; band <= 4 * c.opt.w; band += 1 + band / 4) {
      Cigar want, got;
      const int want_score = oracle::ksw_global_full(c.qseg.data(), l1, c.target.data(),
                                                     l2, c.opt.ksw, band, want);
      const std::uint64_t cells0 = util::tls_counters().cigar_dp_cells;
      const int got_score = bsw::ksw_global(c.qseg.data(), l1, c.target.data(), l2,
                                            c.opt.ksw, band, got);
      ASSERT_EQ(got_score, want_score) << "band " << band;
      ASSERT_EQ(got, want) << "band " << band;
      EXPECT_EQ(util::tls_counters().cigar_dp_cells - cells0, band_cells(l1, l2, band))
          << "band " << band;
      if (gapless) {
        // The shortcut's claim: the diagonal at every band.
        ASSERT_EQ(*gapless, want_score) << "band " << band;
        ASSERT_EQ(want, (Cigar{{'M', l1}})) << "band " << band;
      }
    }
  });
}

TEST(CigarOracle, RegionToAlnMatchesFullMatrixReg2Aln) {
  const index::Mem2Index& idx = genome();
  int gapless = 0, equal_len_dp = 0, with_gaps = 0;
  for_each_case([&](std::uint64_t seed) {
    const Case c = make_case(seed);
    const int l1 = static_cast<int>(c.qseg.size()), l2 = static_cast<int>(c.target.size());
    Cigar want;
    int want_nm = 0;
    oracle::reg2aln_cigar(c.qseg.data(), l1, c.target.data(), l2, c.reg.truesc, c.opt,
                          want, &want_nm);
    std::vector<seq::Code> read_rev(c.read.rbegin(), c.read.rend());
    const align::ExtendContext ctx{c.opt, idx, c.read, read_rev};
    const std::uint64_t shortcut0 = util::tls_counters().cigar_gapless;
    const align::SamAln aln = align::region_to_aln(ctx, c.reg);
    const bool took_shortcut = util::tls_counters().cigar_gapless != shortcut0;
    ASSERT_EQ(aln.cigar, want);
    EXPECT_EQ(aln.nm, want_nm);
    EXPECT_EQ(aln.rev, c.reg.rb >= idx.l_pac());
    EXPECT_EQ(aln.clip5 + l1 + aln.clip3, static_cast<int>(c.read.size()));
    gapless += took_shortcut;
    equal_len_dp += l1 == l2 && !took_shortcut;
    with_gaps += want.size() > 1;
  });
  if (oracle_seed::g_have_replay) return;
  // Both sides of the shortcut bound, and real gapped CIGARs, are covered.
  EXPECT_GT(gapless, kCases / 10);
  EXPECT_GT(equal_len_dp, kCases / 20);
  EXPECT_GT(with_gaps, kCases / 10);
}

}  // namespace
}  // namespace mem2

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--seed=", 0) == 0) {
      mem2::oracle_seed::g_replay = std::strtoull(argv[i] + 7, nullptr, 0);
      mem2::oracle_seed::g_have_replay = true;
      std::printf("replaying case seed %llu\n",
                  static_cast<unsigned long long>(mem2::oracle_seed::g_replay));
    }
  }
  return RUN_ALL_TESTS();
}
