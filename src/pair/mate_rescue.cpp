#include "pair/mate_rescue.h"

#include <algorithm>

#include "seq/pack.h"

namespace mem2::pair {

using align::AlnReg;

bool rescue_window(const seq::Reference& ref, idx_t l_pac, const AlnReg& a,
                   const DirStats& pes, int dir, int l_ms, int min_len,
                   RescueWindow* out) {
  // bwa mem_matesw window formulas: where the mate's (possibly
  // reverse-complemented) sequence should match, in doubled coordinates.
  const bool is_rev = (dir >> 1) != (dir & 1);
  const bool is_larger = !(dir >> 1);  // mate at the larger coordinate
  idx_t rb, re;
  if (!is_rev) {
    rb = is_larger ? a.rb + pes.low : a.rb - pes.high;
    re = (is_larger ? a.rb + pes.high : a.rb - pes.low) + l_ms;
  } else {
    rb = (is_larger ? a.rb + pes.low : a.rb - pes.high) - l_ms;
    re = is_larger ? a.rb + pes.high : a.rb - pes.low;
  }
  rb = std::max<idx_t>(rb, 0);
  re = std::min<idx_t>(re, 2 * l_pac);
  if (rb >= re) return false;
  // Keep the window on one strand (bns_fetch_seq recenters; we keep the
  // side holding the window's midpoint).
  if (rb < l_pac && re > l_pac) {
    if ((rb + re) / 2 < l_pac)
      re = l_pac;
    else
      rb = l_pac;
  }
  // Clamp to the anchor's contig, expressed on the window's strand.
  const auto& contig = ref.contigs()[static_cast<std::size_t>(a.rid)];
  if (rb >= l_pac) {
    rb = std::max(rb, 2 * l_pac - (contig.offset + contig.length));
    re = std::min(re, 2 * l_pac - contig.offset);
  } else {
    rb = std::max(rb, contig.offset);
    re = std::min(re, contig.offset + contig.length);
  }
  if (re - rb < std::max<idx_t>(min_len, 1)) return false;
  out->rb = rb;
  out->re = re;
  out->is_rev = is_rev;
  return true;
}

void satisfied_dirs(idx_t l_pac, idx_t b1, std::span<const idx_t> mate_rb,
                    const InsertStats& pes, bool skip[4]) {
  // infer_dir(l_pac, b1, b2): a mate region on b1's strand projects to
  // p2 = b2, one on the other strand to p2 = 2 l_pac - 1 - b2; the class is
  // 0 / 3 (same strand, p2 > b1 / p2 <= b1) or 1 / 2 (other strand), at
  // distance |p2 - b1|.  Inverting each class's distance range gives one
  // interval of b2 on one strand.
  const bool r1 = b1 >= l_pac;
  const idx_t same_lo = r1 ? l_pac : 0, same_hi = same_lo + l_pac - 1;
  const idx_t other_lo = r1 ? 0 : l_pac, other_hi = other_lo + l_pac - 1;
  const idx_t mirror = 2 * l_pac - 1 - b1;
  const auto any_in = [&](idx_t lo, idx_t hi, idx_t strand_lo, idx_t strand_hi) {
    lo = std::max(lo, strand_lo);
    hi = std::min(hi, strand_hi);
    if (lo > hi) return false;
    const auto it = std::lower_bound(mate_rb.begin(), mate_rb.end(), lo);
    return it != mate_rb.end() && *it <= hi;
  };
  for (int d = 0; d < 4; ++d) {
    if (skip[d]) continue;
    const idx_t high = pes.dir[d].high;
    const idx_t low_gt = std::max<idx_t>(pes.dir[d].low, 1);  // p2 > b1
    const idx_t low_le = std::max<idx_t>(pes.dir[d].low, 0);  // p2 <= b1
    switch (d) {
      case 0: skip[d] = any_in(b1 + low_gt, b1 + high, same_lo, same_hi); break;
      case 3: skip[d] = any_in(b1 - high, b1 - low_le, same_lo, same_hi); break;
      case 1: skip[d] = any_in(mirror - high, mirror - low_gt, other_lo, other_hi); break;
      default: skip[d] = any_in(mirror + low_le, mirror + high, other_lo, other_hi); break;
    }
  }
}

namespace {

/// Per-anchor endpoint math — the same left/right combination rules as
/// process_chains (bwa mem_chain2aln), in (seq, window) local coordinates.
struct LocalAln {
  int qb = 0, qe = 0;
  int tb = 0, te = 0;
  int score = 0, truesc = 0;
};

bool anchor_to_local(const align::MemOptions& opt, const RescueAnchor& an,
                     int l_ms, int l_win, LocalAln* out) {
  const int a = opt.ksw.a;
  LocalAln r;
  if (an.qbeg > 0) {
    if (!an.have_left) return false;
    const auto& lr = an.left;
    r.score = lr.score;
    if (lr.gscore <= 0 || lr.gscore <= lr.score - opt.ksw.end_bonus) {
      r.qb = an.qbeg - lr.qle;
      r.tb = an.tbeg - lr.tle;
      r.truesc = lr.score;
    } else {
      r.qb = 0;
      r.tb = an.tbeg - lr.gtle;
      r.truesc = lr.gscore;
    }
  } else {
    r.score = r.truesc = an.len * a;
    r.qb = 0;
    r.tb = an.tbeg;
  }
  if (an.qbeg + an.len != l_ms) {
    if (!an.have_right) return false;
    const int sc0 = r.score;
    const auto& rr = an.right;
    r.score = rr.score;
    if (rr.gscore <= 0 || rr.gscore <= rr.score - opt.ksw.end_bonus) {
      r.qe = an.qbeg + an.len + rr.qle;
      r.te = an.tbeg + an.len + rr.tle;
      r.truesc += rr.score - sc0;
    } else {
      r.qe = l_ms;
      r.te = an.tbeg + an.len + rr.gtle;
      r.truesc += rr.gscore - sc0;
    }
  } else {
    r.qe = l_ms;
    r.te = an.tbeg + an.len;
  }
  (void)l_win;
  *out = r;
  return true;
}

}  // namespace

bool finalize_rescue(const align::MemOptions& opt, idx_t l_pac,
                     const RescueAttempt& attempt, int l_ms, float frac_rep,
                     AlnReg* out) {
  const int l_win = static_cast<int>(attempt.win.size());
  bool found = false;
  LocalAln best;
  int best_tbeg = 0;
  for (int i = 0; i < attempt.n_anchors; ++i) {
    LocalAln cand;
    if (!anchor_to_local(opt, attempt.anchors[i], l_ms, l_win, &cand)) continue;
    if (!found || cand.score > best.score ||
        (cand.score == best.score && attempt.anchors[i].tbeg < best_tbeg)) {
      best = cand;
      best_tbeg = attempt.anchors[i].tbeg;
      found = true;
    }
  }
  if (!found || best.score < opt.seeding.min_seed_len * opt.ksw.a) return false;

  // Map back into the mate's own strand representation (bwa mem_matesw):
  // when the window aligned the reverse complement, flip both axes.
  AlnReg b;
  b.rid = attempt.rid;
  if (!attempt.is_rev) {
    b.qb = best.qb;
    b.qe = best.qe;
    b.rb = attempt.win_rb + best.tb;
    b.re = attempt.win_rb + best.te;
  } else {
    b.qb = l_ms - best.qe;
    b.qe = l_ms - best.qb;
    b.rb = 2 * l_pac - (attempt.win_rb + best.te);
    b.re = 2 * l_pac - (attempt.win_rb + best.tb);
  }
  b.score = best.score;
  b.truesc = best.truesc;
  b.sub = b.csub = 0;
  b.w = opt.w;
  b.seedcov = static_cast<int>(
      std::min<idx_t>(b.re - b.rb, static_cast<idx_t>(b.qe - b.qb)) >> 1);
  b.seedlen0 = attempt.n_anchors ? attempt.anchors[0].len : 0;
  b.secondary = -1;
  b.frac_rep = frac_rep;
  b.rescued = true;
  *out = b;
  return true;
}

}  // namespace mem2::pair
