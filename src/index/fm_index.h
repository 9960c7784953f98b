// Bidirectional FM-index over T = R · revcomp(R) · $ (paper §2.2, §4.1-4.2).
//
// Coordinates: BW-matrix rows r ∈ [0, N] where N = |T| = 2L; row 0 is the
// sentinel rotation.  A bi-interval (k, l, s) describes the matches of a
// string X: k is the first row of X's SA interval, l the first row of
// revcomp(X)'s interval, s the interval size (Algorithm 2's notation).
//
// The class is templated over the occurrence backend so the SMEM kernel can
// run unchanged on the baseline CP128 table and the optimized CP32 table —
// that is exactly the paper's "identical output" requirement: the backend
// changes the instruction/cache profile, never the search result.
#pragma once

#include <array>
#include <cstdint>

#include "index/bwt.h"
#include "index/occ_cp128.h"
#include "index/occ_cp32.h"
#include "util/sw_counters.h"

namespace mem2::index {

struct BiInterval {
  idx_t k = 0;  // start row of X's SA interval
  idx_t l = 0;  // start row of revcomp(X)'s SA interval
  idx_t s = 0;  // interval size

  bool operator==(const BiInterval&) const = default;
};

template <class Occ>
class FmIndexT {
 public:
  using occ_type = Occ;

  FmIndexT() = default;
  explicit FmIndexT(const BwtData& data) { build(data); }

  void build(const BwtData& data) {
    seq_len_ = data.seq_len;
    primary_ = data.primary;
    cum_ = data.cum;
    occ_.build(data.bwt);
  }

  idx_t seq_len() const { return seq_len_; }
  idx_t primary() const { return primary_; }
  /// Row of the first rotation starting with base c (c in 0..3); cum(4) is
  /// one past the last row.
  idx_t cum(int c) const { return cum_[static_cast<std::size_t>(c)]; }
  const Occ& occ_table() const { return occ_; }
  std::size_t memory_bytes() const { return occ_.memory_bytes(); }

  /// Count of base c in BWT rows [0, r] (sentinel row contributes nothing).
  /// r may be -1 (empty prefix) up to seq_len().
  idx_t occ_row(int c, idx_t r) const {
    if (r < 0) return 0;
    const idx_t j = r + 1 - (r >= primary_ ? 1 : 0);
    ++util::tls_counters().occ_bucket_loads;
    return occ_.occ(c, j);
  }

  /// occ_row for all four bases.
  void occ_row4(idx_t r, idx_t out[4]) const {
    if (r < 0) {
      out[0] = out[1] = out[2] = out[3] = 0;
      return;
    }
    const idx_t j = r + 1 - (r >= primary_ ? 1 : 0);
    ++util::tls_counters().occ_bucket_loads;
    occ_.occ4(j, out);
  }

  /// Bi-interval of the single-base string c (Algorithm 4, line 2).
  BiInterval set_intv(int c) const {
    BiInterval bi;
    bi.k = cum(c);
    bi.l = cum(3 - c);
    bi.s = cum(c + 1) - cum(c);
    return bi;
  }

  /// Bi-interval of the whole (empty-string) range: every row.
  BiInterval full_interval() const { return BiInterval{0, 0, seq_len_ + 1}; }

  /// Backward extension (Algorithm 2): out[b] is the bi-interval of bX for
  /// each base b.  Sizes may be zero (no occurrence).
  void backward_ext(const BiInterval& in, BiInterval out[4]) const {
    ++util::tls_counters().backward_exts;
    idx_t tk[4], tl[4];
    occ_row4(in.k - 1, tk);
    occ_row4(in.k + in.s - 1, tl);
    for (int c = 0; c < 4; ++c) {
      out[c].k = cum(c) + tk[c];
      out[c].s = tl[c] - tk[c];
    }
    // Sentinel occurrences within rows [k, k+s-1] shift the l side
    // (Algorithm 2's f); then l values stack in complement order T,G,C,A.
    const idx_t sentinel =
        (in.k <= primary_ && primary_ <= in.k + in.s - 1) ? 1 : 0;
    out[3].l = in.l + sentinel;
    out[2].l = out[3].l + out[3].s;
    out[1].l = out[2].l + out[2].s;
    out[0].l = out[1].l + out[1].s;
  }

  /// Forward extension (Algorithm 3): out[b] is the bi-interval of Xb.
  /// Implemented as a backward extension of the complement on the l side.
  void forward_ext(const BiInterval& in, BiInterval out[4]) const {
    ++util::tls_counters().forward_exts;
    BiInterval swapped{in.l, in.k, in.s};
    BiInterval tmp[4];
    backward_ext(swapped, tmp);
    --util::tls_counters().backward_exts;  // counted as forward instead
    for (int b = 0; b < 4; ++b) {
      out[b].k = tmp[3 - b].l;
      out[b].l = tmp[3 - b].k;
      out[b].s = tmp[3 - b].s;
    }
  }

  /// backward_ext(in)[c] alone, for a walk that reads one base per step.
  /// Each of rows k-1 and k+s-1 needs only Occ(c) and the count of bases
  /// greater than c (which stack below c on the l side).  Bumps no counter:
  /// the caller counts one backward extension and two bucket loads.
  BiInterval backward_ext1(const BiInterval& in, int c) const {
    idx_t eq0 = 0, gt0 = 0, eq1 = 0, gt1 = 0;
    eq_gt_row_(c, in.k - 1, eq0, gt0);
    eq_gt_row_(c, in.k + in.s - 1, eq1, gt1);
    const idx_t sentinel =
        (in.k <= primary_ && primary_ <= in.k + in.s - 1) ? 1 : 0;
    return BiInterval{cum(c) + eq0, in.l + sentinel + gt1 - gt0, eq1 - eq0};
  }

  /// forward_ext(in)[c] alone: the backward step of the swapped interval by
  /// the complement of c.  Bumps no counter, like backward_ext1.
  BiInterval forward_ext1(const BiInterval& in, int c) const {
    const BiInterval b = backward_ext1(BiInterval{in.l, in.k, in.s}, 3 - c);
    return BiInterval{b.l, b.k, b.s};
  }

  /// Single-base backward step for LF-walks (SampledSA): given row r (not
  /// the primary row), returns the row of the suffix starting one position
  /// earlier, reading base c = BWT[r].
  idx_t lf_step(idx_t r) const {
    if (r == primary_) return 0;
    const int c = bwt_at(r);
    return cum(c) + occ_row(c, r - 1);
  }

  /// BWT character at row r (r != primary).
  int bwt_at(idx_t r) const {
    const idx_t j = r - (r > primary_ ? 1 : 0);
    // One byte/2-bit load; route through occ backend-independent storage.
    return bwt_char_(j);
  }

  /// Prefetch the occ bucket(s) that a future backward extension of this
  /// interval will touch (paper §4.3): the lines holding rows k-1 and
  /// k+s-1.
  void prefetch_interval(const BiInterval& bi) const {
    prefetch_rows(bi.k, bi.s);
    util::tls_counters().prefetches += 2;
  }

  /// Prefetch for a future *forward* extension, which reads the l side
  /// (Algorithm 4 lines 11-12: Prefetch(Oc, l-1), Prefetch(Oc, l+s-1)).
  void prefetch_forward(const BiInterval& bi) const {
    prefetch_rows(bi.l, bi.s);
    util::tls_counters().prefetches += 2;
  }

  /// The two prefetches above without the counter: the buckets of rows
  /// first-1 and first+s-1 (first is k for a backward step, l for a forward
  /// one).
  void prefetch_rows(idx_t first, idx_t s) const {
    occ_.prefetch(first >= 1 ? first - 1 : 0);
    occ_.prefetch(first + s - 1);
  }

  /// Keep a copy of the raw BWT for lf_step (SampledSA path).  Optional:
  /// only built when store_bwt is requested.
  void store_raw_bwt(const BwtData& data) { raw_bwt_ = data.bwt; }
  bool has_raw_bwt() const { return !raw_bwt_.empty(); }
  /// The stored sentinel-free BWT rows (requires has_raw_bwt()); the
  /// streaming index writer serializes the bwt section from this without
  /// materializing an intermediate copy.
  const std::vector<seq::Code>& raw_bwt() const { return raw_bwt_; }

 private:
  /// Occ::eq_gt at BWT row r (0 and 0 for r = -1, the empty prefix).
  void eq_gt_row_(int c, idx_t r, idx_t& eq, idx_t& gt) const {
    if (r >= 0) occ_.eq_gt(c, r + 1 - (r >= primary_ ? 1 : 0), eq, gt);
  }

  int bwt_char_(idx_t j) const { return raw_bwt_[static_cast<std::size_t>(j)]; }

  idx_t seq_len_ = 0;
  idx_t primary_ = 0;
  std::array<idx_t, 5> cum_{};
  Occ occ_;
  std::vector<seq::Code> raw_bwt_;  // only for LF walks (baseline SAL)
};

using FmIndexCp128 = FmIndexT<OccCp128>;
using FmIndexCp32 = FmIndexT<OccCp32>;

}  // namespace mem2::index
