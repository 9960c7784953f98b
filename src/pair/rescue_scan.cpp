#include "pair/rescue_scan.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>

namespace mem2::pair {

namespace {

/// Fibonacci-mix a tail code: the top `bits` of the product pick a table
/// slot, the top kFilterBits a filter bit.
std::uint64_t mix(std::uint64_t code) { return code * 0x9e3779b97f4a7c15ULL; }

std::uint32_t slot_of(std::uint64_t code, int bits) {
  return static_cast<std::uint32_t>(mix(code) >> (64 - bits));
}

/// Maximal exact match run through a verified anchor at (q0, t): k plus the
/// equal unambiguous bases immediately left and right.  Ambiguous bases
/// terminate the run (N = N is not a scoring match).
int exact_run(std::span<const seq::Code> seq, std::span<const seq::Code> win,
              int q0, int t, int k) {
  const int l_seq = static_cast<int>(seq.size());
  const int l_win = static_cast<int>(win.size());
  int left = 0;
  while (q0 - 1 - left >= 0 && t - 1 - left >= 0 &&
         seq[static_cast<std::size_t>(q0 - 1 - left)] ==
             win[static_cast<std::size_t>(t - 1 - left)] &&
         seq[static_cast<std::size_t>(q0 - 1 - left)] < 4)
    ++left;
  int right = 0;
  while (q0 + k + right < l_seq && t + k + right < l_win &&
         seq[static_cast<std::size_t>(q0 + k + right)] ==
             win[static_cast<std::size_t>(t + k + right)] &&
         seq[static_cast<std::size_t>(q0 + k + right)] < 4)
    ++right;
  return k + left + right;
}

}  // namespace

int scan_rescue_anchors(std::span<const seq::Code> seq,
                        std::span<const seq::Code> win, int k, int max_anchors,
                        RescueAnchor* out) {
  const int l_seq = static_cast<int>(seq.size());
  const int l_win = static_cast<int>(win.size());
  if (k <= 0 || l_seq < k || l_win < k) return 0;
  max_anchors = std::min(max_anchors, kMaxRescueAnchors);

  // Probe k-mers at non-overlapping query offsets; skip probes containing
  // an ambiguous base (N "matches" nothing meaningful).
  int probes[kMaxRescueProbes];
  int n_probes = 0;
  for (int q0 = 0; q0 + k <= l_seq && n_probes < kMaxRescueProbes; q0 += k) {
    bool ambig = false;
    for (int j = 0; j < k; ++j) ambig |= seq[static_cast<std::size_t>(q0 + j)] > 3;
    if (!ambig) probes[n_probes++] = q0;
  }

  int n = 0;
  int diagonals[kMaxRescueAnchors];
  for (int t = 0; t + k <= l_win && n < max_anchors; ++t) {
    for (int p = 0; p < n_probes && n < max_anchors; ++p) {
      const int q0 = probes[p];
      const int diag = t - q0;
      bool seen = false;
      for (int d = 0; d < n; ++d) seen |= diagonals[d] == diag;
      if (seen) continue;
      if (std::memcmp(seq.data() + q0, win.data() + t,
                      static_cast<std::size_t>(k)) != 0)
        continue;
      out[n].qbeg = q0;
      out[n].tbeg = t;
      out[n].len = k;
      out[n].exact_run = exact_run(seq, win, q0, t, k);
      out[n].have_left = out[n].have_right = false;
      diagonals[n] = diag;
      ++n;
    }
  }
  return n;
}

void RescueScanner::build(std::span<const seq::Code> seq, int k, int hash_bits) {
  seq_ = seq;
  k_ = k;
  bits_ = std::clamp(hash_bits, 1, kMaxRescueHashBits);
  n_probes_ = 0;
  std::fill(slot_head_, slot_head_ + (std::size_t{1} << bits_),
            static_cast<std::int16_t>(-1));
  std::fill(std::begin(filter_), std::end(filter_), 0);
  const int l_seq = static_cast<int>(seq.size());
  if (k <= 0 || l_seq < k) return;
  tail_ = std::min(k, kRescueTailBases);
  tail_mask_ = tail_ == 32 ? ~std::uint64_t{0} : (std::uint64_t{1} << (2 * tail_)) - 1;
  for (int q0 = 0; q0 + k <= l_seq && n_probes_ < kMaxRescueProbes; q0 += k) {
    bool ambig = false;
    for (int j = 0; j < k; ++j) ambig |= seq[static_cast<std::size_t>(q0 + j)] > 3;
    if (ambig) continue;
    std::uint64_t code = 0;
    for (int j = k - tail_; j < k; ++j)
      code = code << 2 | seq[static_cast<std::size_t>(q0 + j)];
    probe_q0_[n_probes_] = q0;
    probe_code_[n_probes_] = code;
    const std::uint64_t f = mix(code) >> (64 - kFilterBits);
    filter_[f >> 6] |= std::uint64_t{1} << (f & 63);
    ++n_probes_;
  }
  // Prepend in descending probe order so every chain walks in ascending
  // query-offset order — the reference scan's probe order, which the
  // first-anchor-per-diagonal and max_anchors saturation rules depend on.
  for (int p = n_probes_ - 1; p >= 0; --p) {
    const std::uint32_t s = slot_of(probe_code_[p], bits_);
    probe_next_[p] = slot_head_[s];
    slot_head_[s] = static_cast<std::int16_t>(p);
  }
}

int RescueScanner::scan(std::span<const seq::Code> win, int max_anchors,
                        RescueAnchor* out) const {
  const int l_win = static_cast<int>(win.size());
  if (k_ <= 0 || n_probes_ == 0 || l_win < k_) return 0;
  max_anchors = std::min(max_anchors, kMaxRescueAnchors);

  int n = 0;
  int diagonals[kMaxRescueAnchors];
  // Walk the probes whose tail code equals that of the k-mer ending at
  // window offset i; true once max_anchors are found.
  const auto probe_walk = [&](int i) {
    std::uint64_t key = 0;
    for (int j = i - tail_ + 1; j <= i; ++j)
      key = key << 2 | (win[static_cast<std::size_t>(j)] & 3);
    const int t = i - k_ + 1;
    for (int p = slot_head_[slot_of(key, bits_)]; p >= 0 && n < max_anchors;
         p = probe_next_[p]) {
      if (probe_code_[p] != key) continue;  // colliding slot, different tail
      const int q0 = probe_q0_[p];
      const int diag = t - q0;
      bool seen = false;
      for (int d = 0; d < n; ++d) seen |= diagonals[d] == diag;
      if (seen) continue;
      if (std::memcmp(seq_.data() + q0, win.data() + t,
                      static_cast<std::size_t>(k_)) != 0)
        continue;  // equal tails, different head (k > kRescueTailBases)
      out[n].qbeg = q0;
      out[n].tbeg = t;
      out[n].len = k_;
      out[n].exact_run = exact_run(seq_, win, q0, t, k_);
      out[n].have_left = out[n].have_right = false;
      diagonals[n] = diag;
      ++n;
    }
    return n >= max_anchors;
  };
  // `code` accumulates the 2-bit codes of every base rolled in (older ones
  // shift out the top), and its low 2 * tail_ bits are the tail code of the
  // k-mer ending there, so the rolling chain is one shift and one OR per
  // base.  An ambiguous base rolls in as 0; the memcmp rejects any k-mer
  // holding one, since probes never do.  The filter test runs over blocks
  // of 64 offsets into a hit mask; the rare hits are walked in offset order
  // after each block, off the hot loop.
  std::uint64_t code = 0;
  for (int i = 0; i < k_ - 1; ++i) code = code << 2 | (win[static_cast<std::size_t>(i)] & 3);
  for (int blk = k_ - 1; blk < l_win; blk += 64) {
    const int blk_end = std::min(l_win, blk + 64);
    std::uint64_t hits = 0;
    for (int i = blk; i < blk_end; ++i) {
      code = code << 2 | (win[static_cast<std::size_t>(i)] & 3);
      const std::uint64_t f = mix(code & tail_mask_) >> (64 - kFilterBits);
      if (filter_[f >> 6] >> (f & 63) & 1) hits |= std::uint64_t{1} << (i - blk);
    }
    for (; hits != 0; hits &= hits - 1)
      if (probe_walk(blk + std::countr_zero(hits))) return n;
  }
  return n;
}

}  // namespace mem2::pair
