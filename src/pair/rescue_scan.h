// Rescue-window anchor scanning kernels.
//
// Mate rescue (mate_rescue.h) needs every short exact match ("anchor")
// between the oriented mate sequence and a reference window implied by the
// insert prior.  The reference formulation is a nested scan — for each
// window offset, memcmp every k-mer probe of the mate — which is
// O(window × probes) memcmps and dominated the PAIR stage (~42% of paired
// single-thread time on the bench genome).
//
// RescueScanner turns that into a few cycles per window base.  The mate's
// probes are indexed ONCE per mate orientation (reused across every window
// of that mate) by their tail code: the 2-bit codes of their last
// min(k, 32) bases packed into one 64-bit word.  The scan rolls the same
// tail code across the window with a shift and an OR — no multiply on the
// dependency chain — and tests it against a 4096-bit filter of the probe
// codes.  Only a filter hit walks the probe table, and only a probe whose
// tail code equals the window's pays a memcmp of the whole k-mer, so a
// k > 32 probe whose last 32 bases match but whose head does not is
// rejected there.  The emitted anchor set is IDENTICAL to the reference
// scan — same probes, same first-anchor-per-diagonal rule, same
// window-order tie-breaks, same max_anchors saturation point — which
// tests/test_rescue_scan.cpp enforces on randomized inputs.
// scan_rescue_anchors() below is that reference implementation, kept as
// the property-test oracle.
//
// Both kernels also report each anchor's maximal exact match run
// (exact_run): the contiguous equal-base stretch through the anchor k-mer.
// A run of min_seed_len or more guarantees the anchor's banded-SW score
// clears finalize_rescue's acceptance threshold (the exact-match path alone
// scores run × a), which is what the driver's determinism-preserving rescue
// skipping keys on.
#pragma once

#include <cstdint>
#include <span>

#include "bsw/ksw.h"
#include "seq/dna.h"

namespace mem2::pair {

/// Hard bound on anchors reported per window (sizes the fixed arrays in
/// RescueAttempt); PairOptions::max_rescue_anchors is validated against it.
inline constexpr int kMaxRescueAnchors = 8;

/// Hard bound on k-mer probes taken from the mate sequence.  Probes sit at
/// non-overlapping query offsets 0, k, 2k, ..., so 101 bp reads with the
/// default k = 11 use 9; the cap only binds for long reads with tiny k and
/// is bounds-tested in tests/test_rescue_scan.cpp.
inline constexpr int kMaxRescueProbes = 64;

/// Upper bound of RescueScanner::build's hash_bits (table slots = 1 << bits).
inline constexpr int kMaxRescueHashBits = 10;

/// The driver's probe-table size exponent: 1 << 7 slots.  It only affects
/// collision-chain length, never the anchor set.
inline constexpr int kRescueHashBits = 7;

/// Longest probe tail the scanner's rolling code holds (2 bits per base in
/// one 64-bit word); longer probes are verified in full by memcmp.
inline constexpr int kRescueTailBases = 32;

/// One exact-match anchor of the oriented mate inside a window, plus the
/// two extension results filled in by the pooled BSW rounds.
struct RescueAnchor {
  int qbeg = 0, tbeg = 0, len = 0;
  /// Maximal exact match run through the anchor: len plus the equal,
  /// unambiguous bases immediately left and right of the k-mer.
  int exact_run = 0;
  bsw::KswResult left, right;
  bool have_left = false, have_right = false;
};

/// Reference scan (the property-test oracle): for each window offset in
/// ascending order, try every probe in ascending query-offset order, keep
/// the first anchor per diagonal, stop at max_anchors.  O(window × probes).
int scan_rescue_anchors(std::span<const seq::Code> seq,
                        std::span<const seq::Code> win, int k, int max_anchors,
                        RescueAnchor* out);

/// The filtered 2-bit anchor scanner.  build() once per (mate,
/// orientation), then scan() every window of that mate; both are
/// allocation-free (all state lives in fixed member arrays).  scan() emits
/// exactly the anchor set of scan_rescue_anchors() on the same inputs.
class RescueScanner {
 public:
  /// Index the k-mer probes of `seq` (query offsets 0, k, 2k, ..., probes
  /// containing an ambiguous base skipped, capped at kMaxRescueProbes) by
  /// tail code into the filter and a 1 << hash_bits slot table.  `seq` is
  /// borrowed and must outlive scan() calls.  hash_bits is clamped to
  /// [1, kMaxRescueHashBits]; table size only affects collision chains,
  /// never the result.
  void build(std::span<const seq::Code> seq, int k, int hash_bits);

  /// Scan one window: one rolled tail code and one filter test per offset,
  /// a probe walk + memcmp on filter hits, first anchor per diagonal, up to
  /// max_anchors (clamped to kMaxRescueAnchors).  Returns the number of
  /// anchors written to `out`.
  int scan(std::span<const seq::Code> win, int max_anchors,
           RescueAnchor* out) const;

  int probe_count() const { return n_probes_; }

 private:
  static constexpr int kFilterBits = 12;  // 4096-bit probe-code filter

  std::span<const seq::Code> seq_;
  int k_ = 0;
  int n_probes_ = 0;
  int bits_ = 1;
  int tail_ = 0;               // min(k, kRescueTailBases)
  std::uint64_t tail_mask_ = 0;  // low 2 * tail_ bits
  // 32-bit offsets: rescue_seed_len has no validated upper bound, so probe
  // offsets (up to kMaxRescueProbes * k) must not narrow-wrap.
  std::int32_t probe_q0_[kMaxRescueProbes];
  std::uint64_t probe_code_[kMaxRescueProbes];  // tail codes
  std::int16_t probe_next_[kMaxRescueProbes];   // slot chains, ascending
  std::int16_t slot_head_[1 << kMaxRescueHashBits];
  std::uint64_t filter_[(1 << kFilterBits) / 64];
};

}  // namespace mem2::pair
