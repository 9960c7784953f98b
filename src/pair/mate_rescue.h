// Mate rescue (bwa mem_matesw), reformulated as pooled banded-SW jobs.
//
// When one mate of a pair is unaligned — or aligned nowhere near where the
// insert-size prior says it should be — bwa runs a full Smith-Waterman of
// that mate against the reference window implied by the other mate's
// position.  We do not carry a standalone SW-with-start-traceback kernel;
// instead rescue is seed-and-extend over the SAME inter-task BSW machinery
// as regular extension:
//
//   1. window:   compute the doubled-coordinate window for each
//                orientation class that is neither failed nor satisfied by
//                an existing mate region (satisfied_dirs: one binary search
//                per class over the mate's sorted region starts), using
//                bwa's rb/re formulas, clamped to one strand and one contig;
//   2. anchors:  fetch the window and its reversal in one pass
//                (Mem2Index::fetch) and scan it for short exact
//                matches (rescue_seed_len, default 11 < min_seed_len, so
//                rescue can seed reads whose SMEM seeding failed) of the
//                expected-orientation mate sequence — at most one anchor
//                per diagonal, first-seen order, capped at
//                max_rescue_anchors.  The scan is the filtered 2-bit
//                RescueScanner (rescue_scan.h), whose anchor set is
//                identical to the reference nested memcmp scan;
//   3. extend:   every anchor becomes a left-extension job, then a
//                right-extension job with the left score as h0 — two of
//                the batch driver's pooled BSW rounds, the same primitive
//                that runs seed extension, enumerated in pair order;
//   4. finalize: the best-scoring anchor (ties: smaller window offset)
//                whose score reaches min_seed_len * a becomes a new AlnReg
//                on the rescued mate, flagged `rescued`.
//
// Everything here is deterministic: windows depend only on the pair's own
// regions and the session-wide insert stats; anchors are scanned in window
// order; job pools are enumerated in pair order.
#pragma once

#include <array>
#include <span>

#include "align/region.h"
#include "bsw/ksw.h"
#include "pair/insert_stats.h"
#include "pair/rescue_scan.h"
#include "seq/dna.h"
#include "seq/pack.h"

namespace mem2::pair {

/// Doubled-coordinate rescue window for anchor region `a` and orientation
/// class `dir`; false when the window is empty, crosses onto the wrong
/// contig, or is shorter than the anchor seed.
struct RescueWindow {
  idx_t rb = 0, re = 0;  // doubled coordinates, [rb, re)
  bool is_rev = false;   // mate sequence must be reverse-complemented
};
bool rescue_window(const seq::Reference& ref, idx_t l_pac, const align::AlnReg& a,
                   const DirStats& pes, int dir, int l_ms, int min_len,
                   RescueWindow* out);

/// bwa mem_matesw's skip[] pass for anchor region start `b1`: sets
/// skip[d] for every orientation class d that some mate region already
/// satisfies, i.e. infer_dir(l_pac, b1, m.rb) == d at a distance within
/// pes.dir[d]'s [low, high].  `mate_rb` holds the mate regions' rb values,
/// sorted ascending, so each class is one binary search instead of a loop
/// over the mate's regions.  Failed classes are left as they are.
void satisfied_dirs(idx_t l_pac, idx_t b1, std::span<const idx_t> mate_rb,
                    const InsertStats& pes, bool skip[4]);

/// One rescue attempt: a window of one orientation class for one mate of a
/// pair, with its reference bases and surviving anchors.  The bases are
/// views into the batch arena, valid until the next batch.
struct RescueAttempt {
  std::uint32_t pair = 0;  // pair index within the batch
  std::uint8_t mate = 0;   // which mate is being rescued (0/1)
  bool is_rev = false;
  int rid = -1;
  idx_t win_rb = 0;
  std::span<const seq::Code> win, win_rev;  // bases and their reversal
  std::array<RescueAnchor, kMaxRescueAnchors> anchors;
  int n_anchors = 0;
};

/// Turn the best surviving anchor of one attempt into an AlnReg on the
/// rescued mate (bwa mem_matesw's region construction).  `l_ms` is the mate
/// length; returns false when no anchor reaches min_seed_len * a.
bool finalize_rescue(const align::MemOptions& opt, idx_t l_pac,
                     const RescueAttempt& attempt, int l_ms, float frac_rep,
                     align::AlnReg* out);

}  // namespace mem2::pair
