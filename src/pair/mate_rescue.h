// Mate rescue (bwa mem_matesw), reformulated as pooled banded-SW jobs.
//
// When one mate of a pair is unaligned — or aligned nowhere near where the
// insert-size prior says it should be — bwa runs a full Smith-Waterman of
// that mate against the reference window implied by the other mate's
// position.  We do not carry a standalone SW-with-start-traceback kernel;
// instead rescue is seed-and-extend over the SAME inter-task BSW machinery
// as regular extension:
//
//   1. window:   compute the doubled-coordinate window for each non-failed
//                orientation class (bwa's rb/re formulas), clamped to one
//                strand and one contig;
//   2. anchors:  scan the window for short exact matches (rescue_seed_len,
//                default 11 < min_seed_len, so rescue can seed reads whose
//                SMEM seeding failed) of the expected-orientation mate
//                sequence — at most one anchor per diagonal, first-seen
//                order, capped at max_rescue_anchors.  The scan is the
//                rolling-hash RescueScanner (rescue_scan.h), whose anchor
//                set is identical to the reference nested memcmp scan;
//   3. extend:   every anchor becomes a left-extension job, then a
//                right-extension job with the left score as h0 — two of
//                the batch driver's pooled BSW rounds, the same primitive
//                that runs seed extension, spliced in pair order;
//   4. finalize: the best-scoring anchor (ties: smaller window offset)
//                whose score reaches min_seed_len * a becomes a new AlnReg
//                on the rescued mate, flagged `rescued`.
//
// Everything here is deterministic: windows depend only on the pair's own
// regions and the session-wide insert stats; anchors are scanned in window
// order; job pools are spliced in pair order.
#pragma once

#include <array>
#include <span>
#include <vector>

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

/// One rescue attempt: a window of one orientation class for one mate of a
/// pair, with its fetched reference bases and surviving anchors.  Windows
/// are fetched fresh per batch (like the chain windows in ChainRef), so the
/// PAIR stage allocates per batch — a documented exception to the batch
/// driver's steady-state zero-allocation discipline.
///
/// Repeat-heavy references produce near-tie anchor regions whose rescue
/// windows are byte-identical; the driver dedups them by content
/// fingerprint before BSW job pooling.  A duplicate attempt carries
/// dup_of >= 0 (the index of the content-identical canonical attempt in the
/// spliced batch list): its anchors are copies, it contributes no BSW jobs,
/// and the canonical attempt's extension results are replayed into it
/// before finalize — so dedup never changes output, only work.
struct RescueAttempt {
  std::uint32_t pair = 0;  // pair index within the batch
  std::uint8_t mate = 0;   // which mate is being rescued (0/1)
  bool is_rev = false;
  int rid = -1;
  idx_t win_rb = 0;
  std::int32_t dup_of = -1;   // spliced index of the canonical attempt
  std::uint64_t fp = 0;       // window-content fingerprint (dedup key)
  std::vector<seq::Code> win, win_rev;  // win_rev empty for duplicates
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
