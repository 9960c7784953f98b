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
//                (RescueWindowBuffers below) and scan it for short exact
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
#include <optional>
#include <span>
#include <vector>

#include "align/region.h"
#include "bsw/ksw.h"
#include "index/mem2_index.h"
#include "pair/insert_stats.h"
#include "pair/rescue_scan.h"
#include "seq/dna.h"
#include "seq/pack.h"
#include "util/arena.h"

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
/// views into the batch's RescueWindowBuffers, valid until its next
/// reset().
///
/// Repeat-heavy references produce near-tie anchor regions whose rescue
/// windows are byte-identical; the driver dedups them by content
/// fingerprint before BSW job pooling.  A duplicate attempt carries
/// dup_of >= 0 (the index of the content-identical canonical attempt in the
/// batch's attempt list): it views the canonical attempt's bases, its
/// anchors are copies, it contributes no BSW jobs, and the canonical
/// attempt's extension results are replayed into it before finalize — so
/// dedup never changes output, only work.
struct RescueAttempt {
  std::uint32_t pair = 0;  // pair index within the batch
  std::uint8_t mate = 0;   // which mate is being rescued (0/1)
  bool is_rev = false;
  int rid = -1;
  idx_t win_rb = 0;
  std::int32_t dup_of = -1;  // batch index of the canonical attempt
  std::span<const seq::Code> win, win_rev;  // bases and their reversal
  std::array<RescueAnchor, kMaxRescueAnchors> anchors;
  int n_anchors = 0;
};

/// Rescue-window storage of one batch's harvest, allocation-free once warm:
/// capacity persists across mates and batches.  Each window is fetched
/// with its reversal in one pass into a staging slot; the harvest then
/// either finds it duplicates an earlier window of the same mate (content
/// fingerprint, length and orientation, confirmed by a full compare),
/// keeps it for the batch (it has anchors: its attempt views the copy), or
/// keeps only its bases for the rest of the mate (no anchors: later windows
/// may still duplicate it).
class RescueWindowBuffers {
 public:
  /// Drop every stored window (a new batch); capacity is kept.
  void reset();
  /// Forget the previous mate's windows for dedup.
  void begin_mate();
  /// Fetch window `w` into the staging slot; returns its bases.
  std::span<const seq::Code> stage(const index::Mem2Index& index,
                                   const RescueWindow& w);
  /// The earlier window of this mate the staged one duplicates: nullopt if
  /// none, else its attempt index (-1 for a window kept without anchors).
  std::optional<std::int32_t> find_duplicate() const;
  /// Keep the staged window for the batch as attempt `index`, pointing
  /// at.win / at.win_rev at the copy.
  void keep(RescueAttempt& at, std::int32_t index);
  /// Keep the staged window's bases for this mate's dedup only.
  void keep_anchorless();

 private:
  static constexpr std::size_t kArenaChunk = std::size_t{64} << 10;
  struct Seen {
    std::uint64_t fp = 0;
    const seq::Code* bases = nullptr;
    std::uint32_t len = 0;
    bool is_rev = false;
    std::int32_t attempt = -1;
  };
  std::vector<seq::Code> staged_;  // bases, then their reversal
  std::uint32_t staged_len_ = 0;
  bool staged_rev_ = false;
  std::uint64_t staged_fp_ = 0;
  std::vector<Seen> seen_;           // this mate's earlier windows
  util::Arena batch_{kArenaChunk};   // windows with anchors
  util::Arena mate_{kArenaChunk};    // this mate's anchor-less windows
};

/// Turn the best surviving anchor of one attempt into an AlnReg on the
/// rescued mate (bwa mem_matesw's region construction).  `l_ms` is the mate
/// length; returns false when no anchor reaches min_seed_len * a.
bool finalize_rescue(const align::MemOptions& opt, idx_t l_pac,
                     const RescueAttempt& attempt, int l_ms, float frac_rep,
                     align::AlnReg* out);

}  // namespace mem2::pair
