// Insert-size distribution estimation (bwa mem_pestat).
//
// Paired-end decisions — pair scoring, proper-pair flagging, mate-rescue
// window placement — all rest on the insert-size prior.  bwa estimates it
// per chunk of reads, which makes output depend on the chunk size; we
// instead estimate it ONCE per streaming session from a fixed-length
// calibration prefix (the first PairOptions::stat_pairs pairs in submission
// order), so paired output is deterministic across thread counts, chunk
// sizes and batch sizes, exactly like single-end output.
//
// Orientation classes follow bwa's mem_infer_dir encoding:
//   0 = FF, 1 = FR (standard Illumina), 2 = RF, 3 = RR.
// A class with too few high-confidence unique pairs is marked failed and
// takes no part in pairing or rescue.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "util/common.h"

namespace mem2::pair {

/// Knobs of the paired-end subsystem (constants from bwa bwamem_pair.c plus
/// the rescue-anchor parameters of our seed-and-extend mate rescue).
struct PairOptions {
  int stat_pairs = 512;        // calibration prefix length (pairs)
  int min_dir_count = 10;      // bwa MIN_DIR_CNT
  double min_dir_ratio = 0.05; // bwa MIN_DIR_RATIO (of the dominant class)
  double min_unique_ratio = 0.8;  // bwa MIN_RATIO: sub/best above this = ambiguous
  double outlier_bound = 2.0;  // bwa OUTLIER_BOUND (IQR multiplier)
  double mapping_bound = 3.0;  // bwa MAPPING_BOUND (IQR multiplier for low/high)
  double max_stddev = 4.0;     // bwa MAX_STDDEV (sigma multiplier for low/high)
  int max_ins = 10000;         // ignore samples beyond this insert (bwa opt->max_ins)
  int pen_unpaired = 17;       // bwa -U: pairing vs best-single-end penalty
  int max_matesw = 50;         // bwa -m: rescue attempts per mate
  int rescue_seed_len = 11;    // exact-anchor length for rescue seeding
  int max_rescue_anchors = 4;  // candidate diagonals evaluated per window
  /// Determinism-preserving rescue skipping (bwa mem_matesw's sequential
  /// stop-when-satisfied behavior, reformulated): windows of one pair are
  /// evaluated in a fixed canonical order (anchor region rank, then
  /// orientation class), and once a window's anchor has an exact match run
  /// >= min_seed_len — which guarantees an accepted rescue for that mate
  /// and orientation — later windows of the same (mate, orientation) are
  /// skipped before fetch.  Per-pair state only, so output stays invariant
  /// across threads/chunkings/batch sizes; disable for a byte-exact A/B
  /// against the skip-free scan-everything behavior.
  bool rescue_skip = true;
};

/// One orientation class of the insert-size distribution.
struct DirStats {
  bool failed = true;
  double mean = 0.0;
  double std = 1.0;
  int low = 0, high = 0;       // accepted insert range [low, high]
  std::uint64_t count = 0;     // high-confidence samples observed
};

struct InsertStats {
  DirStats dir[4];             // FF, FR, RF, RR
  std::uint64_t pairs_sampled = 0;  // pairs that contributed a sample

  bool any() const {
    for (const auto& d : dir)
      if (!d.failed) return true;
    return false;
  }
  std::string summary() const;
};

/// bwa mem_infer_dir: orientation class and distance between two alignment
/// start positions in the doubled coordinate space.  `dist` receives the
/// insert-size proxy (leftmost point of one mate to the projected point of
/// the other on its strand).
inline int infer_dir(idx_t l_pac, idx_t b1, idx_t b2, idx_t* dist) {
  const bool r1 = b1 >= l_pac, r2 = b2 >= l_pac;
  const idx_t p2 = r1 == r2 ? b2 : 2 * l_pac - 1 - b2;
  *dist = p2 > b1 ? p2 - b1 : b1 - p2;
  return (r1 == r2 ? 0 : 1) ^ (p2 > b1 ? 0 : 3);
}

/// One high-confidence (orientation, distance) observation.
struct InsertSample {
  int dir = 0;
  idx_t dist = 0;
};

/// bwa mem_pestat over pre-extracted samples: per-class percentile bounds,
/// outlier-trimmed mean/std, and the accepted [low, high] range.  Samples
/// beyond opt.max_ins or below 1 are ignored; classes below the count/ratio
/// thresholds are marked failed.  Deterministic: depends only on the sample
/// multiset order.
InsertStats estimate_insert_stats(std::span<const InsertSample> samples,
                                  const PairOptions& opt);

}  // namespace mem2::pair
