// Banded Smith-Waterman types shared by the scalar kernel, the inter-task
// SIMD engine and the global (CIGAR) aligner.
//
// Semantics follow BWA-MEM's ksw_extend2 (paper §5.1): seed extension from
// an initial score h0, band of width w around the diagonal, early abort when
// a row is all zero or the best score drops by more than zdrop, band
// adjustment from both row ends after every row.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "seq/dna.h"
#include "util/common.h"

namespace mem2::bsw {

/// Scoring parameters (bwa defaults: a=1, b=4, o=6, e=1, zdrop=100).
struct KswParams {
  int a = 1;        // match score
  int b = 4;        // mismatch penalty (positive)
  int o_del = 6;    // gap open (deletion)
  int e_del = 1;    // gap extend (deletion)
  int o_ins = 6;    // gap open (insertion)
  int e_ins = 1;    // gap extend (insertion)
  int zdrop = 100;  // Z-dropoff; <=0 disables
  int end_bonus = 5;

  /// 5x5 score matrix over {A,C,G,T,N}: match a, mismatch -b, anything
  /// against N scores -1 (bwa_fill_scmat).
  std::array<std::int8_t, 25> matrix() const {
    std::array<std::int8_t, 25> m{};
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j)
        m[static_cast<std::size_t>(i * 5 + j)] =
            i == j ? static_cast<std::int8_t>(a) : static_cast<std::int8_t>(-b);
    for (int i = 0; i < 5; ++i) {
      m[static_cast<std::size_t>(i * 5 + 4)] = -1;
      m[static_cast<std::size_t>(4 * 5 + i)] = -1;
    }
    return m;
  }
};

/// Result of one banded extension (bwa's out-params).
struct KswResult {
  int score = 0;    // best local score (>= h0)
  int qle = 0;      // query end of the best cell (exclusive)
  int tle = 0;      // target end of the best cell (exclusive)
  int gtle = 0;     // target end of the best end-to-end-of-query score
  int gscore = -1;  // best score reaching the end of the query, -1 if none
  int max_off = 0;  // max diagonal offset reached by the best cell

  bool operator==(const KswResult&) const = default;
};

/// One extension task (query/target already oriented; codes 0..4).
struct ExtendJob {
  const seq::Code* query = nullptr;
  int qlen = 0;
  const seq::Code* target = nullptr;
  int tlen = 0;
  int h0 = 0;  // initial score (seed score)
  int w = 0;   // band width
};

/// Scalar banded extension — faithful port of ksw_extend2.  This is both
/// the "Original scalar" BSW of the paper's Table 6 and the reference the
/// SIMD engines must match bit for bit.
KswResult ksw_extend_scalar(const ExtendJob& job, const KswParams& params);

/// CIGAR operation: op in {'M','I','D','S','H'}, len > 0.
struct CigarOp {
  char op;
  int len;
  bool operator==(const CigarOp&) const = default;
};
using Cigar = std::vector<CigarOp>;

std::string cigar_string(const Cigar& cigar);

/// Banded global (Needleman-Wunsch/Gotoh) alignment with traceback; used by
/// SAM-FORM to produce CIGARs (bwa's ksw_global2 role).  Returns the score;
/// fills `cigar` with M/I/D runs covering the full query and target.  Adds
/// the band cells it computes to SwCounters::cigar_dp_cells.
int ksw_global(const seq::Code* query, int qlen, const seq::Code* target,
               int tlen, const KswParams& params, int w, Cigar& cigar);

/// The gapless shortcut for ksw_global on two segments of equal length
/// `len` > 0.  A path with a gap holds at least one insertion and one
/// deletion, so it scores at most (len-1)·max_cell − (o_ins+e_ins) −
/// (o_del+e_del).  When the diagonal's score D beats that bound, the
/// diagonal is the unique best path in every band, so ksw_global returns D
/// with CIGAR lenM at any w; this returns D then, and nothing otherwise.
std::optional<int> ksw_global_gapless(const seq::Code* query,
                                      const seq::Code* target, int len,
                                      const KswParams& params);

}  // namespace mem2::bsw
