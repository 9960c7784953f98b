// Banded global alignment with traceback (Gotoh affine gaps) — fills the
// role of bwa's ksw_global2 in SAM formation: once a region's endpoints are
// fixed by the extension kernel, the CIGAR comes from a global alignment of
// the clipped query segment against the reference segment.  The DP keeps
// traceback for the band only, in per-thread scratch; ksw_global_gapless
// resolves equal-length segments whose diagonal provably wins without it.
#include <algorithm>
#include <cstdlib>
#include <limits>

#include "bsw/ksw.h"
#include "util/sw_counters.h"

namespace mem2::bsw {

namespace {

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

/// Per-thread DP rows and band traceback, grown on demand and never
/// shrunk, so steady-state CIGAR formation allocates nothing.
struct GlobalScratch {
  std::vector<std::int32_t> h, e;
  std::vector<std::uint8_t> tb;
  void reserve(std::size_t width, std::size_t tb_cells) {
    if (h.size() < width) {
      h.resize(width);
      e.resize(width);
    }
    if (tb.size() < tb_cells) tb.resize(tb_cells);
  }
};

void push_op(Cigar& cigar, char op, int len) {
  if (len <= 0) return;
  if (!cigar.empty() && cigar.back().op == op)
    cigar.back().len += len;
  else
    cigar.push_back({op, len});
}

}  // namespace

std::optional<int> ksw_global_gapless(const seq::Code* query,
                                      const seq::Code* target, int len,
                                      const KswParams& p) {
  if (len <= 0) return std::nullopt;
  const auto mat = p.matrix();
  int diag = 0;
  for (int i = 0; i < len; ++i)
    diag += mat[static_cast<std::size_t>(target[i] * 5 + query[i])];
  // A path with a gap between equal lengths holds an insertion and a
  // deletion, so it aligns at most len - 1 cell pairs.
  const int best_cell = *std::max_element(mat.begin(), mat.end());
  const int gapped_bound =
      (len - 1) * best_cell - (p.o_ins + p.e_ins) - (p.o_del + p.e_del);
  if (diag <= gapped_bound) return std::nullopt;
  return diag;
}

int ksw_global(const seq::Code* query, int qlen, const seq::Code* target,
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

  // Traceback is stored for the band only: row i keeps columns
  // [lo(i), lo(i) + stride), lo(i) = max(0, i - w - 1), which holds the
  // band [i - w, i + w] plus column i - w - 1 (column 0 while the band
  // touches it).  Scratch is per thread and only grows.
  const std::size_t stride =
      static_cast<std::size_t>(std::min(2 * w + 2, qlen + 1));
  const auto lo = [w](int i) { return std::max(0, i - w - 1); };
  thread_local GlobalScratch scratch;
  scratch.reserve(static_cast<std::size_t>(qlen) + 1,
                  static_cast<std::size_t>(tlen + 1) * stride);
  std::int32_t* h = scratch.h.data();
  std::int32_t* e = scratch.e.data();
  std::uint8_t* tb = scratch.tb.data();

  // Row 0: only insertions.
  h[0] = 0;
  e[0] = kNegInf;
  for (int j = 1; j <= qlen; ++j) {
    h[j] = j <= w ? -(p.o_ins + p.e_ins * j) : kNegInf;
    e[j] = kNegInf;
    if (static_cast<std::size_t>(j) < stride) tb[j] = kFromIns | kInsExt;
  }

  std::uint64_t cells = 0;
  for (int i = 1; i <= tlen; ++i) {
    const int beg = std::max(1, i - w);
    const int end = std::min(qlen, i + w);
    cells += static_cast<std::uint64_t>(end - beg + 1);
    std::uint8_t* tb_row = tb + static_cast<std::size_t>(i) * stride - lo(i);
    std::int32_t h_diag = h[beg - 1];  // H(i-1, beg-1)
    // Column beg-1 of this row.
    std::int32_t h_left;
    if (beg == 1) {
      h_left = -(p.o_del + p.e_del * i);
      tb_row[0] = kFromDel | kDelExt;
    } else {
      h_left = kNegInf;
    }
    h[beg - 1] = h_left;
    std::int32_t f = kNegInf;
    const std::int8_t* mrow = mat.data() + target[i - 1] * 5;

    for (int j = beg; j <= end; ++j) {
      // E (deletion, vertical): from H(i-1, j) or E(i-1, j).
      const std::int32_t h_up = h[j];
      const std::int32_t e_open = h_up - oe_del;
      const std::int32_t e_ext = e[j] - p.e_del;
      const std::int32_t e_cur = std::max(e_open, e_ext);

      // F (insertion, horizontal): from H(i, j-1) or F(i, j-1).
      const std::int32_t f_open = h_left - oe_ins;
      const std::int32_t f_ext = f - p.e_ins;
      const std::int32_t f_cur = std::max(f_open, f_ext);

      // H: diagonal vs E vs F (prefer diagonal on ties, then deletion —
      // matches ksw_global's choice order).  The winner is data-dependent,
      // so the traceback byte is built from comparison bits, not branches.
      const std::int32_t diag = h_diag + mrow[query[j - 1]];
      const unsigned del_wins = e_cur > diag;
      std::int32_t best = std::max(diag, e_cur);
      const unsigned ins_wins = f_cur > best;
      best = std::max(best, f_cur);
      tb_row[j] = static_cast<std::uint8_t>(
          (del_wins & (ins_wins ^ 1u)) * kFromDel | ins_wins * kFromIns |
          static_cast<unsigned>(e_ext > e_open) * kDelExt |
          static_cast<unsigned>(f_ext > f_open) * kInsExt);

      h_diag = h_up;
      h[j] = best;
      e[j] = e_cur;
      f = f_cur;
      h_left = best;
    }
    // Kill columns outside the band for the next row.
    if (end < qlen) h[end + 1] = kNegInf;
    if (beg > 1) e[beg - 1] = kNegInf;
  }
  util::tls_counters().cigar_dp_cells += cells;

  const int score = h[qlen];

  // Traceback from (tlen, qlen): a three-state machine (H, deletion run,
  // insertion run); extension flags decide whether a gap run continues.
  // Runs are pushed end first, then the CIGAR is reversed.
  int i = tlen, j = qlen;
  int state = 0;  // 0 = H, 1 = in deletion (E), 2 = in insertion (F)
  while (i > 0 || j > 0) {
    const std::size_t col = static_cast<std::size_t>(j - lo(i));
    MEM2_REQUIRE(j >= lo(i) && col < stride, "global traceback left the band");
    const std::uint8_t dir = tb[static_cast<std::size_t>(i) * stride + col];
    if (state == 0) {
      const std::uint8_t from = dir & kHMask;
      if (from == kFromDiag) {
        MEM2_REQUIRE(i > 0 && j > 0, "global traceback escaped the matrix");
        push_op(cigar, 'M', 1);
        --i;
        --j;
      } else if (from == kFromDel) {
        state = 1;  // re-read this cell in deletion state
      } else {
        state = 2;
      }
    } else if (state == 1) {
      push_op(cigar, 'D', 1);
      state = (dir & kDelExt) != 0 ? 1 : 0;
      --i;
    } else {
      push_op(cigar, 'I', 1);
      state = (dir & kInsExt) != 0 ? 2 : 0;
      --j;
    }
  }
  std::reverse(cigar.begin(), cigar.end());
  return score;
}

}  // namespace mem2::bsw
