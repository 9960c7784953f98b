// Shared template implementation of the inter-task BSW engine.
//
// Included ONLY by the per-ISA translation units (bsw_engine_scalar.cpp,
// bsw_engine_avx2.cpp, bsw_engine_avx512.cpp), each of which supplies a
// vector abstraction V:
//
//   struct V {
//     static constexpr int W;        // lane count
//     using elem;                    // uint8_t or uint16_t
//     using Mask;                    // one bit or one 0/~0 lane per lane;
//                                    // supports &, |, ~
//     static V zero(); set1(int); load(const elem*);
//     void store(elem*) const;
//     static void store_masked(elem*, Mask, V);  // lanes in Mask only
//     add(a,b) sub(a,b)              // wrapping
//     adds(a,b) subs(a,b)            // unsigned saturating
//     vmax(a,b) vmin(a,b)
//     static Mask cmpeq(a,b), cmpgt(a,b)          // unsigned compares
//     blend(m,a,b)                   // m ? a : b, per lane
//     any(m) count(m)                // some lane set / lanes set
//     hmin(a) hmax(a) hsum(a)        // horizontal reductions, as int
//   };
//
// The algorithm mirrors ksw_extend_scalar lane for lane.  Unsigned
// saturating arithmetic replaces the scalar signed max(...,0) clamps; the
// bias trick (score + b stored, then subtracted) keeps the per-cell match
// score non-negative.
//
// Per-lane state lives in registers: band ends, best score and column,
// the end-of-query score and the live-lane mask are lane-width vectors, and
// every per-row step — band entry (paper §5.4 "band adjustment I"), the
// eh[end] write, the max/z-drop/abort epilogue and the band shrink ("band
// adjustment II") — is a handful of whole-register operations.  State
// indexed by row (best row, end-of-query row, diagonal offset) outgrows a
// byte, so it sits in int16 (8-bit engine) or int32 lane arrays updated by
// branch-free loops that the compiler vectorizes at the translation unit's
// ISA width.  Table 8 (bench_bsw_breakdown) measures the four phases.
// Scratch memory is thread-local and reused across chunks (the §3.2
// allocation policy).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "bsw/bsw_engine.h"
#include "seq/dna.h"
#include "util/sw_counters.h"
#include "util/tsc.h"

namespace mem2::bsw::detail {

/// Per-thread scratch reused across engine invocations.  reserve() must be
/// called with the total requirement BEFORE slicing: slices alias the one
/// backing buffer, so growing it mid-call would invalidate earlier slices.
struct BswScratch {
  std::vector<std::uint8_t> bytes;
  std::size_t offset = 0;

  void reserve(std::size_t total) {
    if (bytes.size() < total) bytes.resize(total);
    offset = 0;
  }

  template <typename T>
  T* slice(std::size_t count) {
    offset = (offset + 63) & ~std::size_t{63};
    T* p = reinterpret_cast<T*>(bytes.data() + offset);
    offset += count * sizeof(T);
    MEM2_REQUIRE(offset <= bytes.size(), "BSW scratch overflow");
    return p;
  }
};

inline BswScratch& tls_scratch() {
  thread_local BswScratch scratch;
  return scratch;
}

/// Band clamp by the longest gap the query can pay for (ksw_extend2's
/// max_ins/max_del): max(1, (qlen*a + end_bonus - o) / e + 1).  Integer
/// division truncates like the scalar kernel's double-to-int cast, and any
/// negative numerator lands on the clamp of 1 either way.
inline int max_gap(int qlen, const KswParams& p, int o, int e) {
  return std::max(1, (qlen * p.a + p.end_bonus - o) / e + 1);
}

inline std::size_t round16(int x) { return (static_cast<std::size_t>(x) + 15) & ~std::size_t{15}; }

#if defined(__SSE2__)
/// dst[c * stride + l] = row l's byte c, for a 16 x 16 byte block: four
/// rounds of unpacks (bytes, words, dwords, qwords).  elem = uint16_t
/// zero-extends each output row.
template <typename elem>
void transpose_16x16(const __m128i rows[16], elem* dst, std::size_t stride) {
  __m128i a[16], b[16];
  for (int i = 0; i < 8; ++i) {  // a[i]: lanes 2i, 2i+1 x columns 0-7; a[i+8]: 8-15
    a[i] = _mm_unpacklo_epi8(rows[2 * i], rows[2 * i + 1]);
    a[i + 8] = _mm_unpackhi_epi8(rows[2 * i], rows[2 * i + 1]);
  }
  for (int h = 0; h < 16; h += 8) {  // b[4*cg + m]: lanes 4m..4m+3 x columns 4cg..4cg+3
    for (int i = 0; i < 4; ++i) {
      b[h + i] = _mm_unpacklo_epi16(a[h + 2 * i], a[h + 2 * i + 1]);
      b[h + i + 4] = _mm_unpackhi_epi16(a[h + 2 * i], a[h + 2 * i + 1]);
    }
  }
  auto put = [&](int c, __m128i v) {
    elem* d = dst + static_cast<std::size_t>(c) * stride;
    if constexpr (sizeof(elem) == 1) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(d), v);
    } else {
      const __m128i zero = _mm_setzero_si128();
      _mm_storeu_si128(reinterpret_cast<__m128i*>(d), _mm_unpacklo_epi8(v, zero));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(d + 8), _mm_unpackhi_epi8(v, zero));
    }
  };
  for (int cg = 0; cg < 4; ++cg) {
    const __m128i lo0 = _mm_unpacklo_epi32(b[4 * cg], b[4 * cg + 1]);  // lanes 0-7
    const __m128i hi0 = _mm_unpackhi_epi32(b[4 * cg], b[4 * cg + 1]);
    const __m128i lo1 = _mm_unpacklo_epi32(b[4 * cg + 2], b[4 * cg + 3]);  // lanes 8-15
    const __m128i hi1 = _mm_unpackhi_epi32(b[4 * cg + 2], b[4 * cg + 3]);
    put(4 * cg, _mm_unpacklo_epi64(lo0, lo1));
    put(4 * cg + 1, _mm_unpackhi_epi64(lo0, lo1));
    put(4 * cg + 2, _mm_unpacklo_epi64(hi0, hi1));
    put(4 * cg + 3, _mm_unpackhi_epi64(hi0, hi1));
  }
}
#endif

/// AoS -> SoA (paper §5.3.3): dst[j * W + z] = seq[z][j] for j < len[z].
/// Other slots below round16(max len) rows are zero or stale; the engine
/// masks them.  With SSE2 and W a multiple of 16, 16 x 16 blocks are
/// transposed in registers; otherwise one byte at a time.
template <typename elem, int W>
void to_soa(const seq::Code* const* seq, const int* len, int n, int rows, elem* dst) {
#if defined(__SSE2__)
  if constexpr (W % 16 == 0) {
    for (int g = 0; g * 16 < n; ++g) {
      for (int j0 = 0; j0 < rows; j0 += 16) {
        __m128i r[16];
        for (int l = 0; l < 16; ++l) {
          const int z = g * 16 + l;
          const int left = z < n ? len[z] - j0 : 0;
          if (left >= 16) {
            r[l] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(seq[z] + j0));
          } else {
            alignas(16) seq::Code tail[16] = {};
            if (left > 0) std::memcpy(tail, seq[z] + j0, static_cast<std::size_t>(left));
            r[l] = _mm_load_si128(reinterpret_cast<const __m128i*>(tail));
          }
        }
        elem* block = dst + static_cast<std::size_t>(j0) * W + static_cast<std::size_t>(g) * 16;
        transpose_16x16(r, block, W);
      }
    }
    return;
  }
#endif
  for (int z = 0; z < n; ++z)
    for (int j = 0; j < len[z]; ++j)
      dst[static_cast<std::size_t>(j) * W + static_cast<std::size_t>(z)] = seq[z][j];
}

template <class V>
void bsw_extend_inter_task(const ExtendJob* jobs, KswResult* out, int n,
                           const KswParams& p, BswBreakdown* bd) {
  using elem = typename V::elem;
  using Mask = typename V::Mask;
  constexpr int W = V::W;
  constexpr int kElemMax = std::numeric_limits<elem>::max();
  MEM2_REQUIRE(n >= 1 && n <= W, "batch size exceeds engine width");

  // Phase clock: raw TSC ticks per phase, converted once at the end.
  enum Phase { kPre, kBand1, kCells, kBand2 };
  std::uint64_t ticks[4] = {};
  std::uint64_t tick = bd ? util::tsc_now() : 0;
  auto phase_end = [&](Phase ph) {
    if (!bd) return;
    const std::uint64_t now = util::tsc_now();
    ticks[ph] += now - tick;
    tick = now;
  };
  // Splat a non-negative penalty, saturated to the lane range: subtracting
  // kElemMax already floors every lane value at zero.
  auto splat = [](long long x) {
    return V::set1(static_cast<int>(std::clamp<long long>(x, 0, kElemMax)));
  };

  // ---------------- pre-processing (Table 8 "Pre-processing") ------------
  // Lane setup.  Lanes beyond n keep qlen = tlen = 0 and start dead.
  // hi0 = min(w, qlen): band end before row 0's +1 step.
  alignas(64) elem qlen_a[W] = {}, h0_a[W] = {}, hi0_a[W] = {};
  // Row-indexed state, wider than a lane.  Band width and target length
  // are read at lane events only; best row + 1 (tle), end-of-query row + 1
  // (gtle) and the max diagonal offset are updated per row in Row lanes:
  // 16-bit for the 8-bit engine (fits_8bit caps tlen), int32 otherwise.
  using Row = std::conditional_t<sizeof(elem) == 1, std::int16_t, std::int32_t>;
  alignas(64) std::int32_t wband[W] = {}, tlen[W] = {};
  alignas(64) Row tle[W] = {}, gtle[W] = {}, max_off[W] = {};
  int max_qlen = 0, max_tlen = 0;
  for (int z = 0; z < n; ++z) {
    const ExtendJob& job = jobs[z];
    MEM2_REQUIRE(job.qlen > 0 && job.tlen > 0, "empty BSW job");
    MEM2_REQUIRE(job.qlen < kElemMax && job.h0 <= kElemMax &&
                     job.tlen < std::numeric_limits<Row>::max(),
                 "BSW job exceeds the engine's lane precision");
    qlen_a[z] = static_cast<elem>(job.qlen);
    h0_a[z] = static_cast<elem>(job.h0);
    tlen[z] = job.tlen;
    wband[z] = std::max(0, std::min({job.w, max_gap(job.qlen, p, p.o_ins, p.e_ins),
                                     max_gap(job.qlen, p, p.o_del, p.e_del)}));
    hi0_a[z] = static_cast<elem>(std::min(wband[z], job.qlen));
    max_qlen = std::max(max_qlen, job.qlen);
    max_tlen = std::max(max_tlen, job.tlen);
  }
  auto& ctr = util::tls_counters();
  ctr.bsw_pairs += static_cast<std::uint64_t>(n);

  // Thread-local scratch: no allocations in steady state (§3.2).  The query
  // arrays and eh carry two columns past max_qlen - 1: the eh[end] column
  // and a padding column for the band shrink.
  BswScratch& scratch = tls_scratch();
  const std::size_t q_elems = round16(max_qlen + 2) * W;
  const std::size_t t_elems = round16(max_tlen) * W;
  scratch.reserve((4 * q_elems + t_elems) * sizeof(elem) + 5 * 64);
  elem* q_soa = scratch.slice<elem>(q_elems);
  elem* qn_soa = scratch.slice<elem>(q_elems);
  elem* t_soa = scratch.slice<elem>(t_elems);
  elem* eh_h = scratch.slice<elem>(q_elems);
  elem* eh_e = scratch.slice<elem>(q_elems);
  auto col = [](elem* base, int j) { return base + static_cast<std::size_t>(j) * W; };

  {
    const seq::Code* seqs[W];
    int lens[W];
    for (int z = 0; z < n; ++z) {
      seqs[z] = jobs[z].query;
      lens[z] = jobs[z].qlen;
    }
    to_soa<elem, W>(seqs, lens, n, max_qlen, q_soa);
    for (int z = 0; z < n; ++z) {
      seqs[z] = jobs[z].target;
      lens[z] = jobs[z].tlen;
    }
    to_soa<elem, W>(seqs, lens, n, max_tlen, t_soa);
  }

  const int bias = std::max(p.b, 1);
  const V v_zero = V::zero();
  const V v_one = V::set1(1);
  const V v_three = V::set1(3);
  const V v_full = V::set1(kElemMax);
  const V v_bias = V::set1(bias);
  const V v_match = V::set1(bias + p.a);
  const V v_amb = V::set1(bias - 1);  // score -1 vs ambiguous bases
  const V v_n = V::set1(seq::kAmbig);
  const int oe_del = p.o_del + p.e_del, oe_ins = p.o_ins + p.e_ins;
  const V v_oe_del = splat(oe_del);
  const V v_e_del = splat(p.e_del);
  const V v_oe_ins = splat(oe_ins);
  const V v_e_ins = splat(p.e_ins);
  const V v_qlen = V::load(qlen_a);
  const V v_h0 = V::load(h0_a);

  // An ambiguous query base becomes kElemMax, which equals no target code,
  // and its column of qn_soa holds the bias-1 score; the cell loop then
  // scores with one compare, one max and one blend.
  for (int j = 0; j < max_qlen; ++j) {
    const V q = V::load(col(q_soa, j));
    const Mask amb = V::cmpeq(q, v_n);
    V::blend(amb, v_full, q).store(col(q_soa, j));
    V::blend(amb, v_amb, v_zero).store(col(qn_soa, j));
  }

  // First row: h0, h0 - oe_ins, then -e_ins steps floored at zero (the
  // scalar loop stops at the first value <= e_ins; saturation gives the
  // same zeros).  Columns past a lane's qlen are never read for that lane.
  std::memset(eh_e, 0, q_elems * sizeof(elem));
  {
    V h = v_h0;
    h.store(eh_h);
    h = V::subs(h, v_oe_ins);
    int j = 1;
    for (; j <= max_qlen && V::any(V::cmpgt(h, v_zero)); ++j) {
      h.store(col(eh_h, j));
      h = V::subs(h, v_e_ins);
    }
    std::memset(col(eh_h, j), 0, (q_elems - static_cast<std::size_t>(j) * W) * sizeof(elem));
  }

  // Lane-width state.  qle and gs1 hold max_j + 1 and gscore + 1, so the
  // scalar kernel's -1 "none" reads as zero.  lo/hi are the band limits
  // clamp(i - w, 0, qlen) and clamp(i + w + 1, 0, qlen), stepped per row.
  V begv = v_zero, endv = v_qlen, maxv = v_h0, qle = v_zero, gs1 = v_zero;
  V lo = v_zero, hi = V::load(hi0_a);
  Mask alive = V::cmpgt(v_qlen, v_zero);  // not aborted and i < tlen
  Mask sliding = V::cmpgt(v_zero, v_zero);  // i > w: lo steps with i

  // z-drop needs maxv - m > zdrop, and maxv - m fits a lane.
  const bool zdrop_on = p.zdrop > 0 && p.zdrop < kElemMax;
  const V v_zdrop = splat(p.zdrop);

  alignas(64) elem mj_a[W], m_a[W], maxv_a[W], qle_a[W], flag_a[W], flag2_a[W];
  // alive and sliding change only at rows tlen and w + 1 of some lane:
  // they are rebuilt from the wide arrays at those rows alone.
  int next_event = 0;

  phase_end(kPre);

  // ---------------- row loop ---------------------------------------------
  for (int i = 0; i < max_tlen; ++i) {
    // --- band entry (Table 8 "Band adjustment I") ---
    if (i == next_event) {
      next_event = max_tlen;
      for (int z = 0; z < W; ++z) {
        const bool live = tlen[z] > i;
        flag_a[z] = live ? elem{1} : elem{0};
        flag2_a[z] = i > wband[z] ? elem{1} : elem{0};
        next_event = std::min({next_event, live ? tlen[z] : max_tlen,
                               live && wband[z] >= i ? wband[z] + 1 : max_tlen});
      }
      alive = alive & V::cmpgt(V::load(flag_a), v_zero);
      sliding = V::cmpgt(V::load(flag2_a), v_zero);
    }
    if (!V::any(alive)) {
      phase_end(kBand1);
      break;
    }
    // beg = max(beg, i - w), end = min(end, i + w + 1, qlen).  Once i - w
    // passes qlen the band is empty and the lane dies this row.
    lo = V::blend(sliding, V::vmin(V::adds(lo, v_one), v_qlen), v_zero);
    hi = V::vmin(V::adds(hi, v_one), v_qlen);
    begv = V::vmax(begv, lo);
    endv = V::vmin(endv, hi);
    // First column: h0 - (o_del + e_del*(i+1)), floored, where beg == 0.
    V h1 = V::blend(V::cmpeq(begv, v_zero),
                    V::subs(v_h0, splat(p.o_del + static_cast<long long>(p.e_del) * (i + 1))),
                    v_zero);
    const int row_beg = V::hmin(V::blend(alive, begv, v_full));
    const int row_end = V::hmax(V::blend(alive, endv, v_zero));
    const V t_i = V::load(col(t_soa, i));
    const V tn_i = V::blend(V::cmpeq(t_i, v_n), v_amb, v_zero);
    const V h1_beg = h1;  // eh[beg].h once the row is done
    V f = v_zero;
    V m = v_zero;
    V mj = v_zero;  // best column of the row, as an offset from beg
    V last = v_zero;  // last column with H > 0, as an offset from beg
    phase_end(kBand1);

    // ---------------- cell loop (Table 8 "Cell computations") ------------
    // Columns beg..end per lane: cells at j < end, and at j == end the
    // eh[end] = (h1, 0) write that closes the row.  rel = j - beg wraps
    // past every lane range for j < beg, so one unsigned compare against
    // len = end - beg places the column: rel < len in band, rel == len at
    // eh[end].
    const V len = V::subs(endv, begv);
    V rel = V::sub(V::set1(row_beg), begv);
    for (int j = row_beg; j <= row_end; ++j, rel = V::add(rel, v_one)) {
      const Mask span = alive & ~V::cmpgt(rel, len);
      const Mask in = alive & V::cmpgt(len, rel);

      elem* ph = col(eh_h, j);
      elem* pe = col(eh_e, j);
      const V Hdiag = V::load(ph);  // H(i-1, j-1)
      const V E = V::load(pe);      // E(i, j)

      // p->h = h1 (store H(i, j-1) for the next row).
      V::store_masked(ph, span, h1);

      // M = Hdiag ? Hdiag + s(q,t) : 0, via the bias trick.
      // match: a+bias, mismatch: 0 (= bias-b), N anywhere: bias-1
      const V q_j = V::load(col(q_soa, j));
      const V sbias =
          V::blend(V::cmpeq(q_j, t_i), v_match, V::vmax(V::load(col(qn_soa, j)), tn_i));
      const V M = V::blend(V::cmpgt(Hdiag, v_zero), V::subs(V::adds(Hdiag, sbias), v_bias),
                           v_zero);

      const V h = V::vmax(V::vmax(M, E), f);
      h1 = V::blend(in, h, h1);
      last = V::blend(in & V::cmpgt(h, v_zero), rel, last);  // H(i, j) > 0

      // mj = (m > h) ? mj : j ; m = max(m, h)   (in-band lanes; mj as rel)
      mj = V::blend(in & ~V::cmpgt(m, h), rel, mj);
      m = V::blend(in, V::vmax(m, h), m);

      // E(i+1, j) and F(i, j+1).
      const V e = V::vmax(V::subs(E, v_e_del), V::subs(M, v_oe_del));
      V::store_masked(pe, span, V::blend(in, e, v_zero));
      f = V::blend(in, V::vmax(V::subs(f, v_e_ins), V::subs(M, v_oe_ins)), f);
    }
    mj = V::add(mj, begv);
    last = V::add(last, begv);
    phase_end(kCells);

    // ---------------- row epilogue (Table 8 "Band adjustment II") --------
    // Wasted-work accounting (paper §6.2.3: "useful cells are roughly half
    // of the total cells computed").
    ctr.bsw_cells_total += static_cast<std::uint64_t>(row_end - row_beg) * W;
    ctr.bsw_cells_useful += static_cast<std::uint64_t>(V::hsum(V::blend(alive, len, v_zero)));

    // The row reached the query end: gscore/max_ie, ties to the later row
    // (scalar: gscore > h1 ? keep).
    const V h1p1 = V::adds(h1, v_one);
    const Mask upd = alive & V::cmpeq(endv, v_qlen) & ~V::cmpgt(gs1, h1p1);
    gs1 = V::blend(upd, h1p1, gs1);
    const Mask dead = alive & V::cmpeq(m, v_zero);  // all-zero row
    const Mask better = alive & V::cmpgt(m, maxv);  // implies m > 0
    const Mask same = alive & ~(dead | better);     // z-drop candidates
    mj.store(mj_a);
    V::blend(better, v_one, v_zero).store(flag_a);
    V::blend(upd, v_one, v_zero).store(flag2_a);
    // Rows only grow, so each update is a max with 0 in the lanes it
    // skips: no conditional stores, and the loop vectorizes on every ISA.
    const Row row = static_cast<Row>(i), next = static_cast<Row>(i + 1);
    for (int z = 0; z < W; ++z) {
      const bool b = flag_a[z] != 0;
      const Row d = static_cast<Row>(mj_a[z] - row);
      const Row off = d < 0 ? static_cast<Row>(-d) : d;
      tle[z] = std::max(tle[z], b ? next : Row{0});
      max_off[z] = std::max(max_off[z], b ? off : Row{0});
      gtle[z] = std::max(gtle[z], flag2_a[z] != 0 ? next : Row{0});
    }
    maxv = V::blend(better, m, maxv);
    qle = V::blend(better, V::adds(mj, v_one), qle);
    Mask kill = dead;
    if (zdrop_on) {
      // Only lanes whose score fell by more than zdrop can drop; the gap
      // penalty term needs row arithmetic, so it runs on the wide arrays.
      const Mask cand = same & V::cmpgt(V::subs(maxv, m), v_zdrop);
      if (V::any(cand)) {
        m.store(m_a);
        maxv.store(maxv_a);
        qle.store(qle_a);
        for (int z = 0; z < W; ++z) {
          const long long di = i + 1 - tle[z];
          const long long dj = static_cast<long long>(mj_a[z]) + 1 - qle_a[z];
          const long long pen = di > dj ? (di - dj) * p.e_del : (dj - di) * p.e_ins;
          flag_a[z] = maxv_a[z] - m_a[z] - pen > p.zdrop ? elem{1} : elem{0};
        }
        kill = kill | (cand & V::cmpgt(V::load(flag_a), v_zero));
      }
    }
    ctr.bsw_aborted_pairs += static_cast<std::uint64_t>(V::count(kill));
    alive = alive & ~kill;

    if (V::any(alive)) {
      // Band shrink (paper §5.4(c)): new beg is the first column >= beg
      // whose H or E is nonzero, new end the last such column <= end, plus
      // 2.  E(i+1, j) > 0 implies H(i, j) > 0, so the last nonzero column is
      // one past the last H > 0, which the cell loop kept in `last`.  The
      // first is found by a scan, except in lanes where eh[beg].h = h1_beg
      // is already nonzero.  The scan tests two columns per exit test; the
      // second may read one column past row_end (a padding column), and
      // only lanes still open take its result.  A surviving lane has a
      // nonzero H in (beg, end], so its scan stops inside its band.
      Mask open = alive & ~V::cmpgt(h1_beg, v_zero);
      V new_beg = begv;
      auto fwd = [&](int j) {
        const V j_vec = V::set1(j);
        const V he = V::vmax(V::load(col(eh_h, j)), V::load(col(eh_e, j)));
        const Mask fix = open & V::cmpgt(he, v_zero) & ~V::cmpgt(begv, j_vec);
        new_beg = V::blend(fix, j_vec, new_beg);
        open = open & ~fix;
      };
      for (int j = row_beg; j <= row_end && V::any(open); j += 2) {
        fwd(j);
        fwd(j + 1);
      }
      begv = V::blend(alive, new_beg, begv);
      endv = V::blend(alive, V::vmin(V::adds(last, v_three), v_qlen), endv);  // last + 1 + 2
    }
    phase_end(kBand2);
  }

  maxv.store(maxv_a);
  qle.store(qle_a);
  gs1.store(flag_a);
  for (int z = 0; z < n; ++z) {
    out[z].score = maxv_a[z];
    out[z].qle = qle_a[z];
    out[z].tle = tle[z];
    out[z].gtle = gtle[z];
    out[z].gscore = static_cast<int>(flag_a[z]) - 1;
    out[z].max_off = max_off[z];
  }
  if (bd) {
    bd->pre += util::tsc_to_seconds(ticks[kPre]);
    bd->band1 += util::tsc_to_seconds(ticks[kBand1]);
    bd->cells += util::tsc_to_seconds(ticks[kCells]);
    bd->band2 += util::tsc_to_seconds(ticks[kBand2]);
  }
}

}  // namespace mem2::bsw::detail
