// AVX512BW inter-task BSW engines: 64 pairs at 8-bit precision, 32 pairs at
// 16-bit (the paper's SKX configuration, SIMD widths 64/32).  Compares
// produce __mmask64/__mmask32 mask registers that blends and masked stores
// consume directly.  Compiled with -mavx512f -mavx512bw -mavx512vl;
// reached only via dispatch.
#include <immintrin.h>

#include "bsw/bsw_engine_impl.h"

namespace mem2::bsw {

namespace {

// 256-bit halves.  GCC 12's cast/extract intrinsics start from a
// self-initialized "undefined" vector that -Wmaybe-uninitialized reports at
// every inlined use; the generic shuffle builtin says the same thing cleanly.
inline __m256i lo256(__m512i v) { return __builtin_shufflevector(v, v, 0, 1, 2, 3); }
inline __m256i hi256(__m512i v) { return __builtin_shufflevector(v, v, 4, 5, 6, 7); }

// Horizontal unsigned min of 16-bit lanes after folding to 128 bits.
inline int hmin_epu16(__m512i v) {
  const __m256i a = _mm256_min_epu16(lo256(v), hi256(v));
  const __m128i b = _mm_min_epu16(_mm256_castsi256_si128(a), _mm256_extracti128_si256(a, 1));
  return _mm_extract_epi16(_mm_minpos_epu16(b), 0);
}

// Horizontal sum of 64-bit lanes.
inline int hsum_epi64(__m512i v) {
  const __m256i a = _mm256_add_epi64(lo256(v), hi256(v));
  const __m128i b = _mm_add_epi64(_mm256_castsi256_si128(a), _mm256_extracti128_si256(a, 1));
  return static_cast<int>(_mm_cvtsi128_si64(_mm_add_epi64(b, _mm_unpackhi_epi64(b, b))));
}

struct VecU8 {
  static constexpr int W = 64;
  using elem = std::uint8_t;
  using Mask = __mmask64;
  __m512i v;

  static VecU8 wrap(__m512i x) { return VecU8{x}; }
  static VecU8 zero() { return wrap(_mm512_setzero_si512()); }
  static VecU8 set1(int x) { return wrap(_mm512_set1_epi8(static_cast<char>(x))); }
  static VecU8 load(const elem* p) { return wrap(_mm512_loadu_si512(p)); }
  void store(elem* p) const { _mm512_storeu_si512(p, v); }
  static void store_masked(elem* p, Mask m, VecU8 a) { _mm512_mask_storeu_epi8(p, m, a.v); }
  static VecU8 add(VecU8 a, VecU8 b) { return wrap(_mm512_add_epi8(a.v, b.v)); }
  static VecU8 sub(VecU8 a, VecU8 b) { return wrap(_mm512_sub_epi8(a.v, b.v)); }
  static VecU8 adds(VecU8 a, VecU8 b) { return wrap(_mm512_adds_epu8(a.v, b.v)); }
  static VecU8 subs(VecU8 a, VecU8 b) { return wrap(_mm512_subs_epu8(a.v, b.v)); }
  static VecU8 vmax(VecU8 a, VecU8 b) { return wrap(_mm512_max_epu8(a.v, b.v)); }
  static VecU8 vmin(VecU8 a, VecU8 b) { return wrap(_mm512_min_epu8(a.v, b.v)); }
  static Mask cmpeq(VecU8 a, VecU8 b) { return _mm512_cmpeq_epu8_mask(a.v, b.v); }
  static Mask cmpgt(VecU8 a, VecU8 b) { return _mm512_cmpgt_epu8_mask(a.v, b.v); }
  static VecU8 blend(Mask m, VecU8 a, VecU8 b) { return wrap(_mm512_mask_blend_epi8(m, b.v, a.v)); }
  static bool any(Mask m) { return m != 0; }
  static int count(Mask m) { return __builtin_popcountll(m); }
  static int hmin(VecU8 a) {
    // min over byte pairs, zero-extended into 16-bit lanes
    const __m512i lo = _mm512_and_si512(a.v, _mm512_set1_epi16(0x00ff));
    return hmin_epu16(_mm512_min_epu16(lo, _mm512_srli_epi16(a.v, 8)));
  }
  static int hmax(VecU8 a) { return 255 - hmin(subs(set1(255), a)); }
  static int hsum(VecU8 a) {
    return hsum_epi64(_mm512_sad_epu8(a.v, _mm512_setzero_si512()));
  }
};

struct VecU16 {
  static constexpr int W = 32;
  using elem = std::uint16_t;
  using Mask = __mmask32;
  __m512i v;

  static VecU16 wrap(__m512i x) { return VecU16{x}; }
  static VecU16 zero() { return wrap(_mm512_setzero_si512()); }
  static VecU16 set1(int x) { return wrap(_mm512_set1_epi16(static_cast<short>(x))); }
  static VecU16 load(const elem* p) { return wrap(_mm512_loadu_si512(p)); }
  void store(elem* p) const { _mm512_storeu_si512(p, v); }
  static void store_masked(elem* p, Mask m, VecU16 a) { _mm512_mask_storeu_epi16(p, m, a.v); }
  static VecU16 add(VecU16 a, VecU16 b) { return wrap(_mm512_add_epi16(a.v, b.v)); }
  static VecU16 sub(VecU16 a, VecU16 b) { return wrap(_mm512_sub_epi16(a.v, b.v)); }
  static VecU16 adds(VecU16 a, VecU16 b) { return wrap(_mm512_adds_epu16(a.v, b.v)); }
  static VecU16 subs(VecU16 a, VecU16 b) { return wrap(_mm512_subs_epu16(a.v, b.v)); }
  static VecU16 vmax(VecU16 a, VecU16 b) { return wrap(_mm512_max_epu16(a.v, b.v)); }
  static VecU16 vmin(VecU16 a, VecU16 b) { return wrap(_mm512_min_epu16(a.v, b.v)); }
  static Mask cmpeq(VecU16 a, VecU16 b) { return _mm512_cmpeq_epu16_mask(a.v, b.v); }
  static Mask cmpgt(VecU16 a, VecU16 b) { return _mm512_cmpgt_epu16_mask(a.v, b.v); }
  static VecU16 blend(Mask m, VecU16 a, VecU16 b) {
    return wrap(_mm512_mask_blend_epi16(m, b.v, a.v));
  }
  static bool any(Mask m) { return m != 0; }
  static int count(Mask m) { return __builtin_popcount(m); }
  static int hmin(VecU16 a) { return hmin_epu16(a.v); }
  static int hmax(VecU16 a) { return 65535 - hmin(subs(set1(65535), a)); }
  static int hsum(VecU16 a) {
    // low bytes + 256 * high bytes, each a byte sum
    const __m512i zero = _mm512_setzero_si512();
    const __m512i lo = _mm512_and_si512(a.v, _mm512_set1_epi16(0x00ff));
    return hsum_epi64(_mm512_sad_epu8(lo, zero)) +
           256 * hsum_epi64(_mm512_sad_epu8(_mm512_srli_epi16(a.v, 8), zero));
  }
};

void run_u8(const ExtendJob* jobs, KswResult* out, int n, const KswParams& p,
            BswBreakdown* bd) {
  detail::bsw_extend_inter_task<VecU8>(jobs, out, n, p, bd);
}
void run_u16(const ExtendJob* jobs, KswResult* out, int n, const KswParams& p,
             BswBreakdown* bd) {
  detail::bsw_extend_inter_task<VecU16>(jobs, out, n, p, bd);
}

}  // namespace

const BswEngine kEngineAvx512U8 = {&run_u8, 64, "avx512-8bit"};
const BswEngine kEngineAvx512U16 = {&run_u16, 32, "avx512-16bit"};

}  // namespace mem2::bsw
