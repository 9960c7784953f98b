// AVX2 inter-task BSW engines: 32 pairs at 8-bit precision, 16 pairs at
// 16-bit (the paper's HSW configuration).  AVX2 has no mask registers, so a
// Mask is a vector of 0/~0 lanes.  Compiled with -mavx2; reached only
// through runtime dispatch.
#include <immintrin.h>

#include "bsw/bsw_engine_impl.h"

namespace mem2::bsw {

namespace {

// Horizontal unsigned min of 16-bit lanes.
inline int hmin_epu16(__m256i v) {
  const __m128i b = _mm_min_epu16(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  return _mm_extract_epi16(_mm_minpos_epu16(b), 0);
}

template <typename T>
struct Vec {
  static constexpr bool k8 = sizeof(T) == 1;
  static constexpr int W = 32 / static_cast<int>(sizeof(T));
  using elem = T;
  using Mask = Vec;
  __m256i v;

  static Vec wrap(__m256i x) { return Vec{x}; }
  static Vec zero() { return wrap(_mm256_setzero_si256()); }
  static Vec set1(int x) {
    return wrap(k8 ? _mm256_set1_epi8(static_cast<char>(x))
                   : _mm256_set1_epi16(static_cast<short>(x)));
  }
  static Vec load(const T* p) {
    return wrap(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  void store(T* p) const { _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v); }
  static void store_masked(T* p, Mask m, Vec a) { blend(m, a, load(p)).store(p); }
  static Vec add(Vec a, Vec b) {
    return wrap(k8 ? _mm256_add_epi8(a.v, b.v) : _mm256_add_epi16(a.v, b.v));
  }
  static Vec sub(Vec a, Vec b) {
    return wrap(k8 ? _mm256_sub_epi8(a.v, b.v) : _mm256_sub_epi16(a.v, b.v));
  }
  static Vec adds(Vec a, Vec b) {
    return wrap(k8 ? _mm256_adds_epu8(a.v, b.v) : _mm256_adds_epu16(a.v, b.v));
  }
  static Vec subs(Vec a, Vec b) {
    return wrap(k8 ? _mm256_subs_epu8(a.v, b.v) : _mm256_subs_epu16(a.v, b.v));
  }
  static Vec vmax(Vec a, Vec b) {
    return wrap(k8 ? _mm256_max_epu8(a.v, b.v) : _mm256_max_epu16(a.v, b.v));
  }
  static Vec vmin(Vec a, Vec b) {
    return wrap(k8 ? _mm256_min_epu8(a.v, b.v) : _mm256_min_epu16(a.v, b.v));
  }
  static Mask cmpeq(Vec a, Vec b) {
    return wrap(k8 ? _mm256_cmpeq_epi8(a.v, b.v) : _mm256_cmpeq_epi16(a.v, b.v));
  }
  // a > b (unsigned): a - b does not saturate to zero.
  static Mask cmpgt(Vec a, Vec b) { return ~cmpeq(subs(a, b), zero()); }
  static Vec blend(Mask m, Vec a, Vec b) {
    return wrap(_mm256_blendv_epi8(b.v, a.v, m.v));  // mask lanes are all-ones
  }
  friend Mask operator&(Mask a, Mask b) { return wrap(_mm256_and_si256(a.v, b.v)); }
  friend Mask operator|(Mask a, Mask b) { return wrap(_mm256_or_si256(a.v, b.v)); }
  friend Mask operator~(Mask a) { return wrap(_mm256_xor_si256(a.v, _mm256_cmpeq_epi8(a.v, a.v))); }
  static bool any(Mask m) { return !_mm256_testz_si256(m.v, m.v); }
  static int count(Mask m) {
    return __builtin_popcount(static_cast<unsigned>(_mm256_movemask_epi8(m.v))) /
           static_cast<int>(sizeof(T));
  }
  static int hmin(Vec a) {
    if constexpr (!k8) return hmin_epu16(a.v);
    // min over byte pairs, zero-extended into 16-bit lanes
    const __m256i lo = _mm256_and_si256(a.v, _mm256_set1_epi16(0x00ff));
    return hmin_epu16(_mm256_min_epu16(lo, _mm256_srli_epi16(a.v, 8)));
  }
  static int hmax(Vec a) {
    constexpr int kMax = k8 ? 255 : 65535;
    return kMax - hmin(subs(set1(kMax), a));
  }
  static int hsum(Vec a) {
    // 8-bit: byte sums per 64-bit lane; 16-bit: pairwise into 32-bit lanes.
    __m128i t;
    if constexpr (k8) {
      const __m256i s = _mm256_sad_epu8(a.v, _mm256_setzero_si256());
      t = _mm_add_epi64(_mm256_castsi256_si128(s), _mm256_extracti128_si256(s, 1));
    } else {
      const __m256i s = _mm256_add_epi32(_mm256_and_si256(a.v, _mm256_set1_epi32(0xffff)),
                                         _mm256_srli_epi32(a.v, 16));
      t = _mm_add_epi32(_mm256_castsi256_si128(s), _mm256_extracti128_si256(s, 1));
      t = _mm_add_epi32(t, _mm_srli_epi64(t, 32));  // pair sums in the even lanes
      t = _mm_and_si128(t, _mm_set1_epi64x(0xffffffff));
    }
    return static_cast<int>(_mm_cvtsi128_si64(_mm_add_epi64(t, _mm_unpackhi_epi64(t, t))));
  }
};

void run_u8(const ExtendJob* jobs, KswResult* out, int n, const KswParams& p,
            BswBreakdown* bd) {
  detail::bsw_extend_inter_task<Vec<std::uint8_t>>(jobs, out, n, p, bd);
}
void run_u16(const ExtendJob* jobs, KswResult* out, int n, const KswParams& p,
             BswBreakdown* bd) {
  detail::bsw_extend_inter_task<Vec<std::uint16_t>>(jobs, out, n, p, bd);
}

}  // namespace

const BswEngine kEngineAvx2U8 = {&run_u8, 32, "avx2-8bit"};
const BswEngine kEngineAvx2U16 = {&run_u16, 16, "avx2-16bit"};

}  // namespace mem2::bsw
