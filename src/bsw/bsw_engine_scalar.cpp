// Scalar-emulated SIMD engine: plain arrays driven through the shared
// inter-task template.  W=8 keeps batching behaviour realistic while
// remaining portable; it also anchors the identical-output tests on hosts
// without AVX.
#include "bsw/bsw_engine_impl.h"

namespace mem2::bsw {

namespace {

template <typename T, int Width>
struct ScalarVec {
  static constexpr int W = Width;
  using elem = T;
  using Mask = ScalarVec;  // 0 / ~0 per lane
  T v[W];

  template <class F>
  static ScalarVec map(F f) {
    ScalarVec r;
    for (int i = 0; i < W; ++i) r.v[i] = static_cast<T>(f(i));
    return r;
  }
  static ScalarVec zero() { return set1(0); }
  static ScalarVec set1(int x) { return map([&](int) { return x; }); }
  static ScalarVec load(const T* p) {
    ScalarVec r;
    std::memcpy(r.v, p, sizeof(r.v));
    return r;
  }
  void store(T* p) const { std::memcpy(p, v, sizeof(v)); }
  static void store_masked(T* p, Mask m, ScalarVec a) {
    for (int i = 0; i < W; ++i)
      if (m.v[i]) p[i] = a.v[i];
  }

  static ScalarVec add(ScalarVec a, ScalarVec b) {
    return map([&](int i) { return a.v[i] + b.v[i]; });
  }
  static ScalarVec sub(ScalarVec a, ScalarVec b) {
    return map([&](int i) { return a.v[i] - b.v[i]; });
  }
  static ScalarVec adds(ScalarVec a, ScalarVec b) {
    return map([&](int i) {
      return std::min<unsigned>(a.v[i] + b.v[i], std::numeric_limits<T>::max());
    });
  }
  static ScalarVec subs(ScalarVec a, ScalarVec b) {
    return map([&](int i) { return a.v[i] > b.v[i] ? a.v[i] - b.v[i] : 0; });
  }
  static ScalarVec vmax(ScalarVec a, ScalarVec b) {
    return map([&](int i) { return std::max(a.v[i], b.v[i]); });
  }
  static ScalarVec vmin(ScalarVec a, ScalarVec b) {
    return map([&](int i) { return std::min(a.v[i], b.v[i]); });
  }
  static Mask cmpeq(ScalarVec a, ScalarVec b) {
    return map([&](int i) { return a.v[i] == b.v[i] ? ~T{0} : T{0}; });
  }
  static Mask cmpgt(ScalarVec a, ScalarVec b) {
    return map([&](int i) { return a.v[i] > b.v[i] ? ~T{0} : T{0}; });
  }
  static ScalarVec blend(Mask m, ScalarVec a, ScalarVec b) {
    return map([&](int i) { return m.v[i] ? a.v[i] : b.v[i]; });
  }
  friend Mask operator&(Mask a, Mask b) { return map([&](int i) { return a.v[i] & b.v[i]; }); }
  friend Mask operator|(Mask a, Mask b) { return map([&](int i) { return a.v[i] | b.v[i]; }); }
  friend Mask operator~(Mask a) { return map([&](int i) { return ~a.v[i]; }); }
  static bool any(Mask m) { return count(m) != 0; }
  static int count(Mask m) {
    int c = 0;
    for (int i = 0; i < W; ++i) c += m.v[i] != 0;
    return c;
  }
  static int hmin(ScalarVec a) { return *std::min_element(a.v, a.v + W); }
  static int hmax(ScalarVec a) { return *std::max_element(a.v, a.v + W); }
  static int hsum(ScalarVec a) {
    int s = 0;
    for (int i = 0; i < W; ++i) s += a.v[i];
    return s;
  }
};

void run_u8(const ExtendJob* jobs, KswResult* out, int n, const KswParams& p,
            BswBreakdown* bd) {
  detail::bsw_extend_inter_task<ScalarVec<std::uint8_t, 8>>(jobs, out, n, p, bd);
}
void run_u16(const ExtendJob* jobs, KswResult* out, int n, const KswParams& p,
             BswBreakdown* bd) {
  detail::bsw_extend_inter_task<ScalarVec<std::uint16_t, 8>>(jobs, out, n, p, bd);
}

}  // namespace

const BswEngine kEngineScalarU8 = {&run_u8, 8, "scalar-8bit"};
const BswEngine kEngineScalarU16 = {&run_u16, 8, "scalar-16bit"};

}  // namespace mem2::bsw
