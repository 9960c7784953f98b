#include "index/sais.h"

#include <omp.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

namespace mem2::index {

namespace {

// Below this working length a level runs serial: the scan passes are
// microseconds and OpenMP fork/join would dominate.  Parallel and serial
// paths write identical bytes, so the cutoff is invisible in the output.
constexpr std::int64_t kParCutoff = 1 << 16;

// Parallel histogram/placement passes keep per-block bucket tables; past
// this alphabet size the tables outweigh the scan and a serial pass wins.
constexpr std::int64_t kParAlphabetMax = 4096;

constexpr std::size_t kNarrowMax =
    static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()) - 1;

std::size_t g_narrow_limit = 0;  // 0 = kNarrowMax; see the test hook

int resolve_threads(int threads) {
  return threads > 0 ? threads : omp_get_max_threads();
}

// S/L type flags packed one bit per position.  Parallel classification
// partitions on 64-position boundaries so each word has one writer.
class TypeBits {
 public:
  void resize(std::int64_t n) {
    w_.assign(static_cast<std::size_t>((n + 63) / 64), 0);
  }
  bool s_type(std::int64_t i) const {
    return (w_[static_cast<std::size_t>(i >> 6)] >> (i & 63)) & 1;
  }
  void set(std::int64_t i, bool v) {
    const std::uint64_t m = std::uint64_t{1} << (i & 63);
    auto& w = w_[static_cast<std::size_t>(i >> 6)];
    if (v)
      w |= m;
    else
      w &= ~m;
  }

 private:
  std::vector<std::uint64_t> w_;
};

// Level-0 view of the 2-bit code text: codes shift +1 and the virtual
// sentinel reads as 0 at position n-1, so no int64_t copy of the text is
// ever made.  n is the working length (text chars + 1).
template <class I>
struct Level0Text {
  const seq::Code* p;
  I n;
  I operator[](I i) const {
    return i + 1 == n ? I{0} : static_cast<I>(p[i] + 1);
  }
};

// Recursion levels sort a materialized reduced string.
template <class I>
struct ArrText {
  const I* p;
  I operator[](I i) const { return p[i]; }
};

// Bucket scratch shared down same-width recursion chains; each level
// resizes in place, so deep recursions reuse one pair of allocations.
template <class I>
struct Ws {
  std::vector<I> cnt;   // per-char suffix counts (size K)
  std::vector<I> bkt;   // rolling bucket cursors (size K)
  std::vector<I> hist;  // per-thread/per-block tables for parallel passes
};

template <class I>
void bucket_starts(const std::vector<I>& cnt, std::vector<I>& bkt, I K) {
  I sum = 0;
  for (I c = 0; c < K; ++c) {
    bkt[static_cast<std::size_t>(c)] = sum;
    sum += cnt[static_cast<std::size_t>(c)];
  }
}

template <class I>
void bucket_ends(const std::vector<I>& cnt, std::vector<I>& bkt, I K) {
  I sum = 0;
  for (I c = 0; c < K; ++c) {
    sum += cnt[static_cast<std::size_t>(c)];
    bkt[static_cast<std::size_t>(c)] = sum;  // exclusive end
  }
}

// Type of position p resolved without the table: run forward over the
// equal-character run (bounded; s[n-1] is the unique smallest so runs
// never reach it) and compare at the first inequality.
template <class I, class Text>
bool type_at(const Text& s, I n, I p) {
  I j = p;
  while (j + 1 < n && s[j] == s[j + 1]) ++j;
  return j + 1 == n || s[j] < s[j + 1];
}

template <class I, class Text>
void classify(const Text& s, I n, TypeBits& t, int nt) {
  t.resize(n);
  if (nt <= 1 || n < kParCutoff) {
    bool next = true;
    t.set(n - 1, true);
    for (I i = n - 2; i >= 0; --i) {
      const bool cur = s[i] < s[i + 1] || (s[i] == s[i + 1] && next);
      t.set(i, cur);
      next = cur;
    }
    return;
  }
  const int nb = nt;
  std::vector<I> lo(static_cast<std::size_t>(nb) + 1);
  for (int b = 0; b < nb; ++b) {
    // 64-aligned boundaries: one writer per bitmap word.
    lo[static_cast<std::size_t>(b)] =
        static_cast<I>((static_cast<std::int64_t>(n) * b / nb) &
                       ~std::int64_t{63});
  }
  lo[static_cast<std::size_t>(nb)] = n;
  // Types at block boundaries, resolved by bounded forward runs so blocks
  // never wait on each other.
  std::vector<unsigned char> boundary(static_cast<std::size_t>(nb) + 1, 1);
  for (int b = 1; b < nb; ++b) {
    const I p = lo[static_cast<std::size_t>(b)];
    if (p < n) boundary[static_cast<std::size_t>(b)] = type_at(s, n, p);
  }
#pragma omp parallel for num_threads(nt) schedule(static, 1)
  for (int b = 0; b < nb; ++b) {
    const I blo = lo[static_cast<std::size_t>(b)];
    const I bhi = lo[static_cast<std::size_t>(b) + 1];
    if (blo >= bhi) continue;
    bool next = b + 1 <= nb ? boundary[static_cast<std::size_t>(b) + 1] != 0
                            : true;
    for (I i = bhi - 1; i >= blo; --i) {
      const bool cur =
          i == n - 1 ? true
                     : (s[i] < s[i + 1] || (s[i] == s[i + 1] && next));
      t.set(i, cur);
      next = cur;
    }
  }
}

template <class I, class Text>
void count_chars(const Text& s, I n, I K, Ws<I>& ws, int nt) {
  ws.cnt.assign(static_cast<std::size_t>(K), 0);
  if (nt <= 1 || n < kParCutoff || K > kParAlphabetMax) {
    for (I i = 0; i < n; ++i) ++ws.cnt[static_cast<std::size_t>(s[i])];
    return;
  }
  ws.hist.assign(static_cast<std::size_t>(nt) * static_cast<std::size_t>(K),
                 0);
#pragma omp parallel num_threads(nt)
  {
    I* h = ws.hist.data() +
           static_cast<std::size_t>(omp_get_thread_num()) *
               static_cast<std::size_t>(K);
#pragma omp for schedule(static)
    for (I i = 0; i < n; ++i) ++h[static_cast<std::size_t>(s[i])];
  }
  for (int tid = 0; tid < nt; ++tid) {
    const I* h = ws.hist.data() +
                 static_cast<std::size_t>(tid) * static_cast<std::size_t>(K);
    for (I c = 0; c < K; ++c) ws.cnt[static_cast<std::size_t>(c)] += h[c];
  }
}

template <class I>
bool is_lms(const TypeBits& t, I i) {
  return i > 0 && t.s_type(i) && !t.s_type(i - 1);
}

// LMS positions in ascending text order.  Parallel path counts per block,
// prefix-sums, then fills exact slots — identical layout to the serial
// append loop.
template <class I, class Text>
void collect_lms(const Text& s, I n, const TypeBits& t, std::vector<I>& lms,
                 int nt) {
  (void)s;
  if (nt <= 1 || n < kParCutoff) {
    lms.clear();
    for (I i = 1; i < n; ++i)
      if (is_lms(t, i)) lms.push_back(i);
    return;
  }
  const int nb = nt;
  std::vector<I> lo(static_cast<std::size_t>(nb) + 1);
  for (int b = 0; b <= nb; ++b)
    lo[static_cast<std::size_t>(b)] = static_cast<I>(
        1 + (static_cast<std::int64_t>(n) - 1) * b / nb);
  std::vector<I> bcnt(static_cast<std::size_t>(nb), 0);
#pragma omp parallel for num_threads(nt) schedule(static, 1)
  for (int b = 0; b < nb; ++b) {
    I c = 0;
    for (I i = lo[static_cast<std::size_t>(b)];
         i < lo[static_cast<std::size_t>(b) + 1]; ++i)
      if (is_lms(t, i)) ++c;
    bcnt[static_cast<std::size_t>(b)] = c;
  }
  std::vector<I> off(static_cast<std::size_t>(nb) + 1, 0);
  for (int b = 0; b < nb; ++b)
    off[static_cast<std::size_t>(b) + 1] =
        off[static_cast<std::size_t>(b)] + bcnt[static_cast<std::size_t>(b)];
  lms.resize(static_cast<std::size_t>(off[static_cast<std::size_t>(nb)]));
#pragma omp parallel for num_threads(nt) schedule(static, 1)
  for (int b = 0; b < nb; ++b) {
    I k = off[static_cast<std::size_t>(b)];
    for (I i = lo[static_cast<std::size_t>(b)];
         i < lo[static_cast<std::size_t>(b) + 1]; ++i)
      if (is_lms(t, i)) lms[static_cast<std::size_t>(k++)] = i;
  }
}

// Place LMS suffixes at their bucket ends.  The serial reference walks the
// LMS list descending; the parallel path precomputes, per block and per
// character, exactly which slot the descending walk would pick (bucket end
// minus the count of same-character LMS at later text positions) and
// scatters without coordination.
template <class I, class Text>
void place_lms(const Text& s, I n, I K, const std::vector<I>& lms, I* sa,
               Ws<I>& ws, int nt) {
  const auto m = static_cast<std::int64_t>(lms.size());
  bucket_ends(ws.cnt, ws.bkt, K);
  if (nt <= 1 || n < kParCutoff || K > kParAlphabetMax || m < kParCutoff) {
    for (std::int64_t j = m - 1; j >= 0; --j) {
      const I p = lms[static_cast<std::size_t>(j)];
      sa[--ws.bkt[static_cast<std::size_t>(s[p])]] = p;
    }
    return;
  }
  const int nb = nt;
  const std::size_t K_sz = static_cast<std::size_t>(K);
  std::vector<I>& blk = ws.hist;
  blk.assign(static_cast<std::size_t>(nb) * K_sz, 0);
  auto block_range = [&](int b) {
    return std::pair<std::int64_t, std::int64_t>(m * b / nb,
                                                 m * (b + 1) / nb);
  };
#pragma omp parallel for num_threads(nt) schedule(static, 1)
  for (int b = 0; b < nb; ++b) {
    const auto [jlo, jhi] = block_range(b);
    I* cb = blk.data() + static_cast<std::size_t>(b) * K_sz;
    for (std::int64_t j = jlo; j < jhi; ++j)
      ++cb[static_cast<std::size_t>(s[lms[static_cast<std::size_t>(j)]])];
  }
  // total[c] and exclusive per-block offsets, in one sweep.
  std::vector<I> total(K_sz, 0);
  for (int b = 0; b < nb; ++b) {
    I* cb = blk.data() + static_cast<std::size_t>(b) * K_sz;
    for (std::size_t c = 0; c < K_sz; ++c) {
      const I v = cb[c];
      cb[c] = total[c];
      total[c] += v;
    }
  }
#pragma omp parallel for num_threads(nt) schedule(static, 1)
  for (int b = 0; b < nb; ++b) {
    const auto [jlo, jhi] = block_range(b);
    std::vector<I> cur(blk.data() + static_cast<std::size_t>(b) * K_sz,
                       blk.data() + static_cast<std::size_t>(b + 1) * K_sz);
    for (std::int64_t j = jlo; j < jhi; ++j) {
      const I p = lms[static_cast<std::size_t>(j)];
      const auto c = static_cast<std::size_t>(s[p]);
      sa[ws.bkt[c] - total[c] + cur[c]++] = p;
    }
  }
}

// The two induced-sorting sweeps: inherently sequential (each placement
// may feed the next read), kept serial at every level.
template <class I, class Text>
void induce(const Text& s, I n, I K, const TypeBits& t, I* sa, Ws<I>& ws) {
  bucket_starts(ws.cnt, ws.bkt, K);
  for (I i = 0; i < n; ++i) {
    const I v = sa[i];
    if (v > 0 && !t.s_type(v - 1))
      sa[ws.bkt[static_cast<std::size_t>(s[v - 1])]++] = v - 1;
  }
  bucket_ends(ws.cnt, ws.bkt, K);
  for (I i = n - 1; i >= 0; --i) {
    const I v = sa[i];
    if (v > 0 && t.s_type(v - 1))
      sa[--ws.bkt[static_cast<std::size_t>(s[v - 1])]] = v - 1;
  }
}

// Whether the LMS substrings at a and b differ (either in characters, or
// in where they end).
template <class I, class Text>
bool lms_differ(const Text& s, I n, const TypeBits& t, I a, I b) {
  for (I d = 0;; ++d) {
    const I x = a + d, y = b + d;
    if (x >= n || y >= n) return true;
    const bool x_end = d > 0 && is_lms(t, x);
    const bool y_end = d > 0 && is_lms(t, y);
    if (s[x] != s[y] || x_end != y_end) return true;
    if (x_end) return false;  // both substrings fully matched
  }
}

template <class I, class Text>
void sais_rec(const Text& s, const I n, const I K, I* const sa, Ws<I>& ws,
              const int nt);

// Reduced-string recursion, narrowing to 32-bit indices when the reduced
// length fits (it always does except for >2G-char texts at level 0).
// Writes the sorted order of the reduced string's suffixes into sa[0..m).
template <class I>
void recurse_reduced(const std::vector<I>& names_in_text_order, I m, I names,
                     I* sa, Ws<I>& ws, int nt) {
  if constexpr (sizeof(I) == 8) {
    if (static_cast<std::size_t>(m) <= kNarrowMax) {
      std::vector<std::int32_t> reduced(static_cast<std::size_t>(m));
      const bool par = nt > 1 && m >= kParCutoff;
#pragma omp parallel for num_threads(nt) if (par)
      for (I j = 0; j < m; ++j)
        reduced[static_cast<std::size_t>(j)] =
            static_cast<std::int32_t>(names_in_text_order[static_cast<std::size_t>(j)]);
      std::vector<std::int32_t> sub(static_cast<std::size_t>(m));
      Ws<std::int32_t> ws32;
      sais_rec<std::int32_t>(
          ArrText<std::int32_t>{reduced.data()}, static_cast<std::int32_t>(m),
          static_cast<std::int32_t>(names), sub.data(), ws32, nt);
#pragma omp parallel for num_threads(nt) if (par)
      for (I j = 0; j < m; ++j)
        sa[j] = static_cast<I>(sub[static_cast<std::size_t>(j)]);
      return;
    }
  }
  sais_rec<I>(ArrText<I>{names_in_text_order.data()}, m, names, sa, ws, nt);
}

// One SA-IS level over s[0..n): s[n-1] must be the unique smallest value
// (0).  Writes the suffix array into sa[0..n).
template <class I, class Text>
void sais_rec(const Text& s, const I n, const I K, I* const sa, Ws<I>& ws,
              const int nt) {
  constexpr I kEmpty = static_cast<I>(-1);
  if (n == 1) {
    sa[0] = 0;
    return;
  }
  const bool par = nt > 1 && n >= kParCutoff;

  TypeBits t;  // per frame: the parent needs its own types after recursion
  classify(s, n, t, nt);
  count_chars(s, n, K, ws, nt);
  ws.bkt.resize(static_cast<std::size_t>(K));

  std::vector<I> lms;
  collect_lms(s, n, t, lms, nt);
  const I m = static_cast<I>(lms.size());

  // Stage 1: approximate order — place LMS suffixes, induce L then S.
#pragma omp parallel for num_threads(nt) if (par)
  for (I i = 0; i < n; ++i) sa[i] = kEmpty;
  place_lms(s, n, K, lms, sa, ws, nt);
  induce(s, n, K, t, sa, ws);

  // Stage 2: compact the now-sorted LMS suffixes into sa[0..m), then name
  // LMS substrings.  Names live in sa[m..n): slot m + (pos >> 1) — LMS
  // positions are >= 2 apart so pos >> 1 is injective and fits because
  // m <= n/2.
  {
    I k = 0;
    for (I i = 0; i < n; ++i) {
      const I v = sa[i];
      if (is_lms(t, v)) sa[k++] = v;
    }
    MEM2_REQUIRE(k == m, "SA-IS: LMS compaction lost positions");
  }
  I* const nm = sa + m;
  nm[sa[0] >> 1] = 1;
#pragma omp parallel for num_threads(nt) if (par) schedule(dynamic, 4096)
  for (I j = 1; j < m; ++j)
    nm[sa[j] >> 1] = lms_differ(s, n, t, sa[j - 1], sa[j]) ? I{1} : I{0};
  I names = 0;
  for (I j = 0; j < m; ++j) {
    const I slot = sa[j] >> 1;
    names += nm[slot];
    nm[slot] = names - 1;
  }

  // Stage 3: order the LMS suffixes exactly — by name when unique, else by
  // recursion on the reduced string.
  bool ws_clobbered = false;
  if (names < m) {
    std::vector<I> reduced(static_cast<std::size_t>(m));
#pragma omp parallel for num_threads(nt) if (par)
    for (I j = 0; j < m; ++j)
      reduced[static_cast<std::size_t>(j)] =
          nm[lms[static_cast<std::size_t>(j)] >> 1];
    recurse_reduced(reduced, m, names, sa, ws, nt);
    ws_clobbered = true;
#pragma omp parallel for num_threads(nt) if (par)
    for (I j = 0; j < m; ++j)
      sa[j] = lms[static_cast<std::size_t>(sa[j])];
  } else {
#pragma omp parallel for num_threads(nt) if (par)
    for (I j = 0; j < m; ++j) {
      const I p = lms[static_cast<std::size_t>(j)];
      sa[nm[p >> 1]] = p;  // ranks permute 0..m-1; reads touch only lms/nm
    }
  }

  // Stage 4: scatter the sorted LMS suffixes to their bucket ends (the
  // rank-j LMS lands at slot >= j, so the descending walk never reads a
  // slot it already overwrote) and induce the final order.
  if (ws_clobbered) {  // the child level re-sized cnt/bkt to its own alphabet
    count_chars(s, n, K, ws, nt);
    ws.bkt.resize(static_cast<std::size_t>(K));
  }
#pragma omp parallel for num_threads(nt) if (par)
  for (I i = m; i < n; ++i) sa[i] = kEmpty;
  bucket_ends(ws.cnt, ws.bkt, K);
  for (I j = m - 1; j >= 0; --j) {
    const I p = sa[j];
    sa[j] = kEmpty;
    sa[--ws.bkt[static_cast<std::size_t>(s[p])]] = p;
  }
  induce(s, n, K, t, sa, ws);
}

void validate_codes(const std::vector<seq::Code>& text) {
  unsigned char acc = 0;
  for (const seq::Code c : text) acc |= c;
  MEM2_REQUIRE(acc < 4, "suffix array input must be ACGT codes");
}

bool narrow_fits(std::size_t working_len) {
  const std::size_t limit = g_narrow_limit != 0 ? g_narrow_limit : kNarrowMax;
  return working_len <= limit && working_len <= kNarrowMax;
}

}  // namespace

std::vector<idx_t> build_suffix_array(const std::vector<seq::Code>& text,
                                      int threads) {
  validate_codes(text);
  const std::size_t wn = text.size() + 1;
  const int nt = resolve_threads(threads);
  std::vector<idx_t> sa(wn);
  if (narrow_fits(wn)) {
    const auto n32 = static_cast<std::int32_t>(wn);
    std::vector<std::int32_t> sa32(wn);
    Ws<std::int32_t> ws;
    sais_rec<std::int32_t>(Level0Text<std::int32_t>{text.data(), n32}, n32,
                           5, sa32.data(), ws, nt);
    const bool par = nt > 1 && static_cast<std::int64_t>(wn) >= kParCutoff;
#pragma omp parallel for num_threads(nt) if (par)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(wn); ++i)
      sa[static_cast<std::size_t>(i)] = sa32[static_cast<std::size_t>(i)];
  } else {
    const auto n64 = static_cast<std::int64_t>(wn);
    Ws<std::int64_t> ws;
    sais_rec<std::int64_t>(Level0Text<std::int64_t>{text.data(), n64}, n64,
                           std::int64_t{5}, sa.data(), ws, nt);
  }
  return sa;
}

util::BigVector<std::uint32_t> build_suffix_array_u32(
    const std::vector<seq::Code>& text, int threads) {
  validate_codes(text);
  const std::size_t wn = text.size() + 1;
  MEM2_REQUIRE(wn <= kNarrowMax,
               "build_suffix_array_u32: text too long for a 32-bit suffix "
               "array (use build_suffix_array)");
  const int nt = resolve_threads(threads);
  util::BigVector<std::uint32_t> sa(wn);
  if (narrow_fits(wn)) {
    // The int32 core runs directly in the caller-visible u32 buffer: every
    // value is a non-negative index, so the bit patterns coincide.
    const auto n32 = static_cast<std::int32_t>(wn);
    Ws<std::int32_t> ws;
    sais_rec<std::int32_t>(Level0Text<std::int32_t>{text.data(), n32}, n32,
                           5, reinterpret_cast<std::int32_t*>(sa.data()), ws,
                           nt);
  } else {
    // Test hook forced the 64-bit top level; run wide and narrow after.
    const auto n64 = static_cast<std::int64_t>(wn);
    std::vector<std::int64_t> wide(wn);
    Ws<std::int64_t> ws;
    sais_rec<std::int64_t>(Level0Text<std::int64_t>{text.data(), n64}, n64,
                           std::int64_t{5}, wide.data(), ws, nt);
    for (std::size_t i = 0; i < wn; ++i)
      sa[i] = static_cast<std::uint32_t>(wide[i]);
  }
  return sa;
}

void set_sais_narrow_limit_for_test(std::size_t limit) {
  g_narrow_limit = limit;
}

std::vector<idx_t> build_suffix_array_naive(const std::vector<seq::Code>& text) {
  const idx_t n = static_cast<idx_t>(text.size());
  std::vector<idx_t> sa(static_cast<std::size_t>(n) + 1);
  std::iota(sa.begin(), sa.end(), idx_t{0});
  std::sort(sa.begin(), sa.end(), [&](idx_t a, idx_t b) {
    // Compare suffixes text[a..]$ and text[b..]$ with $ smallest.
    while (a < n && b < n) {
      if (text[static_cast<std::size_t>(a)] != text[static_cast<std::size_t>(b)])
        return text[static_cast<std::size_t>(a)] < text[static_cast<std::size_t>(b)];
      ++a;
      ++b;
    }
    return a == n && b != n;  // shorter suffix (hits $) sorts first
  });
  return sa;
}

}  // namespace mem2::index
