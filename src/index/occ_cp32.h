// Optimized occurrence table — the paper's core SMEM data structure (§4.4).
//
// Bucket size η = 32, one *byte* per BWT base instead of 2 bits, four 32-bit
// counts, 16 bytes of padding: exactly one 64-byte cache line per bucket,
// cache-line aligned.  Occ(c, j) is then: one count load + one 32-byte
// compare-to-c + mask-to-position + popcount — a handful of instructions
// (vs. the XOR/shift cascade of CP128), vectorizable with AVX2's byte
// compare + movemask (paper: "byte level compare using AVX2 ... 32-bit
// popcnt on the mask").
//
// The AVX2 path lives in occ_cp32_avx2.cpp (built with -mavx2) and is
// selected at runtime; the scalar path here is the portable fallback and
// the reference for tests.  eq_gt(), the one-base extension's count, is
// inline SSE2 (x86-64 baseline), so it is one kernel at every dispatch ISA.
#pragma once

#include <emmintrin.h>

#include <cstdint>
#include <vector>

#include "index/bwt.h"
#include "util/big_alloc.h"
#include "util/cpu_features.h"
#include "util/prefetch.h"

namespace mem2::index {

class OccCp32 {
 public:
  static constexpr int kBucketShift = 5;  // η = 32
  static constexpr int kBucket = 1 << kBucketShift;

  struct alignas(64) Bucket {
    std::uint32_t count[4];  // occurrences of each base before this bucket
    std::uint8_t bases[32];  // one byte per base, values 0..3
    std::uint8_t pad[16];    // fill the cache line (paper §4.4)
  };
  static_assert(sizeof(Bucket) == 64, "CP32 bucket must be one cache line");
  static_assert(alignof(Bucket) == 64, "CP32 bucket must be cache aligned");

  OccCp32() = default;
  explicit OccCp32(const std::vector<seq::Code>& bwt) { build(bwt); }
  void build(const std::vector<seq::Code>& bwt);

  /// The bucket counters are uint32_t, so a base occurring 2^32+ times in
  /// the doubled sequence would silently wrap.  Throws invariant_error for
  /// any sequence length that could reach the limit; called by build, by
  /// Mem2Index::build before the (expensive) suffix array, and by the v2
  /// loader before trusting an on-disk header.
  static void check_text_length(idx_t seq_len);

  /// Count of base c among the first j BWT positions.
  idx_t occ(int c, idx_t j) const {
    const Bucket& bkt = buckets_[static_cast<std::size_t>(j >> kBucketShift)];
    return static_cast<idx_t>(bkt.count[c]) +
           occ_in_bucket_(&bkt, c, static_cast<int>(j & (kBucket - 1)));
  }

  /// occ for all four bases at once.
  void occ4(idx_t j, idx_t out[4]) const {
    const Bucket& bkt = buckets_[static_cast<std::size_t>(j >> kBucketShift)];
    occ4_in_bucket_(&bkt, static_cast<int>(j & (kBucket - 1)), out);
  }

  /// Counts of base c (eq) and of bases greater than c (gt) among the first
  /// j BWT positions: all a one-base extension by c reads of a row.  The 32
  /// bucket bytes are compared against c, masked to the first j & 31, and
  /// packed one per byte as eq&1 | gt&64, so two byte sums give
  /// eq = sum & 63 and gt = sum >> 6.  No popcount: outside the -mavx2 TU
  /// that would be a libgcc call.
  void eq_gt(int c, idx_t j, idx_t& eq, idx_t& gt) const {
    const Bucket& bkt = buckets_[static_cast<std::size_t>(j >> kBucketShift)];
    const __m128i y = _mm_set1_epi8(static_cast<char>(j & (kBucket - 1)));
    const __m128i lo = _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    const __m128i needle = _mm_set1_epi8(static_cast<char>(c));
    const __m128i eq_bit = _mm_set1_epi8(1), gt_bit = _mm_set1_epi8(64);
    // Byte sums of one 16-base half; pos holds the half's base positions.
    auto half = [&](const std::uint8_t* bases, __m128i pos) {
      const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bases));
      const __m128i packed =
          _mm_or_si128(_mm_and_si128(_mm_cmpeq_epi8(b, needle), eq_bit),
                       _mm_and_si128(_mm_cmpgt_epi8(b, needle), gt_bit));
      const __m128i in_prefix = _mm_cmpgt_epi8(y, pos);
      return _mm_sad_epu8(_mm_and_si128(packed, in_prefix), _mm_setzero_si128());
    };
    const __m128i sums = _mm_add_epi64(
        half(bkt.bases, lo), half(bkt.bases + 16, _mm_add_epi8(lo, _mm_set1_epi8(16))));
    const int sum = _mm_cvtsi128_si32(_mm_add_epi64(sums, _mm_unpackhi_epi64(sums, sums)));
    // The bucket's counts of the bases above c, summed without a branch on c.
    __m128i above = _mm_and_si128(
        _mm_load_si128(reinterpret_cast<const __m128i*>(bkt.count)),
        _mm_cmpgt_epi32(_mm_setr_epi32(0, 1, 2, 3), _mm_set1_epi32(c)));
    above = _mm_add_epi32(above, _mm_shuffle_epi32(above, 0x4e));
    above = _mm_add_epi32(above, _mm_shuffle_epi32(above, 0xb1));
    eq = static_cast<idx_t>(bkt.count[c]) + (sum & 63);
    gt = static_cast<idx_t>(static_cast<std::uint32_t>(_mm_cvtsi128_si32(above))) + (sum >> 6);
  }

  void prefetch(idx_t j) const {
    util::prefetch_r(&buckets_[static_cast<std::size_t>(j >> kBucketShift)]);
  }

  idx_t size() const { return size_; }
  std::size_t memory_bytes() const { return buckets_.size() * sizeof(Bucket); }

  static constexpr const char* name() { return "cp32"; }

  /// Select the bucket-counting kernels for the given ISA (runtime dispatch;
  /// called automatically on build with util::dispatch_isa()).
  void select_kernels(util::Isa isa);

  // --- kernel signatures (exposed for the AVX2 TU and for tests) ---
  using OccInBucketFn = int (*)(const Bucket*, int c, int y);
  using Occ4InBucketFn = void (*)(const Bucket*, int y, idx_t out[4]);

  static int occ_in_bucket_scalar(const Bucket* bkt, int c, int y);
  static void occ4_in_bucket_scalar(const Bucket* bkt, int y, idx_t out[4]);
  // Defined in occ_cp32_avx2.cpp; safe to *reference* anywhere, only
  // *called* when AVX2 is available.
  static int occ_in_bucket_avx2(const Bucket* bkt, int c, int y);
  static void occ4_in_bucket_avx2(const Bucket* bkt, int y, idx_t out[4]);

  const util::BigVector<Bucket>& buckets() const { return buckets_; }
  void set_buckets(util::BigVector<Bucket> b, idx_t n) {
    buckets_ = std::move(b);
    size_ = n;
    select_kernels(util::dispatch_isa());
  }

 private:
  // Huge-page/NUMA-advised storage: this table is the hottest random-access
  // structure in the aligner (every backward extension loads a bucket).
  util::BigVector<Bucket> buckets_;
  idx_t size_ = 0;
  OccInBucketFn occ_in_bucket_ = &occ_in_bucket_scalar;
  Occ4InBucketFn occ4_in_bucket_ = &occ4_in_bucket_scalar;
};

}  // namespace mem2::index
