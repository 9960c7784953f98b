// Baseline occurrence table — BWA-MEM's layout (paper §2.5.1, §4.4).
//
// Checkpoints every η=128 BWT positions.  Each bucket stores four 64-bit
// cumulative counts plus the 128 bases of its window packed 2 bits each into
// four 64-bit words (32+32 = 64 bytes of payload, like bwa's interleaved
// `bwt_t`).  Computing Occ(c, j) therefore requires unpacking up to four
// words with the XOR/mask/popcount trick — the "large number of
// instructions" the paper measures (Table 4 "Original" column).
#pragma once

#include <cstdint>
#include <vector>

#include "index/bwt.h"
#include "util/big_alloc.h"
#include "util/prefetch.h"

namespace mem2::index {

class OccCp128 {
 public:
  static constexpr int kBucketShift = 7;  // η = 128
  static constexpr int kBucket = 1 << kBucketShift;

  struct Bucket {
    std::uint64_t count[4];  // occurrences of each base before this bucket
    std::uint64_t packed[4]; // 128 bases, 2 bits each, little-endian in word
  };
  static_assert(sizeof(Bucket) == 64, "CP128 bucket must be one cache line");

  OccCp128() = default;
  explicit OccCp128(const std::vector<seq::Code>& bwt) { build(bwt); }
  void build(const std::vector<seq::Code>& bwt);

  /// Count of base c among the first j BWT positions (sentinel-free array).
  idx_t occ(int c, idx_t j) const;

  /// occ for all four bases at once (shares the bucket decode).
  void occ4(idx_t j, idx_t out[4]) const;

  /// Counts of base c (eq) and of bases greater than c (gt) among the first
  /// j positions, through occ4's decode.
  void eq_gt(int c, idx_t j, idx_t& eq, idx_t& gt) const {
    idx_t n[4];
    occ4(j, n);
    eq = n[c];
    gt = 0;
    for (int b = c + 1; b < 4; ++b) gt += n[b];
  }

  /// Prefetch the bucket containing position j.
  void prefetch(idx_t j) const {
    util::prefetch_r(&buckets_[static_cast<std::size_t>(j >> kBucketShift)]);
  }

  idx_t size() const { return size_; }
  std::size_t memory_bytes() const { return buckets_.size() * sizeof(Bucket); }

  const util::BigVector<Bucket>& buckets() const { return buckets_; }
  void set_buckets(util::BigVector<Bucket> b, idx_t n) {
    buckets_ = std::move(b);
    size_ = n;
  }

  static constexpr const char* name() { return "cp128"; }

 private:
  util::BigVector<Bucket> buckets_;
  idx_t size_ = 0;
};

}  // namespace mem2::index
