#include "index/occ_cp32.h"

#include <string>

namespace mem2::index {

void OccCp32::check_text_length(idx_t seq_len) {
  constexpr idx_t kMax = (idx_t{1} << 32) - 1;
  if (seq_len > kMax)
    throw mem2::invariant_error(
        "CP32 occ table stores uint32_t bucket counts: doubled sequence "
        "length " +
        std::to_string(seq_len) + " exceeds the 4294967295 (2^32-1) limit");
}

void OccCp32::build(const std::vector<seq::Code>& bwt) {
  check_text_length(static_cast<idx_t>(bwt.size()));
  size_ = static_cast<idx_t>(bwt.size());
  const std::size_t n_buckets = bwt.size() / kBucket + 1;
  buckets_.assign(n_buckets, Bucket{});

  std::uint32_t running[4] = {0, 0, 0, 0};
  for (std::size_t b = 0; b < n_buckets; ++b) {
    for (int c = 0; c < 4; ++c) buckets_[b].count[c] = running[c];
    for (int r = 0; r < kBucket; ++r) {
      const std::size_t pos = b * kBucket + static_cast<std::size_t>(r);
      if (pos >= bwt.size()) break;
      buckets_[b].bases[r] = bwt[pos];
      ++running[bwt[pos]];
    }
  }
  select_kernels(util::dispatch_isa());
}

void OccCp32::select_kernels(util::Isa isa) {
  if (isa >= util::Isa::kAvx2) {
    occ_in_bucket_ = &occ_in_bucket_avx2;
    occ4_in_bucket_ = &occ4_in_bucket_avx2;
  } else {
    occ_in_bucket_ = &occ_in_bucket_scalar;
    occ4_in_bucket_ = &occ4_in_bucket_scalar;
  }
}

int OccCp32::occ_in_bucket_scalar(const Bucket* bkt, int c, int y) {
  int n = 0;
  for (int i = 0; i < y; ++i) n += bkt->bases[i] == c;
  return n;
}

void OccCp32::occ4_in_bucket_scalar(const Bucket* bkt, int y, idx_t out[4]) {
  int n[4] = {0, 0, 0, 0};
  for (int i = 0; i < y; ++i) ++n[bkt->bases[i]];
  for (int c = 0; c < 4; ++c)
    out[c] = static_cast<idx_t>(bkt->count[c]) + n[c];
}

}  // namespace mem2::index
