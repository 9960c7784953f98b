// Optimized suffix-array lookup (paper §4.5): keep the SA uncompressed and
// answer SAL with a single array load — Equation (1), j = S[i].
//
// Storage is uint32_t per row (not idx_t): the CP32 occ table already caps
// references below 2^32 doubled chars, so every SA value fits, which halves
// the resident table (4 bytes/row) and lets Mem2Index::build move the
// 32-bit SA-IS output buffer straight in with no widening copy.  Backed by
// util::BigVector for huge-page/NUMA placement — at chromosome scale this
// is the largest DRAM-resident structure and SAL hits it with dependent
// random loads.
#pragma once

#include <cstdint>
#include <vector>

#include "util/big_alloc.h"
#include "util/common.h"
#include "util/prefetch.h"
#include "util/sw_counters.h"

namespace mem2::index {

class FlatSA {
 public:
  FlatSA() = default;

  /// Take ownership of a 32-bit SA buffer (the memory-lean build path).
  void build(util::BigVector<std::uint32_t> sa) { sa_ = std::move(sa); }

  /// Widening-source path (the 64-bit SA-IS build, tests): narrows each
  /// value, which is always lossless under the CP32 length cap.
  void build(const std::vector<idx_t>& sa) {
    sa_.resize(sa.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      MEM2_REQUIRE(sa[i] >= 0 && sa[i] <= idx_t{0xffffffff},
                   "flat SA value out of 32-bit range");
      sa_[i] = static_cast<std::uint32_t>(sa[i]);
    }
  }

  idx_t lookup(idx_t r) const {
    auto& ctr = util::tls_counters();
    ++ctr.sa_lookups;
    ++ctr.sa_memory_loads;
    return static_cast<idx_t>(sa_[static_cast<std::size_t>(r)]);
  }

  /// Request the SA line holding row r ahead of a lookup (§4.3 discipline;
  /// the batched SAL gather issues these in waves running ahead of the
  /// loads so the random-line misses overlap).
  void prefetch(idx_t r) const {
    util::prefetch_r(&sa_[static_cast<std::size_t>(r)]);
    ++util::tls_counters().prefetches;
  }

  std::size_t size() const { return sa_.size(); }
  std::size_t memory_bytes() const { return sa_.size() * sizeof(std::uint32_t); }
  const util::BigVector<std::uint32_t>& values_u32() const { return sa_; }

 private:
  util::BigVector<std::uint32_t> sa_;
};

}  // namespace mem2::index
