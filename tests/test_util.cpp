// util module: arena allocator, radix sort, RNG determinism, ISA dispatch,
// software counters.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "util/arena.h"
#include "util/big_alloc.h"
#include "util/checksum.h"
#include "util/cpu_features.h"
#include "util/radix_sort.h"
#include "util/rng.h"
#include "util/sw_counters.h"

namespace mem2::util {
namespace {

TEST(Arena, AllocatesDistinctWritableBlocks) {
  Arena arena(1 << 12);
  auto* a = arena.allocate_array<int>(100);
  auto* b = arena.allocate_array<int>(100);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  for (int i = 0; i < 100; ++i) {
    a[i] = i;
    b[i] = -i;
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a[i], i);
    EXPECT_EQ(b[i], -i);
  }
}

TEST(Arena, RespectsAlignment) {
  Arena arena;
  for (std::size_t align : {1u, 2u, 8u, 64u, 4096u}) {
    void* p = arena.allocate(13, align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u) << align;
  }
}

TEST(Arena, ResetReusesMemoryWithoutSystemAllocations) {
  Arena arena(1 << 16);
  arena.allocate(1 << 15);
  arena.allocate(1 << 15);
  const auto allocs_before = arena.system_allocations();
  const auto reserved = arena.bytes_reserved();
  for (int batch = 0; batch < 50; ++batch) {
    arena.reset();
    arena.allocate(1 << 15);
    arena.allocate(1 << 15);
  }
  // The paper's point (§3.2): after warm-up, batches must not touch the
  // system allocator.
  EXPECT_EQ(arena.system_allocations(), allocs_before);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(Arena, OversizedRequestGetsDedicatedChunk) {
  Arena arena(1 << 10);
  auto* p = arena.allocate_array<char>(1 << 20);
  std::memset(p, 0xab, 1 << 20);
  EXPECT_GE(arena.bytes_reserved(), std::size_t{1} << 20);
}

TEST(Arena, RejectsBadAlignment) {
  Arena arena;
  EXPECT_THROW(arena.allocate(8, 3), invariant_error);
}

TEST(ArenaAllocator, WorksWithStdVector) {
  Arena arena;
  std::vector<int, ArenaAllocator<int>> v{ArenaAllocator<int>(&arena)};
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(RadixSort, SortsIndicesStably) {
  std::vector<std::uint32_t> keys = {5, 3, 5, 1, 9, 3, 0};
  std::vector<std::uint32_t> perm = {0, 1, 2, 3, 4, 5, 6};
  radix_sort_indices(keys, perm);
  const std::vector<std::uint32_t> expect = {6, 3, 1, 5, 0, 2, 4};
  EXPECT_EQ(perm, expect);  // stability: 1 before 5 (keys 3), 0 before 2 (keys 5)
}

class RadixSortRandom : public ::testing::TestWithParam<int> {};

TEST_P(RadixSortRandom, MatchesStdStableSort) {
  Xoshiro256ss rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = rng.below(5000);
  std::vector<std::uint32_t> keys(n);
  const std::uint32_t key_range =
      GetParam() % 2 ? 300u : 0xffffffffu;  // short keys vs full width
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng.below(key_range + 1ull));
  std::vector<std::uint32_t> perm(n), expect(n);
  for (std::uint32_t i = 0; i < n; ++i) perm[i] = expect[i] = i;
  std::stable_sort(expect.begin(), expect.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return keys[a] < keys[b]; });
  radix_sort_indices(keys, perm);
  EXPECT_EQ(perm, expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadixSortRandom, ::testing::Range(0, 12));

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256ss a(123), b(123);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a(), b());
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256ss rng(9);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
  }
}

TEST(Rng, UniformCoversUnitInterval) {
  Xoshiro256ss rng(4);
  double lo = 1.0, hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(CpuFeatures, ParseRoundTrips) {
  EXPECT_EQ(parse_isa("scalar"), Isa::kScalar);
  EXPECT_EQ(parse_isa("AVX2"), Isa::kAvx2);
  EXPECT_EQ(parse_isa("avx512"), Isa::kAvx512);
  EXPECT_THROW(parse_isa("sse9"), std::invalid_argument);
}

TEST(CpuFeatures, CapBoundsDispatch) {
  const Isa detected = detect_isa();
  set_isa_cap(Isa::kScalar);
  EXPECT_EQ(dispatch_isa(), Isa::kScalar);
  set_isa_cap(Isa::kAvx512);
  EXPECT_EQ(dispatch_isa(), detected);
}

TEST(SwCounters, AggregationAndReset) {
  SwCounters a, b;
  a.occ_bucket_loads = 5;
  b.occ_bucket_loads = 7;
  b.bsw_cells_total = 11;
  a += b;
  EXPECT_EQ(a.occ_bucket_loads, 12u);
  EXPECT_EQ(a.bsw_cells_total, 11u);
  a.reset();
  EXPECT_EQ(a.occ_bucket_loads, 0u);
  EXPECT_NE(a.summary().find("occ_bucket_loads=0"), std::string::npos);
}

TEST(SwCounters, Subtraction) {
  SwCounters a, b;
  a.occ_bucket_loads = 12;
  a.smems_found = 4;
  b.occ_bucket_loads = 5;
  const SwCounters d = a - b;
  EXPECT_EQ(d.occ_bucket_loads, 7u);
  EXPECT_EQ(d.smems_found, 4u);
}

TEST(CounterCapture, TakeReturnsDeltaAndRestoresBaseline) {
  // A worker thread serving session A must not leak A's counts into
  // session B's capture when it picks up B's batch next: take() yields
  // only the work done inside the capture scope and puts the thread's
  // prior tally back.
  tls_counters().reset();
  tls_counters().occ_bucket_loads = 5;
  {
    CounterCapture capture;
    EXPECT_EQ(tls_counters().occ_bucket_loads, 0u);  // scope starts clean
    tls_counters().occ_bucket_loads += 7;
    tls_counters().bsw_pairs += 3;
    const SwCounters delta = capture.take();
    EXPECT_EQ(delta.occ_bucket_loads, 7u);
    EXPECT_EQ(delta.bsw_pairs, 3u);
  }
  // Baseline restored: the 5 pre-existing loads survive, the 7 do not.
  EXPECT_EQ(tls_counters().occ_bucket_loads, 5u);
  EXPECT_EQ(tls_counters().bsw_pairs, 0u);

  // Nested captures: the inner take() must not disturb the outer delta.
  {
    CounterCapture outer;
    tls_counters().smems_found += 2;
    {
      CounterCapture inner;
      tls_counters().smems_found += 9;
      EXPECT_EQ(inner.take().smems_found, 9u);
    }
    EXPECT_EQ(outer.take().smems_found, 2u);
  }
  EXPECT_EQ(tls_counters().occ_bucket_loads, 5u);
  tls_counters().reset();
}

TEST(CounterCapture, DestructorWithoutTakeRestoresBaseline) {
  tls_counters().reset();
  tls_counters().occ_bucket_loads = 2;
  {
    CounterCapture capture;
    tls_counters().occ_bucket_loads += 100;  // abandoned (e.g. error path)
  }
  EXPECT_EQ(tls_counters().occ_bucket_loads, 2u);
  tls_counters().reset();
}

// ---------------------------------------------------------------------------
// util::Xxh64Stream — the streaming index writer/reader hash must agree
// with the one-shot implementation for every length class (empty, sub-tail,
// sub-stripe, stripe-exact, long) and every chunking of the same input.

TEST(Xxh64Stream, MatchesOneShotAcrossLengths) {
  Xoshiro256ss rng(4242);
  std::vector<unsigned char> data(1024);
  for (auto& b : data) b = static_cast<unsigned char>(rng.below(256));
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          std::size_t{7}, std::size_t{8}, std::size_t{31},
                          std::size_t{32}, std::size_t{33}, std::size_t{64},
                          std::size_t{100}, std::size_t{1024}}) {
    Xxh64Stream h;
    h.update(data.data(), len);
    EXPECT_EQ(h.digest(), xxhash64(data.data(), len)) << "len=" << len;
  }
}

TEST(Xxh64Stream, ChunkingDoesNotChangeTheDigest) {
  Xoshiro256ss rng(515151);
  std::vector<unsigned char> data(4096);
  for (auto& b : data) b = static_cast<unsigned char>(rng.below(256));
  const std::uint64_t expect = xxhash64(data.data(), data.size());
  for (std::size_t chunk : {std::size_t{1}, std::size_t{5}, std::size_t{31},
                            std::size_t{32}, std::size_t{33}, std::size_t{1000}}) {
    Xxh64Stream h;
    for (std::size_t off = 0; off < data.size(); off += chunk)
      h.update(data.data() + off, std::min(chunk, data.size() - off));
    EXPECT_EQ(h.digest(), expect) << "chunk=" << chunk;
  }
  // Digest is observable mid-stream without perturbing later updates.
  Xxh64Stream h;
  h.update(data.data(), 40);
  EXPECT_EQ(h.digest(), xxhash64(data.data(), 40));
  h.update(data.data() + 40, data.size() - 40);
  EXPECT_EQ(h.digest(), expect);
}

// ---------------------------------------------------------------------------
// util::BigAllocator — the mmap-backed allocator behind the occ tables and
// the flat SA.

TEST(BigAllocator, VectorRoundTripAcrossTheMmapThreshold) {
  // Small (operator new path) and large (mmap path) allocations must both
  // store/load correctly and survive growth across the threshold.
  BigVector<std::uint32_t> v;
  for (std::uint32_t i = 0; i < 100; ++i) v.push_back(i * 7);
  v.resize((std::size_t{8} << 20) / sizeof(std::uint32_t));  // 8 MiB: mmap'd
  for (std::size_t i = 0; i < 100; ++i)
    ASSERT_EQ(v[i], static_cast<std::uint32_t>(i * 7));
  v[v.size() - 1] = 0xdeadbeef;
  EXPECT_EQ(v[v.size() - 1], 0xdeadbeefu);
}

TEST(BigAllocator, LargeAllocationsAreSuitablyAligned) {
  BigVector<std::uint64_t> v((std::size_t{8} << 20) / sizeof(std::uint64_t));
  // mmap returns page-aligned memory; anything the occ tables need (64-byte
  // cache lines) follows.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 4096, 0u);
}

TEST(BigAllocator, RssProbesReportSomethingPlausible) {
  EXPECT_GT(current_rss_bytes(), 0u);
  EXPECT_GE(peak_rss_bytes(), current_rss_bytes() / 2);  // HWM >= a floor
  // prefault_pages on a fresh mapping must not crash and leaves the pages
  // readable.
  BigVector<unsigned char> v(std::size_t{4} << 20);
  prefault_pages(v.data(), v.size());
  EXPECT_EQ(v[0], 0);
  EXPECT_EQ(v[v.size() - 1], 0);
}

}  // namespace
}  // namespace mem2::util
