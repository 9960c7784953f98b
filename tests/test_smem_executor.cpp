// Interleaved seeding executor: the K-in-flight state machines must be
// bit-identical to the scalar collect_smems / seeds_from_smems path for
// every K, backend, thread count and query shape — ambiguous bases, very
// short and empty reads, empty batches.  The executor only changes *when*
// Occ lines are touched, never *which* extensions happen.
#include <gtest/gtest.h>

#include "align/driver.h"
#include "index/mem2_index.h"
#include "io/sam.h"
#include "seq/genome_sim.h"
#include "seq/read_sim.h"
#include "smem/smem_executor.h"
#include "util/rng.h"

namespace mem2::smem {
namespace {

struct ExecutorFixture {
  index::Mem2Index index;
  std::vector<std::vector<seq::Code>> queries;

  ExecutorFixture() {
    seq::GenomeConfig g;
    g.seed = 20190527;
    g.contig_lengths = {30000, 10000};
    g.repeat_fraction = 0.4;
    index = index::Mem2Index::build(seq::simulate_genome(g));

    // A deliberately rough mix: simulated reads with errors, reads with
    // injected ambiguous bases, very short reads, and empty reads.
    seq::ReadSimConfig rc;
    rc.seed = 11;
    rc.read_length = 101;
    rc.num_reads = 120;
    rc.substitution_rate = 0.02;
    util::Xoshiro256ss rng(99);
    for (const auto& read : seq::simulate_reads(index.ref(), rc)) {
      std::vector<seq::Code> q(read.bases.size());
      for (std::size_t j = 0; j < q.size(); ++j)
        q[j] = seq::char_to_code(read.bases[j]);
      if (rng.below(3) == 0)  // pepper ~1/3 of reads with Ns
        for (int n = 0; n < 3; ++n) q[rng.below(q.size())] = seq::kAmbig;
      queries.push_back(std::move(q));
      if (queries.size() % 10 == 0) {
        // Short fragments of the previous read, including degenerate sizes
        // (copy: emplace_back may reallocate queries).
        const std::vector<seq::Code> prev = queries.back();
        for (const std::size_t len : {std::size_t{0}, std::size_t{1},
                                      std::size_t{2}, std::size_t{7}})
          queries.emplace_back(prev.begin(),
                               prev.begin() + static_cast<std::ptrdiff_t>(len));
      }
    }
    // An all-N read: every position is skipped by every round.
    queries.emplace_back(25, seq::kAmbig);
  }

  template <class Fm>
  std::vector<std::vector<Smem>> scalar(const Fm& fm, const SeedingOptions& opt,
                                        bool prefetch) const {
    SmemWorkspace ws;
    std::vector<std::vector<Smem>> out(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i)
      collect_smems(fm, queries[i], opt, out[i], ws,
                    util::PrefetchPolicy{prefetch});
    return out;
  }

  template <class Fm>
  std::vector<std::vector<Smem>> interleaved(const Fm& fm,
                                             const SeedingOptions& opt,
                                             bool prefetch, int k) const {
    std::vector<std::vector<Smem>> out(queries.size());
    std::vector<QueryRef> refs(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i)
      refs[i] = QueryRef{queries[i], &out[i]};
    SmemExecutor ex(k);
    ex.collect(fm, refs, opt, util::PrefetchPolicy{prefetch});
    return out;
  }
};

const ExecutorFixture& fixture() {
  static const ExecutorFixture fx;
  return fx;
}

class InflightTest : public ::testing::TestWithParam<int> {};

TEST_P(InflightTest, IdenticalToScalarCp32) {
  const auto& fx = fixture();
  SeedingOptions opt;
  const auto expect = fx.scalar(fx.index.fm32(), opt, true);
  const auto got = fx.interleaved(fx.index.fm32(), opt, true, GetParam());
  ASSERT_EQ(expect.size(), got.size());
  for (std::size_t i = 0; i < expect.size(); ++i)
    ASSERT_EQ(expect[i], got[i]) << "read " << i << " K=" << GetParam();
}

TEST_P(InflightTest, IdenticalToScalarCp128) {
  const auto& fx = fixture();
  SeedingOptions opt;
  const auto expect = fx.scalar(fx.index.fm128(), opt, true);
  const auto got = fx.interleaved(fx.index.fm128(), opt, true, GetParam());
  for (std::size_t i = 0; i < expect.size(); ++i)
    ASSERT_EQ(expect[i], got[i]) << "read " << i << " K=" << GetParam();
}

TEST_P(InflightTest, PrefetchOnOffIdentical) {
  const auto& fx = fixture();
  SeedingOptions opt;
  const auto with = fx.interleaved(fx.index.fm32(), opt, true, GetParam());
  const auto without = fx.interleaved(fx.index.fm32(), opt, false, GetParam());
  for (std::size_t i = 0; i < with.size(); ++i) ASSERT_EQ(with[i], without[i]);
}

TEST_P(InflightTest, ThirdRoundDisabledIdentical) {
  const auto& fx = fixture();
  SeedingOptions opt;
  opt.max_mem_intv = 0;  // skip the LAST-like round entirely
  const auto expect = fx.scalar(fx.index.fm32(), opt, true);
  const auto got = fx.interleaved(fx.index.fm32(), opt, true, GetParam());
  for (std::size_t i = 0; i < expect.size(); ++i) ASSERT_EQ(expect[i], got[i]);
}

INSTANTIATE_TEST_SUITE_P(Inflight, InflightTest, ::testing::Values(1, 3, 8));

TEST(SmemExecutor, EmptyBatchIsANoOp) {
  const auto& fx = fixture();
  SmemExecutor ex(8);
  ex.collect(fx.index.fm32(), std::span<const QueryRef>{}, SeedingOptions{},
             util::PrefetchPolicy{true});  // must not crash or allocate lanes
}

TEST(SmemExecutor, BatchOfOnlyDegenerateReads) {
  const auto& fx = fixture();
  const std::vector<seq::Code> empty;
  const std::vector<seq::Code> one_n(1, seq::kAmbig);
  const std::vector<seq::Code> one_base(1, seq::Code{2});
  std::vector<std::vector<Smem>> out(3);
  const QueryRef refs[3] = {{empty, &out[0]}, {one_n, &out[1]}, {one_base, &out[2]}};
  SmemExecutor ex(8);
  ex.collect(fx.index.fm32(), refs, SeedingOptions{}, util::PrefetchPolicy{true});

  SmemWorkspace ws;
  std::vector<Smem> expect;
  collect_smems(fx.index.fm32(), one_base, SeedingOptions{}, expect, ws,
                util::PrefetchPolicy{true});
  EXPECT_TRUE(out[0].empty());
  EXPECT_TRUE(out[1].empty());
  EXPECT_EQ(out[2], expect);
}

TEST(SmemExecutor, ExecutorReuseAcrossBatches) {
  // Lane workspaces persist; a second batch on the same executor must be as
  // correct as the first (stale curr/prev/mem1 state must not leak).
  const auto& fx = fixture();
  SeedingOptions opt;
  const auto expect = fx.scalar(fx.index.fm32(), opt, true);
  SmemExecutor ex(5);
  for (int round = 0; round < 2; ++round) {
    std::vector<std::vector<Smem>> out(fx.queries.size());
    std::vector<QueryRef> refs(fx.queries.size());
    for (std::size_t i = 0; i < fx.queries.size(); ++i)
      refs[i] = QueryRef{fx.queries[i], &out[i]};
    ex.collect(fx.index.fm32(), refs, opt, util::PrefetchPolicy{true});
    for (std::size_t i = 0; i < expect.size(); ++i)
      ASSERT_EQ(expect[i], out[i]) << "round " << round << " read " << i;
  }
}

TEST(SalBatched, IdenticalToCallbackGather) {
  const auto& fx = fixture();
  SeedingOptions sopt;
  chain::ChainOptions copt;
  copt.max_occ = 13;  // odd cap exercises the stepped sampling
  SmemWorkspace ws;
  std::vector<Smem> smems;
  std::vector<chain::Seed> expect, got;
  for (const auto& q : fx.queries) {
    collect_smems(fx.index.fm32(), q, sopt, smems, ws, util::PrefetchPolicy{true});
    chain::seeds_from_smems(
        smems, copt, [&](idx_t row) { return fx.index.sa_lookup_flat(row); },
        expect);
    chain::seeds_from_smems_batched(smems, copt, fx.index.flat_sa(), got);
    ASSERT_EQ(expect, got);
  }
}

TEST(SmemExecutor, PipelineSamInvariantAcrossInflight) {
  // End-to-end: the batch driver's SAM output must not depend on K.
  const auto& fx = fixture();
  seq::ReadSimConfig rc;
  rc.seed = 21;
  rc.read_length = 101;
  rc.num_reads = 80;
  rc.substitution_rate = 0.015;
  const auto reads = seq::simulate_reads(fx.index.ref(), rc);

  auto run = [&](int k) {
    align::DriverOptions opt;
    opt.mode = align::Mode::kBatch;
    opt.batch_size = 32;
    opt.smem_inflight = k;
    std::string sam;
    for (const auto& rec : align::align_reads(fx.index, reads, opt))
      sam += rec.to_line() + "\n";
    return sam;
  };
  const std::string base = run(1);
  EXPECT_EQ(base, run(3));
  EXPECT_EQ(base, run(8));
}

}  // namespace
}  // namespace mem2::smem
