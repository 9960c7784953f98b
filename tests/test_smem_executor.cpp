// Interleaved seeding executor: the K-in-flight lane coroutines must be
// bit-identical to the scalar collect_smems / seeds_from_smems path for
// every K, backend, thread count and query shape — ambiguous bases, very
// short and empty reads, empty batches.  The executor only changes *when*
// Occ lines are touched, never *which* extensions happen.
//
// The randomized oracle draws each case (K, index flavour, prefetch, third
// round on/off and a batch of query shapes) from one seed; a failure names
// the seed, and `test_smem_executor --seed=N` replays exactly that case.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>
#include <string_view>

#include "align/driver.h"
#include "index/mem2_index.h"
#include "io/sam.h"
#include "seq/genome_sim.h"
#include "seq/read_sim.h"
#include "smem/smem_executor.h"
#include "util/rng.h"

namespace mem2::smem {
namespace oracle_seed {
// Set by --seed=N: run only that case.
std::uint64_t g_replay = 0;
bool g_have_replay = false;
}  // namespace oracle_seed

// Readable failure output: (qb, qe) and the bi-interval.
void PrintTo(const Smem& m, std::ostream* os) {
  *os << "[" << m.qb << "," << m.qe << ") k=" << m.bi.k << " l=" << m.bi.l
      << " s=" << m.bi.s;
}

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

    // Windows from the repeat families: some SMEM of seed length occurs
    // more than once in the reference.
    util::Xoshiro256ss pick(7);
    SmemWorkspace ws;
    std::vector<Smem> smems;
    for (int tries = 0; tries < 4000 && repeat_reads.size() < 48; ++tries) {
      std::vector<seq::Code> w = window(pick, 101);
      collect_smems(index.fm32(), w, SeedingOptions{}, smems, ws,
                    util::PrefetchPolicy{true});
      for (const Smem& m : smems)
        if (m.bi.s > 1 && m.len() >= SeedingOptions{}.min_seed_len) {
          repeat_reads.push_back(std::move(w));
          break;
        }
    }
  }

  /// len reference bases from a random position, on a random strand.
  std::vector<seq::Code> window(util::Xoshiro256ss& rng, int len) const {
    const seq::Reference& ref = index.ref();
    const auto start = static_cast<idx_t>(
        rng.below(static_cast<std::uint64_t>(ref.length() - len + 1)));
    std::vector<seq::Code> w(static_cast<std::size_t>(len));
    for (int j = 0; j < len; ++j) w[static_cast<std::size_t>(j)] = ref.base(start + j);
    if (rng.chance(0.5)) seq::reverse_complement_inplace(w);
    return w;
  }

  std::vector<std::vector<seq::Code>> repeat_reads;

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

// --------------------------------------------------------- randomized oracle

constexpr int kCases = 200;
constexpr std::uint64_t kBaseSeed = 20261017;

int pick(util::Xoshiro256ss& rng, int lo, int hi) {  // [lo, hi]
  return lo + static_cast<int>(rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
}

enum QueryShape {
  kSimulated,    // reference window with 0-5% substitutions
  kNRuns,        // simulated read with one to three runs of N
  kTiny,         // lengths 0, 1 and 2
  kSeedLenEdge,  // exact window of min_seed_len - 1, min_seed_len or + 1
  kAllN,
  kHomopolymer,  // one base repeated, sometimes broken by one other code
  kRepeat,       // window from a repeat family, 0-2% substitutions
  kQueryShapes
};

void mutate(util::Xoshiro256ss& rng, std::vector<seq::Code>& q, double rate) {
  for (seq::Code& c : q)
    if (c < 4 && rng.chance(rate)) c = static_cast<seq::Code>((c + 1 + rng.below(3)) & 3);
}

std::vector<seq::Code> make_query(const ExecutorFixture& fx, util::Xoshiro256ss& rng,
                                  int shape, const SeedingOptions& opt) {
  switch (shape) {
    case kSimulated: {
      auto q = fx.window(rng, pick(rng, 20, 151));
      mutate(rng, q, pick(rng, 0, 5) / 100.0);
      return q;
    }
    case kNRuns: {
      auto q = fx.window(rng, pick(rng, 30, 151));
      mutate(rng, q, pick(rng, 0, 2) / 100.0);
      for (int runs = pick(rng, 1, 3); runs > 0; --runs) {
        const int at = pick(rng, 0, static_cast<int>(q.size()) - 1);
        const int end = std::min(static_cast<int>(q.size()), at + pick(rng, 1, 12));
        std::fill(q.begin() + at, q.begin() + end, seq::kAmbig);
      }
      return q;
    }
    case kTiny:
      return fx.window(rng, pick(rng, 0, 2));
    case kSeedLenEdge:
      return fx.window(rng, opt.min_seed_len + pick(rng, -1, 1));
    case kAllN:
      return std::vector<seq::Code>(static_cast<std::size_t>(pick(rng, 1, 40)), seq::kAmbig);
    case kHomopolymer: {
      std::vector<seq::Code> q(static_cast<std::size_t>(pick(rng, 3, 120)),
                               static_cast<seq::Code>(rng.below(4)));
      if (rng.chance(0.5)) q[rng.below(q.size())] = static_cast<seq::Code>(rng.below(5));
      return q;
    }
    default: {
      auto q = fx.repeat_reads[rng.below(fx.repeat_reads.size())];
      mutate(rng, q, pick(rng, 0, 2) / 100.0);
      return q;
    }
  }
}

struct OracleCase {
  int inflight = 1;
  bool cp32 = true;
  bool prefetch = true;
  SeedingOptions opt;
  std::vector<std::vector<seq::Code>> queries;
};

OracleCase make_case(const ExecutorFixture& fx, std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  static constexpr int kInflight[] = {1, 2, 3, 8, 64};
  OracleCase c;
  c.inflight = kInflight[rng.below(std::size(kInflight))];
  c.cp32 = rng.chance(0.5);
  c.prefetch = rng.chance(0.5);
  if (rng.chance(0.5)) c.opt.max_mem_intv = 0;
  // From fewer reads than lanes to many refills per lane.
  for (int n = pick(rng, 1, 96); n > 0; --n)
    c.queries.push_back(
        make_query(fx, rng, static_cast<int>(rng.below(kQueryShapes)), c.opt));
  return c;
}

/// Serial collect_smems against the executor on one case: every read's SMEM
/// list and the extension, bucket-load and SMEM counters must agree.
template <class Fm>
void check_case(const Fm& fm, const OracleCase& c) {
  const util::PrefetchPolicy pf{c.prefetch};
  const std::size_t n = c.queries.size();
  std::vector<std::vector<Smem>> expect(n), got(n);
  SmemWorkspace ws;
  util::SwCounters before = util::tls_counters();
  for (std::size_t i = 0; i < n; ++i) collect_smems(fm, c.queries[i], c.opt, expect[i], ws, pf);
  const util::SwCounters serial = util::tls_counters() - before;

  std::vector<QueryRef> refs(n);
  for (std::size_t i = 0; i < n; ++i) {
    got[i].assign(2, Smem{});  // stale output the executor must clear
    refs[i] = QueryRef{c.queries[i], &got[i]};
  }
  SmemExecutor ex(c.inflight);
  before = util::tls_counters();
  ex.collect(fm, refs, c.opt, pf);
  const util::SwCounters inter = util::tls_counters() - before;

  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(expect[i], got[i]) << "read " << i << " of " << n;
  EXPECT_EQ(serial.forward_exts, inter.forward_exts);
  EXPECT_EQ(serial.backward_exts, inter.backward_exts);
  EXPECT_EQ(serial.occ_bucket_loads, inter.occ_bucket_loads);
  EXPECT_EQ(serial.smems_found, inter.smems_found);
  EXPECT_EQ(ex.live_walks(), 0);
}

/// Runs body(seed) for every case seed (or only the --seed replay), with
/// the seed attached to any failure.
template <class Body>
void for_each_case(Body&& body) {
  const auto one = [&](std::uint64_t seed) {
    SCOPED_TRACE("replay with: test_smem_executor --seed=" + std::to_string(seed));
    body(seed);
  };
  if (oracle_seed::g_have_replay) {
    one(oracle_seed::g_replay);
    return;
  }
  for (int k = 0; k < kCases && !::testing::Test::HasFailure(); ++k)
    one(kBaseSeed + static_cast<std::uint64_t>(k));
}

TEST(SmemOracle, ExecutorMatchesSerialWalk) {
  const auto& fx = fixture();
  ASSERT_FALSE(fx.repeat_reads.empty());
  for_each_case([&](std::uint64_t seed) {
    const OracleCase c = make_case(fx, seed);
    SCOPED_TRACE("K=" + std::to_string(c.inflight) + (c.cp32 ? " cp32" : " cp128") +
                 (c.prefetch ? " prefetch" : " no-prefetch") +
                 " max_mem_intv=" + std::to_string(c.opt.max_mem_intv));
    if (c.cp32)
      check_case(fx.index.fm32(), c);
    else
      check_case(fx.index.fm128(), c);
  });
}

// ------------------------------------------------------------ exception path

/// FmIndexCp32 whose nth backward_ext1 throws: drives collect()'s unwind with
/// the other lanes suspended mid-walk.
class ThrowingFm {
 public:
  ThrowingFm(const index::FmIndexCp32& fm, std::uint64_t nth) : fm_(fm), left_(nth) {}

  index::BiInterval set_intv(int c) const { return fm_.set_intv(c); }
  index::BiInterval forward_ext1(const index::BiInterval& in, int c) const {
    return fm_.forward_ext1(in, c);
  }
  index::BiInterval backward_ext1(const index::BiInterval& in, int c) const {
    if (--left_ == 0) throw invariant_error("injected backward_ext1 failure");
    return fm_.backward_ext1(in, c);
  }
  void prefetch_rows(idx_t first, idx_t s) const { fm_.prefetch_rows(first, s); }

 private:
  const index::FmIndexCp32& fm_;
  mutable std::uint64_t left_;
};

TEST(SmemExecutor, ThrowLeavesNoSuspendedWalk) {
  const auto& fx = fixture();
  const SeedingOptions opt;
  const util::SwCounters before = util::tls_counters();
  const auto expect = fx.scalar(fx.index.fm32(), opt, true);
  const std::uint64_t total = (util::tls_counters() - before).backward_exts;
  ASSERT_GT(total, 2u);

  SmemExecutor ex(8);
  for (const std::uint64_t nth : {std::uint64_t{1}, total / 2, total}) {
    SCOPED_TRACE("throw on backward_ext1 " + std::to_string(nth) + " of " +
                 std::to_string(total));
    std::vector<std::vector<Smem>> out(fx.queries.size());
    std::vector<QueryRef> refs(fx.queries.size());
    for (std::size_t i = 0; i < fx.queries.size(); ++i)
      refs[i] = QueryRef{fx.queries[i], &out[i]};
    const ThrowingFm thrower(fx.index.fm32(), nth);
    util::SwCounters mark = util::tls_counters();
    EXPECT_THROW(ex.collect(thrower, refs, opt, util::PrefetchPolicy{true}),
                 invariant_error);
    EXPECT_EQ(ex.live_walks(), 0);  // every lane's frame died with collect()
    // The lanes' counts left with the exception: every step before the throw.
    EXPECT_EQ((util::tls_counters() - mark).backward_exts, nth - 1);

    // The same executor serves the next batch as if nothing happened.
    mark = util::tls_counters();
    ex.collect(fx.index.fm32(), refs, opt, util::PrefetchPolicy{true});
    for (std::size_t i = 0; i < expect.size(); ++i) ASSERT_EQ(expect[i], out[i]) << "read " << i;
    EXPECT_EQ((util::tls_counters() - mark).backward_exts, total);
  }
}

}  // namespace
}  // namespace mem2::smem

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--seed=", 0) == 0) {
      mem2::smem::oracle_seed::g_replay = std::strtoull(argv[i] + 7, nullptr, 0);
      mem2::smem::oracle_seed::g_have_replay = true;
      std::printf("replaying case seed %llu\n",
                  static_cast<unsigned long long>(mem2::smem::oracle_seed::g_replay));
    }
  }
  return RUN_ALL_TESTS();
}
