// Batch driver: the paper's reorganized workflow (Fig. 2).
//
// Reads are processed in batches; each stage runs across the whole batch
// before the next stage starts.  SMEM uses the CP32 index with software
// prefetching; SAL is a flat-array load; BSW jobs from *all* reads of the
// batch are pooled (enumerated in parallel, spliced in read order) and
// executed by the OpenMP-parallel BswExecutor in four rounds (left try-1,
// left try-2, right try-1, right try-2 — the band-doubling retries of
// mem_chain2aln).  Because which seeds deserve
// extension only becomes known when earlier seeds' regions exist, the batch
// driver extends every seed and lets process_chains() replay the original
// decision logic against the precomputed results — the paper's
// "extend all the seeds of a read, then post process" strategy (§5.3.2),
// which buys SIMD parallelism for ~14% extra extensions.
//
// Paired mode adds a PAIR stage after the single-end regions exist: mate
// rescue harvests banded-SW jobs against the windows implied by each
// mapped mate (pair/mate_rescue.h) and dispatches them through the same
// BswExecutor in two more pooled rounds (left anchors, then right anchors
// seeded with the left scores) — enumerated in parallel blocks and spliced
// in pair order, so the pool and every result are invariant across thread
// counts, exactly like the four extension rounds.  Pair scoring and the
// paired SAM emission (pair/pairing.h) then run read-parallel per pair.
//
// Cross-batch buffers live in containers owned by BatchWorkspace whose
// capacity persists, plus an Arena for the per-read code buffers and the
// chain reference windows (one block per read; BSW results sit in one flat
// per-read table).  After the first batch the steady state performs no
// system allocations for them (§3.2).  Still allocating per batch: the
// chain lists themselves (one seed vector per chain) and, in paired mode,
// the rescue windows, which allocate like bwa's own bns_fetch_seq does.
// The workspace is caller-owned so the streaming Aligner session can keep
// one per worker across many chunks; align_reads_batch wraps a throwaway
// one.
#include <omp.h>

#include <algorithm>

#include "align/cancel.h"
#include "align/driver.h"
#include "align/sam_format.h"
#include "bsw/bsw_executor.h"
#include "pair/mate_rescue.h"
#include "pair/pairing.h"
#include "smem/smem_executor.h"
#include "util/arena.h"
#include "util/fault_injector.h"
#include "util/omp_guard.h"
#include "util/trace.h"

namespace mem2::align {

namespace {

struct SeedJobResults {
  bsw::KswResult res[2][2];  // [side][band_try]
  bool have[2][2] = {{false, false}, {false, false}};
};

struct ReadState {
  std::span<seq::Code> query, query_rev;  // query_rev filled lazily (BSW-pre)
  // Paired mode only: reverse complement and complement of the query (the
  // rescue jobs' forward and reversed views of the opposite-strand mate);
  // filled lazily in the rescue harvest.
  std::span<seq::Code> query_rc, query_comp;
  bool aux_filled = false;
  std::vector<smem::Smem> smems;
  std::vector<chain::Seed> seeds;
  std::vector<chain::Chain> chains;
  double frac_rep = 0;
  std::vector<ChainRef> crefs;          // views into `windows`
  seq::Code* windows = nullptr;         // batch-arena block for all chains
  std::size_t window_codes = 0;         // its length: 2 * total window size
  std::vector<std::uint32_t> seed_off;  // chain -> its first table slot
  std::vector<SeedJobResults> table;    // [seed_off[chain] + seed]
  std::vector<AlnReg> regs;  // post-processed regions (sort_dedup + mark)
  std::uint64_t used = 0;

  SeedJobResults& entry(std::uint32_t chain, std::uint32_t seed) {
    return table[seed_off[chain] + seed];
  }

  void clear() {
    aux_filled = false;
    smems.clear();
    seeds.clear();
    chains.clear();
    crefs.clear();
    windows = nullptr;
    window_codes = 0;
    seed_off.clear();
    table.clear();
    regs.clear();
    used = 0;
  }
};

struct JobRef {
  std::uint32_t read;
  std::uint32_t chain;
  std::uint32_t seed;
  std::uint8_t side;
  std::uint8_t bt;
};

/// Per-block output of parallel job enumeration; capacity persists across
/// rounds and batches (§3.2).
struct JobBlock {
  std::vector<bsw::ExtendJob> jobs;
  std::vector<JobRef> refs;
};

/// Per-block output of the parallel rescue harvest (paired mode).
struct PairBlock {
  std::vector<pair::RescueAttempt> attempts;
  std::uint64_t windows = 0;      // rescue windows anchor-scanned
  std::uint64_t win_skipped = 0;  // skipped: (mate, orientation) already satisfied
  std::uint64_t win_deduped = 0;  // content-identical to an earlier window
};

/// One window already seen for the (pair, mate) being harvested — the
/// dedup key plus where its content lives (a stored attempt, or the
/// anchor-less side list).
struct SeenWindow {
  std::uint64_t fp = 0;
  std::uint32_t len = 0;
  bool is_rev = false;
  std::int32_t attempt = -1;  // index into PairBlock::attempts, or -1
  std::int32_t zero = -1;     // index into the anchor-less content list
};

/// (attempt, anchor) a rescue-round job scatters back to.
struct RescueRef {
  std::uint32_t attempt;
  std::uint32_t anchor;
};

/// Replays extensions out of the per-read table.
class TableSource final : public SeedExtendSource {
 public:
  explicit TableSource(ReadState& state) : state_(state) {}

  bsw::KswResult extend(int chain_idx, int seed_idx, int side, int band_try,
                        const bsw::ExtendJob&) override {
    const auto& entry = state_.entry(static_cast<std::uint32_t>(chain_idx),
                                     static_cast<std::uint32_t>(seed_idx));
    MEM2_REQUIRE(entry.have[side][band_try], "missing precomputed extension");
    ++state_.used;
    return entry.res[side][band_try];
  }

  const ChainRef* chain_ref(int chain_idx) override {
    return &state_.crefs[static_cast<std::size_t>(chain_idx)];
  }

 private:
  ReadState& state_;
};

int left_final_score(const SeedJobResults& e, const chain::Seed& s, int a) {
  if (s.qbeg == 0) return s.len * a;
  if (e.have[0][1]) return e.res[0][1].score;
  if (e.have[0][0]) return e.res[0][0].score;
  return s.len * a;  // empty-target left flank
}

/// The degenerate extension result of an empty target flank: ksw on zero
/// target bases trivially keeps the initial score.
bsw::KswResult empty_flank_result(int h0) {
  bsw::KswResult r;
  r.score = h0;
  return r;
}

}  // namespace

struct BatchWorkspace::Impl {
  std::vector<ReadState> states;
  util::Arena arena;
  std::vector<bsw::ExtendJob> jobs;
  std::vector<JobRef> refs;
  std::vector<JobRef> prev_refs;
  std::vector<bsw::KswResult> results;
  std::vector<smem::SmemExecutor> smem_executors;
  std::vector<JobBlock> blocks;
  bsw::BswExecutor executor;
  std::vector<util::StageTimes> thread_stages;
  std::vector<util::SwCounters> thread_counters;
  // Paired mode: rescue attempts (spliced in pair order), their job refs,
  // and per-pair offsets into the spliced list.
  std::vector<PairBlock> pair_blocks;
  std::vector<pair::RescueAttempt> attempts;
  std::vector<RescueRef> rrefs;
  std::vector<std::uint32_t> pair_offsets;
};

BatchWorkspace::BatchWorkspace() : impl_(std::make_unique<Impl>()) {}
BatchWorkspace::~BatchWorkspace() = default;
BatchWorkspace::BatchWorkspace(BatchWorkspace&&) noexcept = default;
BatchWorkspace& BatchWorkspace::operator=(BatchWorkspace&&) noexcept = default;

namespace {

/// Stage-boundary cancellation hook: heartbeat + cooperative abort.  Never
/// called from inside an OpenMP region — always between stages on the
/// orchestrating thread, so an abort unwinds cleanly past joined regions.
inline void stage_checkpoint(CancelToken* cancel) {
  if (cancel) cancel->checkpoint();
}

/// The single-end stages over one batch [batch_beg, batch_beg + nb):
/// encode, SMEM, SAL, CHAIN, the four pooled BSW rounds, and the replayed
/// decision logic, leaving each read's post-processed region list in
/// states[i].regs.  When emit_sam is set the single-end SAM records are
/// formatted in the same pass (the non-paired driver path).
void batch_regions(const index::Mem2Index& index, std::span<const seq::Read> reads,
                   std::size_t batch_beg, int nb, const DriverOptions& options,
                   BatchWorkspace::Impl& ws, bool emit_sam,
                   std::vector<std::vector<io::SamRecord>>* per_read,
                   DriverStats* stats, CancelToken* cancel = nullptr) {
  const util::PrefetchPolicy prefetch{options.prefetch};
  const int n_threads = options.threads;
  std::vector<util::StageTimes>& thread_stages = ws.thread_stages;
  std::vector<util::SwCounters>& thread_counters = ws.thread_counters;
  std::vector<ReadState>& states = ws.states;
  util::Arena& arena = ws.arena;
  std::vector<bsw::ExtendJob>& jobs = ws.jobs;
  std::vector<JobRef>& refs = ws.refs;
  std::vector<JobRef>& prev_refs = ws.prev_refs;
  std::vector<bsw::KswResult>& results = ws.results;
  std::vector<smem::SmemExecutor>& smem_executors = ws.smem_executors;
  std::vector<JobBlock>& blocks = ws.blocks;
  bsw::BswExecutor& executor = ws.executor;
  const int bsw_threads = executor.threads();
  util::StageTimes& st0 = thread_stages[0];  // serial-section accounting
  // Stream id for span attribution: OpenMP spawns fresh threads whose
  // thread-local trace context is empty, so each parallel region below
  // re-seeds it from the orchestrating thread's value.
  const std::uint32_t trace_pid = util::trace_stream_id();
  // Exceptions thrown inside the parallel regions below (index invariant
  // violations, bad_alloc, injected faults) are captured per-iteration and
  // rethrown on this thread after each region joins, so they reach the
  // session worker's Status boundary instead of terminating the process.
  util::OmpExceptionGuard guard;

  arena.reset();

  // Encode queries into arena memory (contiguous, reused across batches).
  // The bump-pointer allocation stays serial (it is not thread-safe and
  // costs nanoseconds); the O(len) encode fills run across threads, and
  // query_rev is deferred to the BSW pre-processing stage — reads whose
  // chains all filter out never pay for the reversal.  Paired mode
  // additionally reserves the reverse-complement and complement buffers the
  // rescue jobs view; they are filled lazily in the rescue harvest.
  {
    util::TraceSpan encode_span("encode");
    util::ScopedStage s(st0, util::Stage::kMisc);
    for (int i = 0; i < nb; ++i) {
      ReadState& rs = states[static_cast<std::size_t>(i)];
      rs.clear();
      const std::size_t len =
          reads[batch_beg + static_cast<std::size_t>(i)].bases.size();
      rs.query = {arena.allocate_array<seq::Code>(len), len};
      rs.query_rev = {arena.allocate_array<seq::Code>(len), len};
      if (options.paired) {
        rs.query_rc = {arena.allocate_array<seq::Code>(len), len};
        rs.query_comp = {arena.allocate_array<seq::Code>(len), len};
      }
    }
#pragma omp parallel for schedule(static) num_threads(n_threads)
    for (int i = 0; i < nb; ++i) {
      guard.run([&] {
        ReadState& rs = states[static_cast<std::size_t>(i)];
        const std::string& bases = reads[batch_beg + static_cast<std::size_t>(i)].bases;
        for (std::size_t j = 0; j < bases.size(); ++j)
          rs.query[j] = seq::char_to_code(bases[j]);
      });
    }
    guard.rethrow();
  }
  stage_checkpoint(cancel);

  // --- SMEM stage (whole batch): each thread takes a group of reads and
  // runs smem_inflight walks in lockstep on its SmemExecutor, so one
  // read's Occ misses overlap the other in-flight reads' work.  Group
  // size balances lane refill (>= inflight) against work units for the
  // dynamic schedule (>= ~4 groups per thread when the batch allows). ---
  constexpr int kSmemGroup = 64;  // upper bound (qrefs stack array below)
  static_assert(kSmemGroup >= smem::SmemExecutor::kMaxInflight,
                "groups must be able to fill every lane");
  const int group = std::clamp(nb / (4 * n_threads), options.smem_inflight,
                               kSmemGroup);
  const int n_groups = (nb + group - 1) / group;
#pragma omp parallel num_threads(n_threads)
  {
    const int tid = omp_get_thread_num();
    util::TraceStreamScope trace_ctx(trace_pid);
    util::CounterCapture capture;  // per-session delta, not a TLS reset
    util::StageTimes& st = thread_stages[static_cast<std::size_t>(tid)];
    util::TraceSpan smem_span("smem");
    util::Timer timer;
#pragma omp for schedule(dynamic, 1)
    for (int g = 0; g < n_groups; ++g) {
      guard.run([&] {
        const int beg = g * group;
        const int end = std::min(nb, beg + group);
        smem::QueryRef qrefs[kSmemGroup];
        for (int i = beg; i < end; ++i) {
          ReadState& rs = states[static_cast<std::size_t>(i)];
          qrefs[i - beg] = smem::QueryRef{rs.query, &rs.smems};
        }
        smem_executors[static_cast<std::size_t>(tid)].collect(
            index.fm32(), std::span(qrefs, static_cast<std::size_t>(end - beg)),
            options.mem.seeding, prefetch);
      });
    }
    st[util::Stage::kSmem] += timer.seconds();
    smem_span.finish();

    // --- SAL stage: batched gather, SA lines prefetched in waves ---
    util::TraceSpan sal_span("sal");
    timer.restart();
#pragma omp for schedule(dynamic, 8)
    for (int i = 0; i < nb; ++i) {
      guard.run([&] {
        ReadState& rs = states[static_cast<std::size_t>(i)];
        smem_executors[static_cast<std::size_t>(tid)].gather_seeds(
            rs.smems, options.mem.chaining, index.flat_sa(), rs.seeds);
      });
    }
    st[util::Stage::kSal] += timer.seconds();
    sal_span.finish();

    // --- CHAIN stage ---
    util::TraceSpan chain_span("chain");
    timer.restart();
#pragma omp for schedule(dynamic, 8)
    for (int i = 0; i < nb; ++i) {
      guard.run([&] {
        ReadState& rs = states[static_cast<std::size_t>(i)];
        rs.frac_rep = chain::repetitive_fraction(
            rs.smems, static_cast<int>(rs.query.size()), options.mem.chaining.max_occ);
        rs.chains = chain::build_chains(index.ref(), index.l_pac(), rs.seeds,
                                        static_cast<int>(rs.query.size()),
                                        options.mem.chaining, rs.frac_rep);
        util::SwCounters& cnt = util::tls_counters();
        cnt.chains_built += rs.chains.size();
        chain::filter_chains(rs.chains, options.mem.chaining);
        cnt.chains_kept += rs.chains.size();
      });
    }
    st[util::Stage::kChain] += timer.seconds();
    chain_span.finish();

    // --- BSW pre-processing: chain windows + flat result table.  Window
    // bounds and table offsets first; then one serial pass carves each
    // read's windows from the batch arena (bump allocations, no locks);
    // then the fetches fill them. ---
    util::TraceSpan pre_span("bsw-pre");
    timer.restart();
#pragma omp for schedule(dynamic, 8)
    for (int i = 0; i < nb; ++i) {
      guard.run([&] {
        ReadState& rs = states[static_cast<std::size_t>(i)];
        if (rs.chains.empty()) return;  // query_rev never needed
        // Deferred from encoding: the reversed query's first reader is job
        // construction below, so only reads that reach extension pay for it.
        for (std::size_t j = 0; j < rs.query.size(); ++j)
          rs.query_rev[rs.query.size() - 1 - j] = rs.query[j];
        ExtendContext ctx{options.mem, index, rs.query, rs.query_rev};
        const std::size_t n_chains = rs.chains.size();
        rs.crefs.resize(n_chains);
        rs.seed_off.resize(n_chains);
        std::uint32_t n_seeds = 0;
        for (std::size_t ci = 0; ci < n_chains; ++ci) {
          rs.crefs[ci] = chain_window(ctx, rs.chains[ci]);
          rs.window_codes += 2 * rs.crefs[ci].size();
          rs.seed_off[ci] = n_seeds;
          n_seeds += static_cast<std::uint32_t>(rs.chains[ci].seeds.size());
        }
        rs.table.assign(n_seeds, SeedJobResults{});
      });
    }
#pragma omp single
    guard.run([&] {
      for (int i = 0; i < nb; ++i) {
        ReadState& rs = states[static_cast<std::size_t>(i)];
        if (!rs.crefs.empty())
          rs.windows = arena.allocate_array<seq::Code>(rs.window_codes);
      }
    });
#pragma omp for schedule(dynamic, 8)
    for (int i = 0; i < nb; ++i) {
      guard.run([&] {
        ReadState& rs = states[static_cast<std::size_t>(i)];
        seq::Code* buf = rs.windows;
        for (ChainRef& cref : rs.crefs) {
          fetch_chain_window(index, cref, buf);
          buf += 2 * cref.size();
        }
      });
    }
    st[util::Stage::kBswPre] += timer.seconds();
    pre_span.finish();
    thread_counters[static_cast<std::size_t>(tid)] += capture.take();
  }
  guard.rethrow();
  stage_checkpoint(cancel);

  // --- BSW stage: four pooled SIMD rounds.  Both halves run parallel:
  // job enumeration builds contiguous per-block lists spliced in read
  // order, and the executor dispatches width-aligned chunks across
  // threads.  The pooled list and every result are bit-identical to the
  // serial path for any thread count. ---
  {
    util::TraceSpan bsw_span("bsw");
    util::Timer bsw_timer;
    util::CounterCapture capture;  // banks the executor's reduced counters
    // Enumerate items [0, n_items) into per-block job lists built
    // concurrently, then splice in block order.  Blocks are contiguous
    // item ranges, so the spliced pool preserves read order exactly.
    auto enumerate = [&](int n_items, auto&& body) {
      const int n_blocks = static_cast<int>(blocks.size());
#pragma omp parallel for schedule(static, 1) num_threads(bsw_threads)
      for (int b = 0; b < n_blocks; ++b) {
        guard.run([&] {
          JobBlock& jb = blocks[static_cast<std::size_t>(b)];
          jb.jobs.clear();
          jb.refs.clear();
          const int beg = static_cast<int>(
              static_cast<std::int64_t>(n_items) * b / n_blocks);
          const int end = static_cast<int>(
              static_cast<std::int64_t>(n_items) * (b + 1) / n_blocks);
          for (int k = beg; k < end; ++k) body(k, jb);
        });
      }
      guard.rethrow();
      jobs.clear();
      refs.clear();
      for (const JobBlock& jb : blocks) {
        jobs.insert(jobs.end(), jb.jobs.begin(), jb.jobs.end());
        refs.insert(refs.end(), jb.refs.begin(), jb.refs.end());
      }
    };

    auto run_round = [&]() {
      util::TraceSpan round_span("bsw-round");
      executor.run(jobs, results, options.mem.ksw, options.bsw,
                   stats ? &stats->bsw_batch : nullptr);
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const JobRef& ref = refs[j];
        auto& entry = states[ref.read].entry(ref.chain, ref.seed);
        entry.res[ref.side][ref.bt] = results[j];
        entry.have[ref.side][ref.bt] = true;
      }
      if (stats) stats->extensions_computed += jobs.size();
      stage_checkpoint(cancel);  // between pooled rounds
    };

    // Round L1.
    enumerate(nb, [&](int i, JobBlock& jb) {
      ReadState& rs = states[static_cast<std::size_t>(i)];
      ExtendContext ctx{options.mem, index, rs.query, rs.query_rev};
      for (std::size_t ci = 0; ci < rs.chains.size(); ++ci)
        for (std::size_t si = 0; si < rs.chains[ci].seeds.size(); ++si) {
          const chain::Seed& s = rs.chains[ci].seeds[si];
          if (s.qbeg == 0) continue;
          const auto job = make_left_job(ctx, rs.crefs[ci], s, options.mem.w);
          if (job.tlen == 0) continue;
          jb.jobs.push_back(job);
          jb.refs.push_back({static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(ci),
                             static_cast<std::uint32_t>(si), 0, 0});
        }
    });
    run_round();

    // Round L2: band-doubling retries.
    prev_refs.swap(refs);
    enumerate(static_cast<int>(prev_refs.size()), [&](int k, JobBlock& jb) {
      const JobRef& ref = prev_refs[static_cast<std::size_t>(k)];
      ReadState& rs = states[ref.read];
      const auto& e = rs.entry(ref.chain, ref.seed);
      const auto& r1 = e.res[0][0];
      if (!band_retry_needed(r1.score, -1, r1.max_off, options.mem.w)) return;
      ExtendContext ctx{options.mem, index, rs.query, rs.query_rev};
      const chain::Seed& s = rs.chains[ref.chain].seeds[ref.seed];
      jb.jobs.push_back(make_left_job(ctx, rs.crefs[ref.chain], s, options.mem.w << 1));
      jb.refs.push_back({ref.read, ref.chain, ref.seed, 0, 1});
    });
    run_round();

    // Round R1.
    enumerate(nb, [&](int i, JobBlock& jb) {
      ReadState& rs = states[static_cast<std::size_t>(i)];
      ExtendContext ctx{options.mem, index, rs.query, rs.query_rev};
      const int l_query = static_cast<int>(rs.query.size());
      for (std::size_t ci = 0; ci < rs.chains.size(); ++ci)
        for (std::size_t si = 0; si < rs.chains[ci].seeds.size(); ++si) {
          const chain::Seed& s = rs.chains[ci].seeds[si];
          if (s.qbeg + s.len == l_query) continue;
          const int sc0 =
              left_final_score(rs.table[rs.seed_off[ci] + si], s, options.mem.ksw.a);
          const auto job = make_right_job(ctx, rs.crefs[ci], s, options.mem.w, sc0);
          if (job.tlen == 0) continue;
          jb.jobs.push_back(job);
          jb.refs.push_back({static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(ci),
                             static_cast<std::uint32_t>(si), 1, 0});
        }
    });
    run_round();

    // Round R2.
    prev_refs.swap(refs);
    enumerate(static_cast<int>(prev_refs.size()), [&](int k, JobBlock& jb) {
      const JobRef& ref = prev_refs[static_cast<std::size_t>(k)];
      ReadState& rs = states[ref.read];
      const chain::Seed& s = rs.chains[ref.chain].seeds[ref.seed];
      const auto& e = rs.entry(ref.chain, ref.seed);
      const int sc0 = left_final_score(e, s, options.mem.ksw.a);
      const auto& r1 = e.res[1][0];
      if (!band_retry_needed(r1.score, sc0, r1.max_off, options.mem.w)) return;
      ExtendContext ctx{options.mem, index, rs.query, rs.query_rev};
      jb.jobs.push_back(
          make_right_job(ctx, rs.crefs[ref.chain], s, options.mem.w << 1, sc0));
      jb.refs.push_back({ref.read, ref.chain, ref.seed, 1, 1});
    });
    run_round();

    st0[util::Stage::kBsw] += bsw_timer.seconds();
    // The executor reduces worker-thread counters onto this (master)
    // thread's TLS sink; the capture banks exactly this session's share.
    thread_counters[0] += capture.take();
  }

  // --- Replay the decision logic into per-read region lists, then
  // (single-end) SAM ---
#pragma omp parallel num_threads(n_threads)
  {
    const int tid = omp_get_thread_num();
    util::TraceStreamScope trace_ctx(trace_pid);
    util::TraceSpan sam_span("sam-emit");
    util::CounterCapture capture;
    util::StageTimes& st = thread_stages[static_cast<std::size_t>(tid)];
#pragma omp for schedule(dynamic, 8)
    for (int i = 0; i < nb; ++i) {
      guard.run([&] {
        if (util::fault_point("align.batch"))
          throw invariant_error("injected fault: align.batch");
        ReadState& rs = states[static_cast<std::size_t>(i)];
        ExtendContext ctx{options.mem, index, rs.query, rs.query_rev};
        TableSource source(rs);
        rs.regs.clear();
        {
          util::ScopedStage s(st, util::Stage::kBswPre);
          process_chains(ctx, rs.chains, source, rs.regs);
        }
        {
          util::ScopedStage s(st, util::Stage::kSamForm);
          sort_dedup_regions(rs.regs, options.mem);
          mark_primary(rs.regs, options.mem);
          if (emit_sam)
            (*per_read)[batch_beg + static_cast<std::size_t>(i)] =
                regions_to_sam(ctx, reads[batch_beg + static_cast<std::size_t>(i)], rs.regs);
        }
      });
    }
    thread_counters[static_cast<std::size_t>(tid)] += capture.take();
  }
  guard.rethrow();
  stage_checkpoint(cancel);

  if (stats) {
    std::uint64_t used = 0;
    for (int i = 0; i < nb; ++i) used += states[static_cast<std::size_t>(i)].used;
    stats->extensions_used += used;
  }
}

/// The PAIR stage over one batch (paired mode): mate-rescue rounds through
/// the shared BswExecutor, then pair scoring and paired SAM emission.
void batch_pair_stage(const index::Mem2Index& index, std::span<const seq::Read> reads,
                      std::size_t batch_beg, int nb, const DriverOptions& options,
                      const pair::InsertStats& pes, BatchWorkspace::Impl& ws,
                      std::vector<std::vector<io::SamRecord>>& per_read,
                      DriverStats* stats, CancelToken* cancel = nullptr) {
  const pair::PairOptions& popt = options.pe;
  const MemOptions& mopt = options.mem;
  const idx_t l_pac = index.l_pac();
  const int n_threads = options.threads;
  const int n_pairs = nb / 2;
  std::vector<ReadState>& states = ws.states;
  util::StageTimes& st0 = ws.thread_stages[0];
  const std::uint32_t trace_pid = util::trace_stream_id();
  util::TraceSpan pair_span("pair");
  util::Timer pair_timer;
  util::CounterCapture capture;  // banks the serial rescue rounds' counters
  util::OmpExceptionGuard guard;  // see batch_regions

  // --- Rescue harvest: parallel blocks over contiguous pair ranges,
  // spliced in pair order (same discipline as the extension rounds).
  // Per (pair, mate), windows are visited in a fixed canonical order
  // (anchor region rank, then orientation class) and run through three
  // layers, all of whose state is local to the pair — so the harvest stays
  // invariant across threads, chunkings and batch sizes:
  //   1. skip (popt.rescue_skip): once a window's anchor carries an exact
  //      match run >= min_seed_len, an accepted rescue for this (mate,
  //      orientation) is guaranteed, and later windows of the same class
  //      are skipped before the reference fetch (bwa mem_matesw's
  //      sequential stop-when-satisfied, made order-canonical);
  //   2. dedup: a window byte-identical to an earlier window of the same
  //      mate (repeat copies; verified by fingerprint + full compare)
  //      reuses the earlier anchor scan and BSW results instead of
  //      rescanning and re-extending — output-identical, work-free;
  //   3. scan: the rolling-hash RescueScanner, built once per mate
  //      orientation and slid across each surviving window. ---
  if (ws.pair_blocks.size() != ws.blocks.size())
    ws.pair_blocks.resize(ws.blocks.size());
  const int n_blocks = static_cast<int>(ws.pair_blocks.size());
  const int rescue_k = popt.rescue_seed_len;
#pragma omp parallel for schedule(static, 1) num_threads(static_cast<int>(ws.blocks.size()))
  for (int b = 0; b < n_blocks; ++b) {
    guard.run([&] {
    util::TraceStreamScope trace_ctx(trace_pid);
    util::TraceSpan harvest_span("pair-harvest");
    PairBlock& pb = ws.pair_blocks[static_cast<std::size_t>(b)];
    pb.attempts.clear();
    pb.windows = pb.win_skipped = pb.win_deduped = 0;
    // Per-mate scratch; capacity reused across the block's pairs.
    std::vector<SeenWindow> seen;
    std::vector<std::vector<seq::Code>> zero_wins;  // anchor-less contents
    const int beg = static_cast<int>(
        static_cast<std::int64_t>(n_pairs) * b / n_blocks);
    const int end = static_cast<int>(
        static_cast<std::int64_t>(n_pairs) * (b + 1) / n_blocks);
    for (int p = beg; p < end; ++p) {
      for (int e = 0; e < 2; ++e) {
        ReadState& ra = states[static_cast<std::size_t>(2 * p + e)];
        ReadState& rm = states[static_cast<std::size_t>(2 * p + (e ^ 1))];
        if (ra.regs.empty()) continue;
        const int l_ms = static_cast<int>(rm.query.size());
        pair::RescueScanner scanners[2];  // [is_rev], built on first window
        bool scanner_built[2] = {false, false};
        bool satisfied[4] = {false, false, false, false};
        seen.clear();
        zero_wins.clear();
        // Anchor regions: near-ties of the best (within pen_unpaired, as in
        // bwa mem_sam_pe's rescue list), capped at max_matesw.
        int tried = 0;
        for (const AlnReg& a : ra.regs) {
          if (tried >= popt.max_matesw) break;
          if (a.score < ra.regs[0].score - popt.pen_unpaired) break;  // score-sorted
          ++tried;
          // Orientation classes not already satisfied by an existing
          // region of the mate (bwa mem_matesw's skip[] pass).
          bool skip[4];
          for (int d = 0; d < 4; ++d) skip[d] = pes.dir[d].failed;
          for (const AlnReg& m : rm.regs) {
            idx_t dist = 0;
            const int d = pair::infer_dir(l_pac, a.rb, m.rb, &dist);
            if (dist >= pes.dir[d].low && dist <= pes.dir[d].high) skip[d] = true;
          }
          if (skip[0] && skip[1] && skip[2] && skip[3]) continue;
          // Fill the mate's auxiliary code views on first use.  Each read
          // belongs to exactly one pair, so this races with nobody.
          if (!rm.aux_filled) {
            const std::size_t L = rm.query.size();
            for (std::size_t j = 0; j < L; ++j) {
              rm.query_rev[L - 1 - j] = rm.query[j];
              rm.query_comp[j] = seq::complement(rm.query[j]);
              rm.query_rc[L - 1 - j] = seq::complement(rm.query[j]);
            }
            rm.aux_filled = true;
          }
          for (int d = 0; d < 4; ++d) {
            if (skip[d]) continue;
            pair::RescueWindow w;
            if (!pair::rescue_window(index.ref(), l_pac, a, pes.dir[d], d, l_ms,
                                     mopt.seeding.min_seed_len, &w))
              continue;
            if (popt.rescue_skip && satisfied[d]) {
              ++pb.win_skipped;
              continue;
            }
            pair::RescueAttempt at;
            at.pair = static_cast<std::uint32_t>(p);
            at.mate = static_cast<std::uint8_t>(e ^ 1);
            at.is_rev = w.is_rev;
            at.rid = a.rid;
            at.win_rb = w.rb;
            at.win = index.fetch(w.rb, w.re);
            at.fp = pair::window_fingerprint(at.win);
            // Dedup against this mate's earlier windows.
            bool is_dup = false;
            std::int32_t canon = -1;
            for (const SeenWindow& sw : seen) {
              if (sw.fp != at.fp || sw.is_rev != w.is_rev ||
                  sw.len != static_cast<std::uint32_t>(at.win.size()))
                continue;
              const std::vector<seq::Code>& prev =
                  sw.attempt >= 0
                      ? pb.attempts[static_cast<std::size_t>(sw.attempt)].win
                      : zero_wins[static_cast<std::size_t>(sw.zero)];
              if (!std::equal(at.win.begin(), at.win.end(), prev.begin()))
                continue;
              is_dup = true;
              canon = sw.attempt;
              break;
            }
            if (is_dup) {
              ++pb.win_deduped;
              if (canon < 0) continue;  // repeated anchor-less window
              const pair::RescueAttempt& src =
                  pb.attempts[static_cast<std::size_t>(canon)];
              at.n_anchors = src.n_anchors;
              at.anchors = src.anchors;  // geometry now; results replayed later
              at.dup_of = canon;         // block-local; rebased at splice
              if (popt.rescue_skip)
                for (int an = 0; an < at.n_anchors; ++an)
                  if (at.anchors[static_cast<std::size_t>(an)].exact_run >=
                      mopt.seeding.min_seed_len)
                    satisfied[d] = true;
              pb.attempts.push_back(std::move(at));
              continue;
            }
            ++pb.windows;
            const std::span<const seq::Code> seq =
                w.is_rev ? rm.query_rc : rm.query;
            pair::RescueScanner& scanner = scanners[w.is_rev ? 1 : 0];
            if (!scanner_built[w.is_rev ? 1 : 0]) {
              scanner.build(seq, rescue_k, popt.rescue_hash_bits);
              scanner_built[w.is_rev ? 1 : 0] = true;
            }
            at.n_anchors =
                scanner.scan(at.win, popt.max_rescue_anchors, at.anchors.data());
            if (at.n_anchors == 0) {
              seen.push_back({at.fp, static_cast<std::uint32_t>(at.win.size()),
                              w.is_rev, -1,
                              static_cast<std::int32_t>(zero_wins.size())});
              zero_wins.push_back(std::move(at.win));
              continue;
            }
            if (popt.rescue_skip)
              for (int an = 0; an < at.n_anchors; ++an)
                if (at.anchors[static_cast<std::size_t>(an)].exact_run >=
                    mopt.seeding.min_seed_len)
                  satisfied[d] = true;
            at.win_rev.assign(at.win.rbegin(), at.win.rend());
            seen.push_back({at.fp, static_cast<std::uint32_t>(at.win.size()),
                            w.is_rev,
                            static_cast<std::int32_t>(pb.attempts.size()), -1});
            pb.attempts.push_back(std::move(at));
          }
        }
      }
    }
    });
  }
  guard.rethrow();
  stage_checkpoint(cancel);

  // Splice attempts in block (= pair) order, rebasing intra-block dup_of
  // references onto the spliced list; build per-pair offsets.
  std::vector<pair::RescueAttempt>& attempts = ws.attempts;
  attempts.clear();
  for (PairBlock& pb : ws.pair_blocks) {
    const std::int32_t base = static_cast<std::int32_t>(attempts.size());
    for (auto& at : pb.attempts) {
      if (at.dup_of >= 0) at.dup_of += base;
      attempts.push_back(std::move(at));
    }
    ws.thread_counters[0].pe_rescue_windows += pb.windows;
    ws.thread_counters[0].pe_rescue_win_skipped += pb.win_skipped;
    ws.thread_counters[0].pe_rescue_win_deduped += pb.win_deduped;
    pb.attempts.clear();
  }
  ws.pair_offsets.assign(static_cast<std::size_t>(n_pairs) + 1, 0);
  for (const auto& at : attempts)
    ++ws.pair_offsets[static_cast<std::size_t>(at.pair) + 1];
  for (int p = 0; p < n_pairs; ++p)
    ws.pair_offsets[static_cast<std::size_t>(p) + 1] +=
        ws.pair_offsets[static_cast<std::size_t>(p)];

  // --- Rescue rounds: left extensions, then right extensions seeded with
  // the left scores, both through the shared executor. ---
  auto mate_state = [&](const pair::RescueAttempt& at) -> ReadState& {
    return states[static_cast<std::size_t>(2 * at.pair + at.mate)];
  };
  auto oriented = [&](const pair::RescueAttempt& at, bool reversed)
      -> std::span<const seq::Code> {
    ReadState& rm = mate_state(at);
    if (!at.is_rev) return reversed ? rm.query_rev : rm.query;
    return reversed ? rm.query_comp : rm.query_rc;
  };

  std::vector<bsw::ExtendJob>& jobs = ws.jobs;
  std::vector<bsw::KswResult>& results = ws.results;
  std::vector<RescueRef>& rrefs = ws.rrefs;
  std::uint64_t rescue_jobs = 0;

  jobs.clear();
  rrefs.clear();
  for (std::uint32_t ai = 0; ai < attempts.size(); ++ai) {
    pair::RescueAttempt& at = attempts[ai];
    if (at.dup_of >= 0) continue;  // replayed from the canonical attempt
    const auto seq_rev = oriented(at, /*reversed=*/true);
    const int l_ms = static_cast<int>(seq_rev.size());
    for (int an = 0; an < at.n_anchors; ++an) {
      pair::RescueAnchor& anchor = at.anchors[static_cast<std::size_t>(an)];
      if (anchor.qbeg == 0) continue;  // no left flank
      const int h0 = anchor.len * mopt.ksw.a;
      if (anchor.tbeg == 0) {  // empty target flank
        anchor.left = empty_flank_result(h0);
        anchor.have_left = true;
        continue;
      }
      bsw::ExtendJob job;
      job.query = seq_rev.data() + (l_ms - anchor.qbeg);
      job.qlen = anchor.qbeg;
      job.target = at.win_rev.data() +
                   (static_cast<idx_t>(at.win_rev.size()) - anchor.tbeg);
      job.tlen = anchor.tbeg;
      job.h0 = h0;
      job.w = mopt.w;
      jobs.push_back(job);
      rrefs.push_back({ai, static_cast<std::uint32_t>(an)});
    }
  }
  rescue_jobs += jobs.size();
  ws.executor.run(jobs, results, mopt.ksw, options.bsw,
                  stats ? &stats->bsw_batch : nullptr);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    pair::RescueAnchor& anchor =
        attempts[rrefs[j].attempt].anchors[rrefs[j].anchor];
    anchor.left = results[j];
    anchor.have_left = true;
  }

  jobs.clear();
  rrefs.clear();
  for (std::uint32_t ai = 0; ai < attempts.size(); ++ai) {
    pair::RescueAttempt& at = attempts[ai];
    if (at.dup_of >= 0) continue;  // replayed from the canonical attempt
    const auto seq = oriented(at, /*reversed=*/false);
    const int l_ms = static_cast<int>(seq.size());
    const int l_win = static_cast<int>(at.win.size());
    for (int an = 0; an < at.n_anchors; ++an) {
      pair::RescueAnchor& anchor = at.anchors[static_cast<std::size_t>(an)];
      if (anchor.qbeg + anchor.len == l_ms) continue;  // no right flank
      const int sc0 =
          anchor.qbeg > 0 ? anchor.left.score : anchor.len * mopt.ksw.a;
      if (anchor.tbeg + anchor.len == l_win) {  // empty target flank
        anchor.right = empty_flank_result(sc0);
        anchor.have_right = true;
        continue;
      }
      bsw::ExtendJob job;
      job.query = seq.data() + anchor.qbeg + anchor.len;
      job.qlen = l_ms - anchor.qbeg - anchor.len;
      job.target = at.win.data() + anchor.tbeg + anchor.len;
      job.tlen = l_win - anchor.tbeg - anchor.len;
      job.h0 = sc0;
      job.w = mopt.w;
      jobs.push_back(job);
      rrefs.push_back({ai, static_cast<std::uint32_t>(an)});
    }
  }
  rescue_jobs += jobs.size();
  ws.executor.run(jobs, results, mopt.ksw, options.bsw,
                  stats ? &stats->bsw_batch : nullptr);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    pair::RescueAnchor& anchor =
        attempts[rrefs[j].attempt].anchors[rrefs[j].anchor];
    anchor.right = results[j];
    anchor.have_right = true;
  }
  // Replay extension results into deduped attempts: identical window
  // content + identical oriented mate => identical jobs => identical
  // results, so copying is exact, and finalize still maps each duplicate
  // through its own (win_rb, is_rev, rid).
  for (pair::RescueAttempt& at : attempts)
    if (at.dup_of >= 0)
      at.anchors = attempts[static_cast<std::size_t>(at.dup_of)].anchors;
  ws.thread_counters[0].pe_rescue_jobs += rescue_jobs;
  // The executor reduced its worker counters onto this thread's TLS sink.
  ws.thread_counters[0] += capture.take();
  st0[util::Stage::kPair] += pair_timer.seconds();
  stage_checkpoint(cancel);

  // --- Finalize: splice rescue hits into the mates' region lists, pair,
  // and emit paired SAM — read-parallel per pair. ---
#pragma omp parallel num_threads(n_threads)
  {
    const int tid = omp_get_thread_num();
    util::TraceStreamScope trace_ctx(trace_pid);
    util::TraceSpan finalize_span("pair-finalize");
    util::CounterCapture finalize_capture;
    util::StageTimes& st = ws.thread_stages[static_cast<std::size_t>(tid)];
    util::Timer timer;
#pragma omp for schedule(dynamic, 8)
    for (int p = 0; p < n_pairs; ++p) {
      guard.run([&] {
      ReadState& r1 = states[static_cast<std::size_t>(2 * p)];
      ReadState& r2 = states[static_cast<std::size_t>(2 * p + 1)];
      ReadState* rs[2] = {&r1, &r2};
      bool gained[2] = {false, false};
      for (std::uint32_t ai = ws.pair_offsets[static_cast<std::size_t>(p)];
           ai < ws.pair_offsets[static_cast<std::size_t>(p) + 1]; ++ai) {
        const pair::RescueAttempt& at = attempts[ai];
        ReadState& rm = *rs[at.mate];
        AlnReg reg;
        if (pair::finalize_rescue(mopt, l_pac, at,
                                  static_cast<int>(rm.query.size()),
                                  static_cast<float>(rm.frac_rep), &reg)) {
          rm.regs.push_back(reg);
          gained[at.mate] = true;
          ++util::tls_counters().pe_rescue_hits;
        }
      }
      for (int e = 0; e < 2; ++e)
        if (gained[e]) {
          sort_dedup_regions(rs[e]->regs, mopt);
          mark_primary(rs[e]->regs, mopt);
        }

      const auto decision = pair::pair_and_score(mopt, popt, l_pac, pes,
                                                 r1.regs, r2.regs);
      if (decision.proper) {
        ++util::tls_counters().pe_proper_pairs;
        const bool used_rescued =
            (decision.z[0] >= 0 &&
             r1.regs[static_cast<std::size_t>(decision.z[0])].rescued) ||
            (decision.z[1] >= 0 &&
             r2.regs[static_cast<std::size_t>(decision.z[1])].rescued);
        if (used_rescued) ++util::tls_counters().pe_rescued_pairs;
      }

      ExtendContext ctx1{mopt, index, r1.query, r1.query_rev};
      ExtendContext ctx2{mopt, index, r2.query, r2.query_rev};
      const std::size_t g1 = batch_beg + static_cast<std::size_t>(2 * p);
      pair::pair_to_sam(ctx1, ctx2, reads[g1], reads[g1 + 1], r1.regs, r2.regs,
                        decision, per_read[g1], per_read[g1 + 1]);
      });
    }
    st[util::Stage::kPair] += timer.seconds();
    ws.thread_counters[static_cast<std::size_t>(tid)] += finalize_capture.take();
  }
  guard.rethrow();
}

/// Workspace configuration + batch slicing shared by align_chunk and
/// collect_regions: sizes the per-thread accounting, SMEM executors and BSW
/// blocks/executor for this chunk's options, then invokes
/// body(batch_beg, nb) per batch_size slice with ws.states grown to fit.
template <class Body>
void for_each_batch(std::span<const seq::Read> reads, const DriverOptions& options,
                    BatchWorkspace::Impl& ws, Body&& body) {
  const int n_threads = options.threads;
  ws.thread_stages.assign(static_cast<std::size_t>(n_threads), {});
  ws.thread_counters.assign(static_cast<std::size_t>(n_threads), {});
  if (ws.smem_executors.size() < static_cast<std::size_t>(n_threads))
    ws.smem_executors.resize(static_cast<std::size_t>(n_threads));
  for (auto& ex : ws.smem_executors) ex.set_inflight(options.smem_inflight);
  const int bsw_threads = std::max(1, options.effective_bsw_threads());
  if (ws.blocks.size() != static_cast<std::size_t>(bsw_threads))
    ws.blocks.resize(static_cast<std::size_t>(bsw_threads));
  ws.executor.set_threads(bsw_threads);

  for (std::size_t batch_beg = 0; batch_beg < reads.size();
       batch_beg += static_cast<std::size_t>(options.batch_size)) {
    const std::size_t batch_end =
        std::min(reads.size(), batch_beg + static_cast<std::size_t>(options.batch_size));
    const int nb = static_cast<int>(batch_end - batch_beg);
    if (ws.states.size() < static_cast<std::size_t>(nb))
      ws.states.resize(static_cast<std::size_t>(nb));
    body(batch_beg, nb);
  }
}

}  // namespace

void align_chunk(const index::Mem2Index& index, std::span<const seq::Read> reads,
                 const DriverOptions& options, const pair::InsertStats* pe_stats,
                 BatchWorkspace& workspace,
                 std::vector<std::vector<io::SamRecord>>& per_read,
                 DriverStats* stats, CancelToken* cancel) {
  stage_checkpoint(cancel);
  if (options.mode == Mode::kBaseline) {
    align_reads_baseline(index, reads, options, per_read, stats);
    return;
  }
  MEM2_REQUIRE(index.has_cp32(), "batch driver needs the CP32 index");
  MEM2_REQUIRE(index.has_flat_sa(), "batch driver needs the flat SA");
  MEM2_REQUIRE(options.mem.max_band_try <= 2,
               "batch enumeration supports at most 2 band tries (bwa's MAX_BAND_TRY)");
  if (options.paired) {
    MEM2_REQUIRE(reads.size() % 2 == 0, "paired mode needs an even read count");
    MEM2_REQUIRE(options.batch_size % 2 == 0, "paired mode needs an even batch size");
    MEM2_REQUIRE(pe_stats != nullptr, "paired mode needs insert-size stats");
  }
  per_read.assign(reads.size(), {});

  BatchWorkspace::Impl& ws = workspace.impl();
  for_each_batch(reads, options, ws, [&](std::size_t batch_beg, int nb) {
    stage_checkpoint(cancel);  // batch boundary
    batch_regions(index, reads, batch_beg, nb, options, ws,
                  /*emit_sam=*/!options.paired, &per_read, stats, cancel);
    if (options.paired)
      batch_pair_stage(index, reads, batch_beg, nb, options, *pe_stats, ws,
                       per_read, stats, cancel);
  });

  if (stats) {
    for (const auto& t : ws.thread_stages) stats->stages += t;
    for (const auto& c : ws.thread_counters) stats->counters += c;
  }
}

void collect_regions(const index::Mem2Index& index, std::span<const seq::Read> reads,
                     const DriverOptions& options, BatchWorkspace& workspace,
                     std::vector<std::vector<AlnReg>>& per_read_regs) {
  MEM2_REQUIRE(index.has_cp32(), "batch driver needs the CP32 index");
  MEM2_REQUIRE(index.has_flat_sa(), "batch driver needs the flat SA");
  per_read_regs.assign(reads.size(), {});

  DriverOptions opt = options;
  opt.mode = Mode::kBatch;
  opt.paired = false;
  BatchWorkspace::Impl& ws = workspace.impl();
  for_each_batch(reads, opt, ws, [&](std::size_t batch_beg, int nb) {
    batch_regions(index, reads, batch_beg, nb, opt, ws, /*emit_sam=*/false,
                  nullptr, nullptr);
    for (int i = 0; i < nb; ++i)
      per_read_regs[batch_beg + static_cast<std::size_t>(i)] =
          ws.states[static_cast<std::size_t>(i)].regs;
  });
}

void align_reads_batch(const index::Mem2Index& index,
                       std::span<const seq::Read> reads,
                       const DriverOptions& options,
                       std::vector<std::vector<io::SamRecord>>& per_read,
                       DriverStats* stats) {
  DriverOptions opt = options;
  opt.mode = Mode::kBatch;
  BatchWorkspace workspace;
  align_chunk(index, reads, opt, nullptr, workspace, per_read, stats);
}

}  // namespace mem2::align
