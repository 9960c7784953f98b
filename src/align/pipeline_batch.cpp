// Batch driver: the paper's reorganized workflow (Fig. 2).
//
// Reads are processed in batches; each stage runs across the whole batch
// before the next stage starts.  A batch runs whole on the calling thread —
// the session pool (session.h) supplies the parallelism by running batches
// concurrently, as bwa-mem2 runs one batch per thread.  SMEM uses the CP32
// index with software prefetching; SAL is a flat-array load.  Every BSW
// dispatch is a pooled round (pooled_round below): jobs from *all* reads of
// the batch are enumerated in item order, executed once by the BswExecutor
// and scattered back.  Seed extension runs one round per (side, band try) —
// left then right, each try after the first enumerating the previous try's
// jobs (the band-doubling retries of mem_chain2aln).  Because which seeds
// deserve extension only becomes known when earlier seeds' regions exist,
// the batch driver extends every seed and lets process_chains() replay the
// original decision logic against the precomputed results — the paper's
// "extend all the seeds of a read, then post process" strategy (§5.3.2),
// which buys SIMD parallelism for ~14% extra extensions.
//
// Paired mode adds a PAIR stage after the single-end regions exist: mate
// rescue harvests banded-SW jobs against the windows implied by each
// mapped mate (pair/mate_rescue.h) and runs them as two more pooled rounds
// over the rescue attempts (left anchors, then right anchors seeded with
// the left scores).  Pair scoring and the paired SAM emission
// (pair/pairing.h) then run per pair.
//
// Cross-batch buffers live in containers owned by BatchWorkspace whose
// capacity persists, plus one batch Arena for the per-read code buffers,
// the chain reference windows (one block per read; BSW results sit in one
// flat per-read table) and, in paired mode, the rescue windows that have
// anchors.  Every reference window, chain or rescue, is unpacked with its
// reversal in one pass (Mem2Index::fetch).  After the first batch
// the steady state performs no system allocations for them (§3.2).  Still
// allocating per batch: the chain lists themselves (one seed vector per
// chain).  The workspace is caller-owned so the streaming session can keep
// one per pool worker across many chunks.
#include <algorithm>

#include "align/cancel.h"
#include "align/driver.h"
#include "align/sam_format.h"
#include "bsw/bsw_executor.h"
#include "chain/chain.h"
#include "pair/mate_rescue.h"
#include "pair/pairing.h"
#include "smem/smem_executor.h"
#include "util/arena.h"
#include "util/fault_injector.h"
#include "util/trace.h"

namespace mem2::align {

namespace {

struct SeedJobResults {
  bsw::KswResult res[2][kMaxBandTry];  // [side][band_try]
  bool have[2][kMaxBandTry] = {};
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
  std::vector<ChainRef> crefs;          // views into one batch-arena block
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
    seed_off.clear();
    table.clear();
    regs.clear();
    used = 0;
  }
};

/// (read, chain, seed, side, band try) a seed-extension job scatters to.
struct SeedRef {
  std::uint32_t read;
  std::uint32_t chain;
  std::uint32_t seed;
  std::uint8_t side;
  std::uint8_t bt;
};

/// (attempt, anchor) a rescue job scatters to.
struct RescueRef {
  std::uint32_t attempt;
  std::uint32_t anchor;
};

/// The buffers of one kind of pooled round (Ref names where a result goes):
/// the job pool, its refs, and the previous round's refs a retry round
/// enumerates.  Capacity persists across rounds and batches (§3.2).
template <class Ref>
struct JobPool {
  std::vector<bsw::ExtendJob> jobs;
  std::vector<Ref> refs, prev_refs;
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

/// The left extension's final score, which seeds the right flank (bwa's
/// sc0): the last band try the left rounds resolved.  Try 0 of a seed with
/// a left flank always resolves, by running or by the empty-flank rule.
int left_final_score(const SeedJobResults& e, const chain::Seed& s, int a) {
  if (s.qbeg == 0) return s.len * a;  // no left flank
  int bt = kMaxBandTry - 1;
  while (bt > 0 && !e.have[0][bt]) --bt;
  return e.res[0][bt].score;
}

}  // namespace

struct BatchWorkspace::Impl {
  std::vector<ReadState> states;
  util::Arena arena;
  std::vector<smem::QueryRef> queries;  // the whole batch, one SMEM collect
  smem::SmemExecutor smem_executor;
  JobPool<SeedRef> seed_pool;
  std::vector<bsw::KswResult> results;
  bsw::BswExecutor executor;
  // Paired mode: rescue attempts in pair order, the staging slot each
  // rescue window is fetched into (with its reversal) and scanned in, the
  // rescued mate's sorted region starts (skip-test scratch) and the rescue
  // rounds' buffers.
  std::vector<pair::RescueAttempt> attempts;
  std::vector<seq::Code> rescue_staging;
  std::vector<idx_t> mate_rb;
  JobPool<RescueRef> rescue_pool;
};

BatchWorkspace::BatchWorkspace() : impl_(std::make_unique<Impl>()) {}
BatchWorkspace::~BatchWorkspace() = default;
BatchWorkspace::BatchWorkspace(BatchWorkspace&&) noexcept = default;
BatchWorkspace& BatchWorkspace::operator=(BatchWorkspace&&) noexcept = default;

namespace {

/// Stage-boundary cancellation hook: heartbeat + cooperative abort.
inline void stage_checkpoint(CancelToken* cancel) {
  if (cancel) cancel->checkpoint();
}

/// What every pooled round shares besides its pool and callbacks.
struct RoundEnv {
  BatchWorkspace::Impl& ws;
  const DriverOptions& options;
  DriverStats* stats;
  CancelToken* cancel;
};

/// One pooled BSW round (§5.3).  enumerate(k, emit) runs for every item k
/// in [0, n_items) in order and calls emit(job, ref) per job, so the pool
/// keeps item order.  The BswExecutor runs the pool once and
/// scatter(ref, result) stores each result.  A job the empty-flank rule
/// resolves never enters the pool: emit scatters its result on the spot.
/// A cancel checkpoint follows.  Returns the number of jobs run.
template <class Ref, class Enumerate, class Scatter>
std::size_t pooled_round(const RoundEnv& env, JobPool<Ref>& pool, std::size_t n_items,
                         Enumerate&& enumerate, Scatter&& scatter) {
  util::TraceSpan round_span("bsw-round");
  pool.jobs.clear();
  pool.refs.clear();
  const auto emit = [&](const bsw::ExtendJob& job, const Ref& ref) {
    if (const auto r = empty_flank_result(job)) {
      scatter(ref, *r);
      return;
    }
    pool.jobs.push_back(job);
    pool.refs.push_back(ref);
  };
  for (std::size_t k = 0; k < n_items; ++k) enumerate(k, emit);
  env.ws.executor.run(pool.jobs, env.ws.results, env.options.mem.ksw,
                      env.options.bsw, env.stats ? &env.stats->bsw_batch : nullptr);
  for (std::size_t j = 0; j < pool.jobs.size(); ++j)
    scatter(pool.refs[j], env.ws.results[j]);
  stage_checkpoint(env.cancel);
  return pool.jobs.size();
}

/// The single-end stages over one batch [batch_beg, batch_beg + nb):
/// encode, SMEM, SAL, CHAIN, the pooled seed-extension rounds, and the replayed
/// decision logic, leaving each read's post-processed region list in
/// states[i].regs.  When emit_sam is set the single-end SAM records are
/// formatted in the same pass (the non-paired driver path).
void batch_regions(const index::Mem2Index& index, std::span<const seq::Read> reads,
                   std::size_t batch_beg, int nb, const DriverOptions& options,
                   BatchWorkspace::Impl& ws, bool emit_sam,
                   std::vector<std::vector<io::SamRecord>>* per_read,
                   DriverStats* stats, CancelToken* cancel = nullptr) {
  const util::PrefetchPolicy prefetch{true};
  std::vector<ReadState>& states = ws.states;
  util::Arena& arena = ws.arena;
  arena.reset();

  // Encode queries into arena memory (contiguous, reused across batches).
  // query_rev is deferred to the BSW pre-processing stage — reads whose
  // chains all filter out never pay for the reversal.  Paired mode
  // additionally reserves the reverse-complement and complement buffers the
  // rescue jobs view; they are filled lazily in the rescue harvest.
  {
    util::TraceSpan encode_span("encode");  // part of the chunk's MISC
    for (int i = 0; i < nb; ++i) {
      ReadState& rs = states[static_cast<std::size_t>(i)];
      rs.clear();
      const std::string& bases = reads[batch_beg + static_cast<std::size_t>(i)].bases;
      const std::size_t len = bases.size();
      rs.query = {arena.allocate_array<seq::Code>(len), len};
      rs.query_rev = {arena.allocate_array<seq::Code>(len), len};
      if (options.paired) {
        rs.query_rc = {arena.allocate_array<seq::Code>(len), len};
        rs.query_comp = {arena.allocate_array<seq::Code>(len), len};
      }
      for (std::size_t j = 0; j < len; ++j) rs.query[j] = seq::char_to_code(bases[j]);
    }
  }
  stage_checkpoint(cancel);

  // --- SMEM stage: one SmemExecutor walks the whole batch, smem_inflight
  // reads in lockstep, so one read's Occ misses overlap the other in-flight
  // reads' work. ---
  {
    util::StageSpan smem_span(util::Stage::kSmem);
    ws.queries.clear();
    for (int i = 0; i < nb; ++i) {
      ReadState& rs = states[static_cast<std::size_t>(i)];
      ws.queries.push_back(smem::QueryRef{rs.query, &rs.smems});
    }
    ws.smem_executor.collect(index.fm32(), std::span<const smem::QueryRef>(ws.queries),
                             options.mem.seeding, prefetch);
  }

  // --- SAL stage: batched gather, SA lines prefetched in waves ---
  {
    util::StageSpan sal_span(util::Stage::kSal);
    for (int i = 0; i < nb; ++i) {
      ReadState& rs = states[static_cast<std::size_t>(i)];
      chain::seeds_from_smems_batched(rs.smems, options.mem.chaining,
                                      index.flat_sa(), rs.seeds);
    }
  }

  // --- CHAIN stage ---
  {
    util::StageSpan chain_span(util::Stage::kChain);
    util::SwCounters& cnt = util::tls_counters();
    for (int i = 0; i < nb; ++i) {
      ReadState& rs = states[static_cast<std::size_t>(i)];
      rs.frac_rep = chain::repetitive_fraction(
          rs.smems, static_cast<int>(rs.query.size()), options.mem.chaining.max_occ);
      rs.chains = chain::build_chains(index.ref(), index.l_pac(), rs.seeds,
                                      static_cast<int>(rs.query.size()),
                                      options.mem.chaining, rs.frac_rep);
      cnt.chains_built += rs.chains.size();
      chain::filter_chains(rs.chains, options.mem.chaining);
      cnt.chains_kept += rs.chains.size();
    }
  }

  // --- BSW pre-processing, one pass per read: the reversed query, the
  // chain window bounds and table offsets, then one batch-arena block
  // (a bump allocation) that the window fetches fill. ---
  {
    util::StageSpan pre_span(util::Stage::kBswPre);
    for (int i = 0; i < nb; ++i) {
      ReadState& rs = states[static_cast<std::size_t>(i)];
      if (rs.chains.empty()) continue;  // query_rev never needed
      // Deferred from encoding: the reversed query's first reader is job
      // construction below, so only reads that reach extension pay for it.
      for (std::size_t j = 0; j < rs.query.size(); ++j)
        rs.query_rev[rs.query.size() - 1 - j] = rs.query[j];
      ExtendContext ctx{options.mem, index, rs.query, rs.query_rev};
      const std::size_t n_chains = rs.chains.size();
      rs.crefs.resize(n_chains);
      rs.seed_off.resize(n_chains);
      std::uint32_t n_seeds = 0;
      std::size_t window_codes = 0;
      for (std::size_t ci = 0; ci < n_chains; ++ci) {
        rs.crefs[ci] = chain_window(ctx, rs.chains[ci]);
        window_codes += 2 * rs.crefs[ci].size();
        rs.seed_off[ci] = n_seeds;
        n_seeds += static_cast<std::uint32_t>(rs.chains[ci].seeds.size());
      }
      rs.table.assign(n_seeds, SeedJobResults{});
      seq::Code* buf = arena.allocate_array<seq::Code>(window_codes);
      for (ChainRef& cref : rs.crefs) {
        fetch_chain_window(index, cref, buf);
        buf += 2 * cref.size();
      }
    }
  }
  stage_checkpoint(cancel);

  // --- BSW stage: one pooled round per (side, band try), left side first
  // because the right flank starts from the left's final score. ---
  {
    util::StageSpan bsw_span(util::Stage::kBsw);
    const RoundEnv env{ws, options, stats, cancel};
    JobPool<SeedRef>& pool = ws.seed_pool;
    const int w = options.mem.w;
    const int a = options.mem.ksw.a;
    const auto side_job = [&](ReadState& rs, std::uint32_t ci, std::uint32_t si,
                              int side, int bt) {
      ExtendContext ctx{options.mem, index, rs.query, rs.query_rev};
      const chain::Seed& s = rs.chains[ci].seeds[si];
      if (side == 0) return make_left_job(ctx, rs.crefs[ci], s, w << bt);
      return make_right_job(ctx, rs.crefs[ci], s, w << bt,
                            left_final_score(rs.entry(ci, si), s, a));
    };
    const auto scatter = [&](const SeedRef& ref, const bsw::KswResult& r) {
      SeedJobResults& e = states[ref.read].entry(ref.chain, ref.seed);
      e.res[ref.side][ref.bt] = r;
      e.have[ref.side][ref.bt] = true;
    };
    std::size_t computed = 0;
    for (std::uint8_t side = 0; side < 2; ++side) {
      // Try 0: every seed with a flank on this side.
      computed += pooled_round(env, pool, static_cast<std::size_t>(nb),
                               [&](std::size_t i, const auto& emit) {
        ReadState& rs = states[i];
        const int l_query = static_cast<int>(rs.query.size());
        for (std::uint32_t ci = 0; ci < rs.chains.size(); ++ci)
          for (std::uint32_t si = 0; si < rs.chains[ci].seeds.size(); ++si) {
            const chain::Seed& s = rs.chains[ci].seeds[si];
            if (side == 0 ? s.qbeg == 0 : s.qbeg + s.len == l_query) continue;
            emit(side_job(rs, ci, si, side, 0),
                 SeedRef{static_cast<std::uint32_t>(i), ci, si, side, 0});
          }
      }, scatter);
      // Band-doubling retries: try bt runs where try bt-1 changed the score
      // and its best cell wandered too far from the diagonal.
      for (std::uint8_t bt = 1; bt < kMaxBandTry; ++bt) {
        pool.prev_refs.swap(pool.refs);
        computed += pooled_round(env, pool, pool.prev_refs.size(),
                                 [&](std::size_t k, const auto& emit) {
          const SeedRef& ref = pool.prev_refs[k];
          ReadState& rs = states[ref.read];
          const SeedJobResults& e = rs.entry(ref.chain, ref.seed);
          const chain::Seed& s = rs.chains[ref.chain].seeds[ref.seed];
          // The score before try bt-1 (process_chains's `prev`).
          const int prev = bt >= 2     ? e.res[side][bt - 2].score
                           : side == 0 ? -1
                                       : left_final_score(e, s, a);
          const bsw::KswResult& r = e.res[side][bt - 1];
          if (!band_retry_needed(r.score, prev, r.max_off, w << (bt - 1))) return;
          emit(side_job(rs, ref.chain, ref.seed, side, bt),
               SeedRef{ref.read, ref.chain, ref.seed, side, bt});
        }, scatter);
      }
    }
    if (stats) stats->extensions_computed += computed;
  }

  // --- Replay the decision logic into per-read region lists (BSW-PRE),
  // then post-process the regions and (single-end) format SAM ---
  {
    util::StageSpan replay_span(util::Stage::kBswPre);
    for (int i = 0; i < nb; ++i) {
      if (util::fault_point("align.batch"))
        throw invariant_error("injected fault: align.batch");
      ReadState& rs = states[static_cast<std::size_t>(i)];
      ExtendContext ctx{options.mem, index, rs.query, rs.query_rev};
      TableSource source(rs);
      rs.regs.clear();
      process_chains(ctx, rs.chains, source, rs.regs);
    }
  }
  {
    util::StageSpan sam_span(util::Stage::kSamForm);
    for (int i = 0; i < nb; ++i) {
      ReadState& rs = states[static_cast<std::size_t>(i)];
      sort_dedup_regions(rs.regs, options.mem);
      mark_primary(rs.regs, options.mem);
      if (!emit_sam) continue;
      ExtendContext ctx{options.mem, index, rs.query, rs.query_rev};
      (*per_read)[batch_beg + static_cast<std::size_t>(i)] =
          regions_to_sam(ctx, reads[batch_beg + static_cast<std::size_t>(i)], rs.regs);
    }
  }
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
  const int n_pairs = nb / 2;
  std::vector<ReadState>& states = ws.states;
  std::vector<pair::RescueAttempt>& attempts = ws.attempts;
  util::StageSpan pair_span(util::Stage::kPair);

  // --- Rescue harvest, in pair order.  Per (pair, mate), the mate's region
  // starts are sorted once, so each anchor region's already-satisfied
  // orientation classes are one binary search each (pair::satisfied_dirs).
  // Windows are visited in a fixed canonical order (anchor region rank,
  // then orientation class) and run through two layers, all of whose state
  // is local to the pair — so the harvest stays invariant across chunkings
  // and batch sizes:
  //   1. skip (popt.rescue_skip): once a window's anchor carries an exact
  //      match run >= min_seed_len, an accepted rescue for this (mate,
  //      orientation) is guaranteed, and later windows of the same class
  //      are skipped before the reference fetch (bwa mem_matesw's
  //      sequential stop-when-satisfied, made order-canonical);
  //   2. scan: the window is fetched with its reversal in one pass into the
  //      workspace's staging slot and scanned by the filtered 2-bit
  //      RescueScanner, built once per mate orientation.  Only a window
  //      with anchors is copied into the batch arena, for its attempt. ---
  attempts.clear();
  {
    util::TraceSpan harvest_span("pair-harvest");
    std::vector<seq::Code>& staging = ws.rescue_staging;
    const int rescue_k = popt.rescue_seed_len;
    for (int p = 0; p < n_pairs; ++p) {
      for (int e = 0; e < 2; ++e) {
        ReadState& ra = states[static_cast<std::size_t>(2 * p + e)];
        ReadState& rm = states[static_cast<std::size_t>(2 * p + (e ^ 1))];
        if (ra.regs.empty()) continue;
        const int l_ms = static_cast<int>(rm.query.size());
        pair::RescueScanner scanners[2];  // [is_rev], built on first window
        bool scanner_built[2] = {false, false};
        bool satisfied[4] = {false, false, false, false};
        ws.mate_rb.clear();
        for (const AlnReg& m : rm.regs) ws.mate_rb.push_back(m.rb);
        std::sort(ws.mate_rb.begin(), ws.mate_rb.end());
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
          pair::satisfied_dirs(l_pac, a.rb, ws.mate_rb, pes, skip);
          if (skip[0] && skip[1] && skip[2] && skip[3]) continue;
          // Fill the mate's auxiliary code views on first use.
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
              ++util::tls_counters().pe_rescue_win_skipped;
              continue;
            }
            pair::RescueAttempt at;
            at.pair = static_cast<std::uint32_t>(p);
            at.mate = static_cast<std::uint8_t>(e ^ 1);
            at.is_rev = w.is_rev;
            at.rid = a.rid;
            at.win_rb = w.rb;
            const std::size_t n = static_cast<std::size_t>(w.re - w.rb);
            if (staging.size() < 2 * n) staging.resize(2 * n);  // grow only
            index.fetch(w.rb, w.re, staging.data(), staging.data() + n);
            ++util::tls_counters().pe_rescue_windows;
            const int o = w.is_rev ? 1 : 0;
            if (!scanner_built[o]) {
              scanners[o].build(w.is_rev ? rm.query_rc : rm.query, rescue_k,
                                pair::kRescueHashBits);
              scanner_built[o] = true;
            }
            at.n_anchors = scanners[o].scan({staging.data(), n}, popt.max_rescue_anchors,
                                            at.anchors.data());
            if (at.n_anchors == 0) continue;
            // An anchor with an exact run >= min_seed_len guarantees an
            // accepted rescue for its (mate, orientation).
            for (int an = 0; an < at.n_anchors; ++an)
              if (at.anchors[static_cast<std::size_t>(an)].exact_run >=
                  mopt.seeding.min_seed_len)
                satisfied[d] = true;
            seq::Code* kept = ws.arena.allocate_array<seq::Code>(2 * n);
            std::copy_n(staging.data(), 2 * n, kept);
            at.win = {kept, n};
            at.win_rev = {kept + n, n};
            attempts.push_back(at);
          }
        }
      }
    }
  }
  stage_checkpoint(cancel);

  // --- Rescue rounds over the attempts: left flanks (mate prefix against
  // window prefix, both reversed), then right flanks seeded with the left
  // scores. ---
  const RoundEnv env{ws, options, stats, cancel};
  std::uint64_t rescue_jobs = 0;
  for (int side = 0; side < 2; ++side) {
    rescue_jobs += pooled_round(env, ws.rescue_pool, attempts.size(),
                                [&](std::size_t ai, const auto& emit) {
      const pair::RescueAttempt& at = attempts[ai];
      const ReadState& rm = states[static_cast<std::size_t>(2 * at.pair + at.mate)];
      const int l_ms = static_cast<int>(rm.query.size());
      const int l_win = static_cast<int>(at.win.size());
      for (int an = 0; an < at.n_anchors; ++an) {
        const pair::RescueAnchor& anchor = at.anchors[static_cast<std::size_t>(an)];
        const int qe = anchor.qbeg + anchor.len, te = anchor.tbeg + anchor.len;
        bsw::ExtendJob job;
        job.w = mopt.w;
        if (side == 0) {
          if (anchor.qbeg == 0) continue;  // no left flank
          job.query = (at.is_rev ? rm.query_comp : rm.query_rev).data() +
                      (l_ms - anchor.qbeg);
          job.qlen = anchor.qbeg;
          job.target = at.win_rev.data() + (l_win - anchor.tbeg);
          job.tlen = anchor.tbeg;
          job.h0 = anchor.len * mopt.ksw.a;
        } else {
          if (qe == l_ms) continue;  // no right flank
          job.query = (at.is_rev ? rm.query_rc : rm.query).data() + qe;
          job.qlen = l_ms - qe;
          job.target = at.win.data() + te;
          job.tlen = l_win - te;
          job.h0 = anchor.qbeg > 0 ? anchor.left.score : anchor.len * mopt.ksw.a;
        }
        emit(job, RescueRef{static_cast<std::uint32_t>(ai),
                            static_cast<std::uint32_t>(an)});
      }
    }, [&](const RescueRef& ref, const bsw::KswResult& r) {
      pair::RescueAnchor& anchor = attempts[ref.attempt].anchors[ref.anchor];
      (side == 0 ? anchor.left : anchor.right) = r;
      (side == 0 ? anchor.have_left : anchor.have_right) = true;
    });
  }
  util::tls_counters().pe_rescue_jobs += rescue_jobs;

  // --- Finalize, per pair: splice rescue hits into the mates' region
  // lists, pair, and emit paired SAM.  Attempts are in pair order, so one
  // cursor walks them. ---
  util::TraceSpan finalize_span("pair-finalize");
  std::size_t ai = 0;
  for (int p = 0; p < n_pairs; ++p) {
    ReadState& r1 = states[static_cast<std::size_t>(2 * p)];
    ReadState& r2 = states[static_cast<std::size_t>(2 * p + 1)];
    ReadState* rs[2] = {&r1, &r2};
    bool gained[2] = {false, false};
    for (; ai < attempts.size() && attempts[ai].pair == static_cast<std::uint32_t>(p);
         ++ai) {
      const pair::RescueAttempt& at = attempts[ai];
      ReadState& rm = *rs[at.mate];
      AlnReg reg;
      if (pair::finalize_rescue(mopt, l_pac, at, static_cast<int>(rm.query.size()),
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
  }
}

/// Workspace configuration + batch slicing shared by align_chunk and
/// collect_regions: sets the SMEM executor's lane count for this chunk's
/// options, then invokes body(batch_beg, nb) per batch_size slice with
/// ws.states grown to fit.
template <class Body>
void for_each_batch(std::span<const seq::Read> reads, const DriverOptions& options,
                    BatchWorkspace::Impl& ws, Body&& body) {
  ws.smem_executor.set_inflight(options.smem_inflight);
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
  // Binds stats->stages for every stage span this thread opens below; MISC
  // is the chunk time none of them claims.
  util::StageSpan chunk_span(util::Stage::kMisc, stats ? &stats->stages : nullptr);
  MEM2_REQUIRE(index.has_cp32(), "batch driver needs the CP32 index");
  MEM2_REQUIRE(index.has_flat_sa(), "batch driver needs the flat SA");
  if (options.paired) {
    MEM2_REQUIRE(reads.size() % 2 == 0, "paired mode needs an even read count");
    MEM2_REQUIRE(options.batch_size % 2 == 0, "paired mode needs an even batch size");
    MEM2_REQUIRE(pe_stats != nullptr, "paired mode needs insert-size stats");
  }
  per_read.assign(reads.size(), {});

  util::CounterCapture capture;  // this call's counts, not a TLS reset
  BatchWorkspace::Impl& ws = workspace.impl();
  for_each_batch(reads, options, ws, [&](std::size_t batch_beg, int nb) {
    stage_checkpoint(cancel);  // batch boundary
    batch_regions(index, reads, batch_beg, nb, options, ws,
                  /*emit_sam=*/!options.paired, &per_read, stats, cancel);
    if (options.paired)
      batch_pair_stage(index, reads, batch_beg, nb, options, *pe_stats, ws,
                       per_read, stats, cancel);
  });
  const util::SwCounters counted = capture.take();
  if (stats) stats->counters += counted;
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
  util::CounterCapture capture;  // discarded: calibration counts nowhere
  BatchWorkspace::Impl& ws = workspace.impl();
  for_each_batch(reads, opt, ws, [&](std::size_t batch_beg, int nb) {
    batch_regions(index, reads, batch_beg, nb, opt, ws, /*emit_sam=*/false,
                  nullptr, nullptr);
    for (int i = 0; i < nb; ++i)
      per_read_regs[batch_beg + static_cast<std::size_t>(i)] =
          ws.states[static_cast<std::size_t>(i)].regs;
  });
}

}  // namespace mem2::align
