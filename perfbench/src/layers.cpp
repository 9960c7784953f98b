// The traced run: per-layer metrics from a single-threaded replay.
//
// The workload's reads are pushed through each module's public entry
// points one layer at a time — index load, FASTQ parse, SMEM
// (SmemExecutor::collect on the CP32 index), SAL (batched flat-SA gather),
// CHAIN, the extension jobs the reads issue (harvested with scalar
// results, then run through BswExecutor and again through scalar ksw),
// the extension decision logic replayed against the precomputed results,
// SAM formation — and every call is timed by a span recorded here, never
// inside the library.  One whole align_chunk call over the same reads
// bounds what the replay can attribute: align.unattributed_frac is the
// share of it no replayed layer accounts for.  No end-to-end metric comes
// from this run.
#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <istream>

#include "align/extend.h"
#include "align/region.h"
#include "align/sam_format.h"
#include "bench.h"
#include "bsw/bsw_executor.h"
#include "chain/chain.h"
#include "io/fastq.h"
#include "smem/smem_executor.h"
#include "spans.h"
#include "stats.h"
#include "util/perf_counters.h"
#include "util/sw_counters.h"

namespace perfbench {

using namespace mem2;

namespace {

/// Records every extension job the decision logic issues (copying its
/// query/target, which die with the read) and answers it with scalar ksw.
class RecordingSource final : public align::SeedExtendSource {
 public:
  RecordingSource(const bsw::KswParams& params, std::deque<std::vector<seq::Code>>& storage,
                  std::vector<bsw::ExtendJob>& jobs, std::vector<bsw::KswResult>& results)
      : params_(params), storage_(storage), jobs_(jobs), results_(results) {}

  bsw::KswResult extend(int, int, int, int, const bsw::ExtendJob& job) override {
    const auto& q = storage_.emplace_back(job.query, job.query + job.qlen);
    const auto& t = storage_.emplace_back(job.target, job.target + job.tlen);
    bsw::ExtendJob copy = job;
    copy.query = q.data();
    copy.target = t.data();
    jobs_.push_back(copy);
    results_.push_back(bsw::ksw_extend_scalar(job, params_));
    return results_.back();
  }

 private:
  bsw::KswParams params_;
  std::deque<std::vector<seq::Code>>& storage_;
  std::vector<bsw::ExtendJob>& jobs_;
  std::vector<bsw::KswResult>& results_;
};

/// Answers the decision logic's extension calls from precomputed results,
/// in issue order; flags any call that does not match the recorded job.
class ReplaySource final : public align::SeedExtendSource {
 public:
  ReplaySource(const std::vector<bsw::ExtendJob>& jobs,
               const std::vector<bsw::KswResult>& results)
      : jobs_(jobs), results_(results) {}

  bsw::KswResult extend(int, int, int, int, const bsw::ExtendJob& job) override {
    if (next_ >= results_.size()) {
      mismatch_ = true;
      return {};
    }
    const bsw::ExtendJob& rec = jobs_[next_];
    mismatch_ |= rec.qlen != job.qlen || rec.tlen != job.tlen || rec.h0 != job.h0 ||
                 rec.w != job.w;
    return results_[next_++];
  }
  bool consistent() const { return !mismatch_ && next_ == results_.size(); }

 private:
  const std::vector<bsw::ExtendJob>& jobs_;
  const std::vector<bsw::KswResult>& results_;
  std::size_t next_ = 0;
  bool mismatch_ = false;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

RunResult run_traced(const RunOptions& o) {
  const HostInfo host = host_info();
  const Workload& w = *o.workload;
  const bool paired = w.kind == Kind::kPaired;
  const bool serving = w.kind == Kind::kServe;
  RunResult r;
  SpanRecorder spans;
  const int root = spans.open(std::string("replay ") + w.name);
  const NoiseSample noise0 = noise_now();

  util::PerfCounters perf;
  const auto hw = [&](auto&& f) {
    util::PerfSample s;
    if (perf.available()) perf.start();
    f();
    if (perf.available()) s = perf.stop();
    return s;
  };

  // --- index ---
  const std::string path = index_path(o.index_dir, w.genome_len);
  std::unique_ptr<index::Mem2Index> index;
  const double load_s = spans.time("index.load_index", [&] { index = load_bench_index(path); });
  const auto file_bytes = static_cast<double>(std::filesystem::file_size(path));

  // --- reads (the timed run's reads; serve: the head of its first two
  // sessions' pools) ---
  std::vector<seq::Read> reads;
  for (int s = 0; s < (serving ? 2 : 1); ++s) {
    auto part = make_reads(w, index->ref(), o.seed, s, w.pool_reads);
    if (serving) part.resize(static_cast<std::size_t>(kServeSoloReads));
    reads.insert(reads.end(), part.begin(), part.end());
  }
  const std::string fastq = to_fastq(reads);
  const std::size_t n = reads.size();
  const auto nd = static_cast<double>(n);
  const align::MemOptions mo;

  // --- io: FASTQ parse ---
  std::size_t parsed = 0;
  const double parse_s = spans.time("io.FastqStream::next_chunk", [&] {
    TextBuf buf(fastq);
    std::istream in(&buf);
    io::FastqStream fq(in);
    std::vector<seq::Read> chunk;
    while (fq.next_chunk(chunk, kPassChunk) > 0) parsed += chunk.size();
  });
  r.gate(parsed == n, "FASTQ parse lost reads");

  // Encode (not a layer of its own; it lands in align.unattributed_frac).
  std::vector<std::vector<seq::Code>> q(n), qr(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (char c : reads[i].bases) q[i].push_back(seq::char_to_code(c));
    qr[i].assign(q[i].rbegin(), q[i].rend());
  }

  // --- smem ---
  std::vector<std::vector<smem::Smem>> smems(n);
  std::vector<smem::QueryRef> qrefs;
  for (std::size_t i = 0; i < n; ++i) qrefs.push_back({q[i], &smems[i]});
  smem::SmemExecutor smem_ex(align::DriverOptions{}.smem_inflight);
  util::SwCounters c_smem;
  util::PerfSample hw_smem;
  const double smem_s = spans.time("smem.SmemExecutor::collect", [&] {
    util::CounterCapture cap;
    hw_smem = hw([&] {
      smem_ex.collect(index->fm32(), std::span<const smem::QueryRef>(qrefs), mo.seeding,
                      util::PrefetchPolicy{true});
    });
    c_smem = cap.take();
  });
  double n_smems = 0;
  for (const auto& v : smems) n_smems += static_cast<double>(v.size());

  // --- chain: SAL, then chaining ---
  std::vector<std::vector<chain::Seed>> seeds(n);
  util::SwCounters c_sal;
  util::PerfSample hw_chain;
  const double sal_s = spans.time("chain.seeds_from_smems_batched", [&] {
    util::CounterCapture cap;
    hw_chain = hw([&] {
      for (std::size_t i = 0; i < n; ++i)
        chain::seeds_from_smems_batched(smems[i], mo.chaining, index->flat_sa(), seeds[i]);
    });
    c_sal = cap.take();
  });
  std::vector<std::vector<chain::Chain>> chains(n);
  util::PerfSample hw_chain2;
  const double chain_s = spans.time("chain.build_chains+filter_chains", [&] {
    hw_chain2 = hw([&] {
      for (std::size_t i = 0; i < n; ++i) {
        const int len = static_cast<int>(q[i].size());
        const double frac_rep =
            chain::repetitive_fraction(smems[i], len, mo.chaining.max_occ);
        chains[i] = chain::build_chains(index->ref(), index->l_pac(), seeds[i], len,
                                        mo.chaining, frac_rep);
        chain::filter_chains(chains[i], mo.chaining);
      }
    });
  });
  double n_seeds = 0, n_chains = 0;
  for (std::size_t i = 0; i < n; ++i) {
    n_seeds += static_cast<double>(seeds[i].size());
    n_chains += static_cast<double>(chains[i].size());
  }
  const double sa_lookups = c_sal.sa_lookups ? static_cast<double>(c_sal.sa_lookups) : n_seeds;

  // --- bsw: harvest the jobs the reads issue, then run them ---
  std::deque<std::vector<seq::Code>> storage;
  std::vector<bsw::ExtendJob> jobs;
  std::vector<bsw::KswResult> scalar_ref;
  spans.time("bsw.harvest", [&] {
    for (std::size_t i = 0; i < n; ++i) {
      const align::ExtendContext ctx{mo, *index, q[i], qr[i]};
      RecordingSource src(mo.ksw, storage, jobs, scalar_ref);
      std::vector<align::AlnReg> regs;
      align::process_chains(ctx, chains[i], src, regs);
    }
  });
  bsw::BswExecutor bsw_ex(1);
  std::vector<bsw::KswResult> simd;
  bsw::BswBatchStats bstats;
  util::SwCounters c_bsw;
  util::PerfSample hw_bsw;
  const double bsw_s = spans.time("bsw.BswExecutor::run", [&] {
    util::CounterCapture cap;
    hw_bsw = hw([&] { bsw_ex.run(jobs, simd, mo.ksw, bsw::BswBatchOptions{}, &bstats); });
    c_bsw = cap.take();
  });
  r.gate(simd == scalar_ref, "BswExecutor results differ from scalar ksw");
  std::vector<bsw::KswResult> scalar(jobs.size());
  const double scalar_s = spans.time("bsw.ksw_extend_scalar", [&] {
    for (std::size_t k = 0; k < jobs.size(); ++k)
      scalar[k] = bsw::ksw_extend_scalar(jobs[k], mo.ksw);
  });

  // --- align: decision-logic replay, region post-processing, SAM form ---
  std::vector<std::vector<align::AlnReg>> regs(n);
  ReplaySource replay(jobs, simd);
  const double extend_s = spans.time("align.process_chains", [&] {
    for (std::size_t i = 0; i < n; ++i) {
      const align::ExtendContext ctx{mo, *index, q[i], qr[i]};
      align::process_chains(ctx, chains[i], replay, regs[i]);
    }
  });
  r.gate(replay.consistent(), "extension replay diverged from the harvested jobs");
  const double regions_s = spans.time("align.sort_dedup_regions+mark_primary", [&] {
    for (auto& rg : regs) {
      align::sort_dedup_regions(rg, mo);
      align::mark_primary(rg, mo);
    }
  });
  std::vector<io::SamRecord> replay_sam;
  const double sam_s = spans.time("align.regions_to_sam", [&] {
    for (std::size_t i = 0; i < n; ++i) {
      const align::ExtendContext ctx{mo, *index, q[i], qr[i]};
      auto recs = align::regions_to_sam(ctx, reads[i], regs[i]);
      replay_sam.insert(replay_sam.end(), recs.begin(), recs.end());
    }
  });

  // --- the nproc pipeline (worker utilization; PE: the insert-size prior) ---
  double worker_util = 0;
  pair::InsertStats pe_stats;
  ServeOut serve_out;
  if (serving) {
    serve::ServeOptions so;
    so.workers = host.nproc;
    so.max_streams = host.nproc;
    serve::AlignService service(*index, so);
    std::vector<std::string> texts;
    for (int s = 0; s < host.nproc; ++s)
      texts.push_back(to_fastq(make_reads(w, index->ref(), o.seed, s, w.pool_reads)));
    spans.time("serve.open_loop", [&] {
      serve_out = run_open_loop(&service, w, texts, kServeReadsPerSec, 0.3 * o.seconds,
                                host.nproc);
    });
    worker_util = serve_out.worker_util;
  } else {
    const align::Aligner an(*index, pipeline_options(w, host.nproc));
    SegmentOut p;
    spans.time("align.Stream(nproc)",
               [&] { p = run_segment(an, fastq, kPassChunk, 0, nullptr); });
    r.gate(p.ok, "nproc pass failed: " + p.error);
    worker_util = ratio(p.noise.cpu_s, p.seconds * host.nproc);
    pe_stats = p.pair_stats;
  }

  // --- one whole align_chunk call over the same reads, 1 thread ---
  align::DriverOptions d1 = pipeline_options(w, 1);
  if (serving) d1.batch_size = kServeBatch;
  align::BatchWorkspace ws;
  std::vector<std::vector<io::SamRecord>> per_read;
  align::DriverStats dstats;
  const double chunk_s = spans.time("align.align_chunk", [&] {
    align::align_chunk(*index, reads, d1, paired ? &pe_stats : nullptr, ws, per_read, &dstats);
  });
  double collect_s = 0, pair_s = 0;
  if (paired) {
    align::BatchWorkspace ws2;
    std::vector<std::vector<align::AlnReg>> cregs;
    collect_s = spans.time("align.collect_regions",
                           [&] { align::collect_regions(*index, reads, d1, ws2, cregs); });
    pair_s = chunk_s - collect_s;
  } else {
    std::size_t k = 0;
    bool same = true;
    for (const auto& recs : per_read)
      for (const auto& rec : recs)
        same = same && k < replay_sam.size() && replay_sam[k++].to_line() == rec.to_line();
    r.gate(same && k == replay_sam.size(), "replayed layers' SAM differs from align_chunk");
  }

  // --- io: SAM text of the real output ---
  double sam_bytes = 0, n_records = 0;
  const double sam_text_s = spans.time("io.SamRecord::to_line", [&] {
    for (const auto& recs : per_read)
      for (const auto& rec : recs) {
        sam_bytes += static_cast<double>(rec.to_line().size() + 1);
        ++n_records;
      }
  });

  const NoiseSample noise = noise_now() - noise0;
  spans.close(root);
  if (!o.trace_out.empty()) {
    std::ofstream out(o.trace_out);
    spans.write_chrome_json(out);
  }

  const double attributed = smem_s + sal_s + chain_s + bsw_s + extend_s + regions_s +
                            (paired ? pair_s : sam_s);
  const double mib = 1024.0 * 1024.0;
  const auto& cnt = dstats.counters;
  const double pairs = paired ? nd / 2 : 0;
  const double windows = static_cast<double>(cnt.pe_rescue_windows);
  const double skipped = static_cast<double>(cnt.pe_rescue_win_skipped);
  const double rjobs = static_cast<double>(cnt.pe_rescue_jobs);
  const double loads = static_cast<double>(c_smem.occ_bucket_loads);
  const double njobs = static_cast<double>(jobs.size());

  Report& m = r.metrics;
  m.add("index.load_s", load_s, "s");
  m.add("index.load_gib_per_s", ratio(file_bytes / (mib * 1024), load_s), "GiB/s");
  m.add("index.resident_mib", static_cast<double>(index->memory_bytes()) / mib, "MiB");
  m.add("io.fastq_parse_s", parse_s, "s");
  m.add("io.fastq_mib_per_s", ratio(static_cast<double>(fastq.size()) / mib, parse_s), "MiB/s");
  m.add("io.sam_text_s", sam_text_s, "s");
  m.add("io.sam_ns_per_record", ratio(1e9 * sam_text_s, n_records), "ns");
  m.add("io.sam_mib", sam_bytes / mib, "MiB");
  m.add("smem.s", smem_s, "s");
  m.add("smem.us_per_read", ratio(1e6 * smem_s, nd), "us");
  m.add("smem.bucket_loads_per_read", ratio(loads, nd), "count");
  m.add("smem.ns_per_bucket_load", ratio(1e9 * smem_s, loads), "ns");
  m.add("smem.prefetch_per_load", ratio(static_cast<double>(c_smem.prefetches), loads), "ratio");
  m.add("smem.smems_per_read", ratio(n_smems, nd), "count");
  m.add("chain.sal_s", sal_s, "s");
  m.add("chain.sa_lookups_per_read", ratio(sa_lookups, nd), "count");
  m.add("chain.ns_per_sa_lookup", ratio(1e9 * sal_s, sa_lookups), "ns");
  m.add("chain.chain_s", chain_s, "s");
  m.add("chain.seeds_per_read", ratio(n_seeds, nd), "count");
  m.add("chain.chains_per_read", ratio(n_chains, nd), "count");
  m.add("bsw.s", bsw_s, "s");
  m.add("bsw.jobs_per_read", ratio(njobs, nd), "count");
  m.add("bsw.gcups", ratio(static_cast<double>(c_bsw.bsw_cells_useful) / 1e9, bsw_s), "GCUPS");
  m.add("bsw.cell_efficiency",
        ratio(static_cast<double>(c_bsw.bsw_cells_useful),
              static_cast<double>(c_bsw.bsw_cells_total)),
        "fraction");
  m.add("bsw.jobs_8bit_frac", ratio(static_cast<double>(bstats.jobs_8bit), njobs), "fraction");
  m.add("bsw.aborted_frac",
        ratio(static_cast<double>(c_bsw.bsw_aborted_pairs), static_cast<double>(c_bsw.bsw_pairs)),
        "fraction");
  m.add("bsw.scalar_s", scalar_s, "s");
  m.add("bsw.simd_speedup", ratio(scalar_s, bsw_s), "x");
  m.add("align.extend_s", extend_s, "s");
  m.add("align.samform_s", regions_s + sam_s, "s");
  m.add("align.chunk_s", chunk_s, "s");
  m.add("align.unattributed_frac", 1.0 - ratio(attributed, chunk_s), "fraction");
  m.add("align.worker_util", worker_util, "fraction");
  m.add("pair.s", pair_s, "s");
  m.add("pair.rescue_windows_per_pair", ratio(windows, pairs), "count");
  m.add("pair.rescue_skip_frac", ratio(skipped, windows + skipped), "fraction");
  m.add("pair.rescue_jobs_per_pair", ratio(rjobs, pairs), "count");
  m.add("pair.rescue_yield", ratio(static_cast<double>(cnt.pe_rescue_hits), rjobs), "fraction");
  m.add("pair.proper_frac", ratio(static_cast<double>(cnt.pe_proper_pairs), pairs), "fraction");
  const auto& so = serve_out;
  m.add("serve.open_ms", median(so.open_ms), "ms");
  m.add("serve.submit_block_ms_p99", percentile(so.submit_block_ms, 99), "ms");
  m.add("serve.in_service_ms_p50", percentile(so.in_service_ms, 50), "ms");
  m.add("serve.in_service_ms_p99", percentile(so.in_service_ms, 99), "ms");
  m.add("serve.generator_lag_ms_p99", percentile(so.lag_ms, 99), "ms");
  m.add("serve.fairness_spread", so.fairness_spread, "ratio");
  m.add("run.cpu_s", noise.cpu_s, "s");
  m.add("run.invol_csw", noise.invol_csw, "count");
  m.add("run.steal_ticks", noise.steal_ticks, "count");

  Report& rec = r.record;
  rec.add("replay_reads", nd, "reads");
  rec.add("bsw_jobs", njobs, "count");
  if (perf.available()) {
    rec.add("smem.llc_misses_per_read", ratio(static_cast<double>(hw_smem.cache_misses), nd),
            "count");
    rec.add("chain.llc_misses_per_read",
            ratio(static_cast<double>(hw_chain.cache_misses + hw_chain2.cache_misses), nd),
            "count");
    rec.add("bsw.ipc", hw_bsw.ipc(), "ratio");
  }
  r.attempted = 1;
  r.failed = r.correct ? 0 : 1;
  return r;
}

}  // namespace perfbench
