// Figure 5 reproduction: end-to-end compute time of the baseline
// (original BWA-MEM model) vs the optimized (batch) driver on all five
// dataset analogs, single thread and all hardware threads, with the
// optimized driver's full stage table (SMEM, SAL, CHAIN, BSW-PRE, BSW, SAM,
// PAIR, MISC: DriverStats::stages, whose MISC is only the time no stage
// claims) and speedups.
// Also reports the §6.3.2 extra-seed statistics (paper: ~14% extra pairs).
//
// Paper reference (SKX): single-thread speedups 2.6x-3.5x; single-socket
// 1.7x-2.4x.  Shape to reproduce: optimized wins on every dataset; SAL
// nearly vanishes from the optimized bars; the between-kernel stages grow
// in relative share.
//
// --paired runs the paired-end suite instead: end-to-end throughput of the
// paired batch driver (insert-size calibration + pair scoring + BSW mate
// rescue) with the same stage table and the mate-rescue counter line,
// written to BENCH_pe.json.  --smoke caps the workload for CI.
//
// --trace-overhead gates the observability contract: tracing compiled in
// but DISABLED must cost < 1% of the batch-driver run (measured as sites
// hit per run x per-site disabled cost, for TraceSpan sites and for the
// StageSpan stage clock separately), and enabling tracing must leave the
// SAM byte-identical.  Writes BENCH_trace_overhead.json.
#include <algorithm>
#include <cctype>
#include <cstring>
#include <thread>
#include <vector>

#include "align/aligner.h"
#include "bench_common.h"
#include "util/trace.h"

using namespace mem2;

namespace {

constexpr int kCellW = 10;  // column width of the stage-table suites

/// `cells`, then one header per util::Stage (its name, upper-cased).
std::vector<std::string> stage_header(std::vector<std::string> cells) {
  for (int s = 0; s < static_cast<int>(util::Stage::kCount); ++s) {
    std::string name(util::stage_name(static_cast<util::Stage>(s)));
    for (char& ch : name) ch = static_cast<char>(std::toupper(ch));
    cells.push_back(std::move(name));
  }
  return cells;
}

/// `cells`, then one seconds cell per stage of `st`.
std::vector<std::string> stage_row(std::vector<std::string> cells,
                                   const util::StageTimes& st) {
  for (double sec : st.seconds) cells.push_back(bench::fmt(sec, 3));
  return cells;
}

void run_suite(const index::Mem2Index& index, int threads) {
  bench::print_header("Figure 5: end-to-end compute, " + std::to_string(threads) +
                      " thread(s)");
  bench::print_row("Dataset", stage_header({"orig (s)", "opt (s)", "speedup"}), 34,
                   kCellW);

  for (int d = 0; d < 5; ++d) {
    const auto ds = bench::bench_dataset(index, d);

    align::DriverOptions base;
    base.mode = align::Mode::kBaseline;
    base.threads = threads;
    align::DriverOptions opt;
    opt.mode = align::Mode::kBatch;
    opt.threads = threads;

    // Session API: aligners constructed (and validated) outside the timed
    // region; the timed call is open -> submit -> finish.
    const align::Aligner aligner_base(index, base);
    const align::Aligner aligner_opt(index, opt);
    align::CollectSamSink sink_base, sink_opt;
    align::DriverStats s_base, s_opt;
    util::Timer t;
    bench::require_ok(aligner_base.align(ds.reads, sink_base, &s_base));
    const double wall_base = t.seconds();
    t.restart();
    bench::require_ok(aligner_opt.align(ds.reads, sink_opt, &s_opt));
    const double wall_opt = t.seconds();
    const auto& sam_base = sink_base.records();
    const auto& sam_opt = sink_opt.records();

    // Identity check (the paper's like-for-like replacement property).
    bool identical = sam_base.size() == sam_opt.size();
    for (std::size_t i = 0; identical && i < sam_base.size(); ++i)
      identical = sam_base[i].to_line() == sam_opt[i].to_line();

    bench::print_row(
        (ds.name + std::string(identical ? "" : " [OUTPUT MISMATCH!]")).c_str(),
        stage_row({bench::fmt(wall_base, 2), bench::fmt(wall_opt, 2),
                   bench::fmt(wall_base / wall_opt, 2) + "x"},
                  s_opt.stages),
        34, kCellW);

    if (d == 1 && threads == 1) {
      std::printf("\n  [sec 6.3.2] D2 extra extensions from extend-all-then-filter: "
                  "computed=%llu used=%llu extra=%.1f%% (paper: ~13.5%%)\n\n",
                  static_cast<unsigned long long>(s_opt.extensions_computed),
                  static_cast<unsigned long long>(s_opt.extensions_used),
                  100.0 * s_opt.extra_extension_fraction());
    }
  }
}

struct PairedRun {
  int threads = 0;
  double seconds = 0;
  double pairs_per_sec = 0;
  util::StageTimes stages;
  util::SwCounters counters;
  std::size_t records = 0;
};

PairedRun run_paired_once(const index::Mem2Index& index,
                          const std::vector<seq::Read>& reads, int threads,
                          std::vector<std::string>* sam_out) {
  align::DriverOptions opt;
  opt.mode = align::Mode::kBatch;
  opt.paired = true;
  opt.threads = threads;

  const align::Aligner aligner(index, opt);
  align::CollectSamSink sink;
  util::Timer t;
  align::Stream stream = aligner.open(sink);
  bench::require_ok(stream.submit(std::span<const seq::Read>(reads)));
  bench::require_ok(stream.finish());

  PairedRun run;
  run.threads = threads;
  run.seconds = t.seconds();
  run.pairs_per_sec = static_cast<double>(reads.size() / 2) / run.seconds;
  run.stages = stream.stats().stages;
  run.counters = stream.stats().counters;
  run.records = sink.records().size();
  if (sam_out) {
    sam_out->clear();
    for (const auto& rec : sink.records()) sam_out->push_back(rec.to_line());
  }
  return run;
}

int run_paired_suite(bool smoke) {
  const auto index = bench::bench_index();
  const double scale = smoke ? 0.2 : bench::bench_scale();

  seq::PairSimConfig cfg;
  cfg.seed = 20190528;
  cfg.read_length = 101;
  cfg.num_pairs = std::max<std::int64_t>(500, static_cast<std::int64_t>(6250 * scale));
  cfg.insert_mean = 420;
  cfg.insert_std = 45;
  cfg.substitution_rate = 0.012;
  cfg.insertion_rate = 0.0005;
  cfg.deletion_rate = 0.0005;
  cfg.damage_fraction = 0.05;  // keep the rescue path measurably busy
  const auto reads = seq::simulate_pairs(index.ref(), cfg);

  bench::print_header("Paired-end: batch driver + pair scoring + mate rescue");
  bench::print_row("Threads", stage_header({"time (s)", "pairs/s"}), 34, kCellW);

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<PairedRun> runs;
  std::vector<std::string> sam1, samN;
  runs.push_back(run_paired_once(index, reads, 1, &sam1));
  if (hw > 1) runs.push_back(run_paired_once(index, reads, hw, &samN));
  const bool identical = samN.empty() || sam1 == samN;

  for (const auto& r : runs) {
    bench::print_row(
        (std::to_string(r.threads) + (identical ? "" : " [OUTPUT MISMATCH!]")).c_str(),
        stage_row({bench::fmt(r.seconds, 2), bench::fmt(r.pairs_per_sec, 0)}, r.stages),
        34, kCellW);
  }

  const auto& c = runs[0].counters;
  std::printf(
      "\n  mate rescue: rescued_pairs=%llu rescue_jobs=%llu (windows=%llu "
      "skipped=%llu hits=%llu) proper_pairs=%llu of %lld\n",
      static_cast<unsigned long long>(c.pe_rescued_pairs),
      static_cast<unsigned long long>(c.pe_rescue_jobs),
      static_cast<unsigned long long>(c.pe_rescue_windows),
      static_cast<unsigned long long>(c.pe_rescue_win_skipped),
      static_cast<unsigned long long>(c.pe_rescue_hits),
      static_cast<unsigned long long>(c.pe_proper_pairs),
      static_cast<long long>(cfg.num_pairs));

  if (std::FILE* f = std::fopen("BENCH_pe.json", "w")) {
    std::fprintf(f, "{\n  \"bench\": \"e2e_paired\",\n");
    std::fprintf(f, "  \"pairs\": %lld,\n  \"read_length\": %d,\n  \"smoke\": %s,\n",
                 static_cast<long long>(cfg.num_pairs), cfg.read_length,
                 smoke ? "true" : "false");
    std::fprintf(f, "  \"outputs_identical_across_threads\": %s,\n",
                 identical ? "true" : "false");
    std::fprintf(f,
                 "  \"rescued_pairs\": %llu,\n  \"rescue_jobs\": %llu,\n"
                 "  \"rescue_windows\": %llu,\n  \"rescue_win_skipped\": %llu,\n"
                 "  \"rescue_hits\": %llu,\n  \"proper_pairs\": %llu,\n",
                 static_cast<unsigned long long>(c.pe_rescued_pairs),
                 static_cast<unsigned long long>(c.pe_rescue_jobs),
                 static_cast<unsigned long long>(c.pe_rescue_windows),
                 static_cast<unsigned long long>(c.pe_rescue_win_skipped),
                 static_cast<unsigned long long>(c.pe_rescue_hits),
                 static_cast<unsigned long long>(c.pe_proper_pairs));
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& r = runs[i];
      std::fprintf(f,
                   "    {\"threads\": %d, \"seconds\": %.6f, \"pairs_per_sec\": "
                   "%.1f, \"pair_stage_seconds\": %.6f, \"stage_seconds\": {",
                   r.threads, r.seconds, r.pairs_per_sec, r.stages[util::Stage::kPair]);
      for (int s = 0; s < static_cast<int>(util::Stage::kCount); ++s)
        std::fprintf(f, "%s\"%s\": %.6f", s ? ", " : "",
                     util::stage_name(static_cast<util::Stage>(s)).data(),
                     r.stages.seconds[static_cast<std::size_t>(s)]);
      std::fprintf(f, "}}%s\n", i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_pe.json\n");
  }

  if (!identical) {
    std::printf("ERROR: paired SAM differs across thread counts!\n");
    return 1;
  }
  if (c.pe_rescued_pairs == 0) {
    std::printf("ERROR: mate rescue recovered no pairs!\n");
    return 1;
  }
  return 0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

int run_trace_overhead(bool smoke) {
  const auto index = bench::bench_index();
  const auto ds = bench::bench_dataset(index, 1);  // D2: short reads, busy BSW

  align::DriverOptions opt;
  opt.mode = align::Mode::kBatch;
  opt.threads = 1;
  const align::Aligner aligner(index, opt);

  const auto run_once = [&](std::vector<std::string>* sam_out) {
    align::CollectSamSink sink;
    util::Timer t;
    bench::require_ok(aligner.align(ds.reads, sink, nullptr));
    const double s = t.seconds();
    if (sam_out) {
      sam_out->clear();
      for (const auto& rec : sink.records()) sam_out->push_back(rec.to_line());
    }
    return s;
  };

  auto& tracer = util::Tracer::instance();
  tracer.disable();
  run_once(nullptr);  // warmup: page in the index, settle the allocator

  const int reps = smoke ? 3 : 5;
  std::vector<std::string> sam_off, sam_on;
  std::vector<double> off, on;
  std::uint64_t trace_sites = 0, stage_sites = 0;  // hit per run
  for (int r = 0; r < reps; ++r)
    off.push_back(run_once(r == 0 ? &sam_off : nullptr));
  for (int r = 0; r < reps; ++r) {
    tracer.enable();
    on.push_back(run_once(r == 0 ? &sam_on : nullptr));
    tracer.disable();
    trace_sites = stage_sites = 0;
    for (const auto& a : tracer.aggregate()) {
      bool is_stage = false;
      for (int s = 0; s < static_cast<int>(util::Stage::kCount); ++s)
        is_stage |= a.name == util::stage_name(static_cast<util::Stage>(s));
      (is_stage ? stage_sites : trace_sites) += a.count;
    }
  }
  const std::uint64_t spans_per_run = trace_sites + stage_sites;
  const bool identical = sam_off == sam_on;

  // Disabled-site micro-costs.  A TraceSpan is one relaxed load + branch;
  // a StageSpan on the thread that bound a stage table (as every stage
  // site of this 1-thread run is) also reads the TSC twice and books its
  // self time.  Gate the *measured* product (sites hit per run x ns per
  // disabled site, per kind) against 1% of the run — robust to machine
  // noise, unlike an A/B of two full runs whose jitter exceeds the effect
  // being measured.
  const std::size_t iters = smoke ? 5'000'000 : 20'000'000;
  util::Timer mt;
  for (std::size_t i = 0; i < iters; ++i) {
    util::TraceSpan probe("overhead-probe");
  }
  const double ns_per_trace_site = 1e9 * mt.seconds() / static_cast<double>(iters);
  util::StageTimes probe_table;
  {
    util::StageSpan root(util::Stage::kMisc, &probe_table);
    mt.restart();
    for (std::size_t i = 0; i < iters; ++i) {
      util::StageSpan probe(util::Stage::kSmem);
    }
  }
  const double ns_per_stage_site = 1e9 * mt.seconds() / static_cast<double>(iters);

  const double t_off = median(off), t_on = median(on);
  const double disabled_pct =
      100.0 *
      (static_cast<double>(trace_sites) * ns_per_trace_site +
       static_cast<double>(stage_sites) * ns_per_stage_site) /
      (t_off * 1e9);
  const double enabled_pct = 100.0 * (t_on - t_off) / t_off;

  bench::print_header("Tracing overhead: batch driver on D2, 1 thread");
  bench::print_row("Metric", {"value"});
  bench::print_row("disabled run (median s)", {bench::fmt(t_off, 3)});
  bench::print_row("enabled run (median s)", {bench::fmt(t_on, 3)});
  bench::print_row("TraceSpan sites hit per run", {bench::fmt_int(trace_sites)});
  bench::print_row("StageSpan sites hit per run", {bench::fmt_int(stage_sites)});
  bench::print_row("disabled cost per TraceSpan (ns)", {bench::fmt(ns_per_trace_site, 2)});
  bench::print_row("disabled cost per StageSpan (ns)", {bench::fmt(ns_per_stage_site, 2)});
  bench::print_row("disabled overhead (gate < 1%)",
                   {bench::fmt(disabled_pct, 4) + "%"});
  bench::print_row("enabled overhead (advisory)",
                   {bench::fmt(enabled_pct, 1) + "%"});
  bench::print_row("SAM identical on/off", {identical ? "yes" : "NO"});

  if (std::FILE* f = std::fopen("BENCH_trace_overhead.json", "w")) {
    std::fprintf(f, "{\n  \"bench\": \"trace_overhead\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(f, "  \"reads\": %zu,\n  \"reps\": %d,\n", ds.reads.size(),
                 reps);
    std::fprintf(f, "  \"disabled_seconds\": %.6f,\n  \"enabled_seconds\": %.6f,\n",
                 t_off, t_on);
    std::fprintf(f, "  \"spans_per_run\": %llu,\n",
                 static_cast<unsigned long long>(spans_per_run));
    std::fprintf(f, "  \"trace_sites_per_run\": %llu,\n  \"stage_sites_per_run\": %llu,\n",
                 static_cast<unsigned long long>(trace_sites),
                 static_cast<unsigned long long>(stage_sites));
    std::fprintf(f, "  \"disabled_ns_per_trace_site\": %.3f,\n", ns_per_trace_site);
    std::fprintf(f, "  \"disabled_ns_per_stage_site\": %.3f,\n", ns_per_stage_site);
    std::fprintf(f, "  \"disabled_overhead_pct\": %.6f,\n", disabled_pct);
    std::fprintf(f, "  \"enabled_overhead_pct\": %.3f,\n", enabled_pct);
    std::fprintf(f, "  \"sam_identical\": %s\n}\n", identical ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote BENCH_trace_overhead.json\n");
  }

  if (!identical) {
    std::printf("ERROR: SAM differs with tracing enabled!\n");
    return 1;
  }
  if (disabled_pct >= 1.0) {
    std::printf("ERROR: disabled tracing costs %.4f%% (gate < 1%%)\n",
                disabled_pct);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool paired = false, smoke = false, trace_overhead = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--paired")) paired = true;
    if (!std::strcmp(argv[i], "--smoke")) smoke = true;
    if (!std::strcmp(argv[i], "--trace-overhead")) trace_overhead = true;
  }
  if (trace_overhead) return run_trace_overhead(smoke);
  if (paired) return run_paired_suite(smoke);

  const auto index = bench::bench_index();
  run_suite(index, 1);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 1) run_suite(index, hw);
  return 0;
}
