// Table 4 reproduction plus the interleaved-executor extension: the SMEM
// kernel in its scalar configurations and with K FM-index walks in flight.
//
//   Original                    = CP128 occ table, no software prefetch
//   Optimized minus prefetching = CP32 occ table, no software prefetch
//   Optimized                   = CP32 occ table + software prefetch
//   Interleaved KN              = CP32 + prefetch, N walks in lockstep
//                                 (SmemExecutor; the paper's batched-
//                                 prefetch discipline, §4.3)
//   Interleaved K1              = the executor with one walk: its one-base
//                                 steps without any interleaving, so the
//                                 step kernel's gain over "Optimized" reads
//                                 apart from interleaving's over K1
//   Interleaved K8-noPF         = interleaving without the prefetches —
//                                 isolates rotation overhead from latency
//                                 hiding
//
// Paper reference (Table 4): instructions 17,117M -> 7,880M -> 8,160M;
// LLC misses 23.9M -> 29.7M -> 9.5M; time 4.20s -> 2.79s -> 2.10s (2x).
// The interleaved rows extend the table beyond the paper: a dependent Occ
// chain can only hide its misses behind *other reads'* work, which is what
// K>1 buys.  The counter table prints the executor's K8 counters beside the
// serial walks'; every executor row must produce the SMEM sets and the
// extension, bucket-load and SMEM counts of the serial walk with its backend
// and prefetch setting, else the bench exits 1.  Emits
// BENCH_smem_interleave.json for the perf trajectory.
//
// Flags: --smoke caps the workload for CI smoke runs (still writes JSON).
#include <cstring>

#include "bench_common.h"
#include "smem/smem_executor.h"
#include "util/perf_counters.h"

using namespace mem2;

namespace {

struct Config {
  const char* name;
  const char* key;    // JSON identifier
  bool cp32;
  bool prefetch;
  int inflight;       // 0 = scalar collect_smems loop
};

struct Run {
  double seconds = 1e30;  // min over reps
  util::SwCounters ctr;
  util::PerfSample hw;
  std::size_t smems = 0;
  std::uint64_t hash = 0;  // FNV-1a over every (qb, qe, k, s)
};

std::uint64_t smem_hash(std::uint64_t h, const std::vector<smem::Smem>& v) {
  for (const auto& m : v) {
    h = (h ^ static_cast<std::uint64_t>(m.qb * 131 + m.qe)) * 1099511628211ull;
    h = (h ^ static_cast<std::uint64_t>(m.bi.k)) * 1099511628211ull;
    h = (h ^ static_cast<std::uint64_t>(m.bi.s)) * 1099511628211ull;
  }
  return h;
}

/// The counters an executor run must share with its serial walk.  Prefetch
/// counts differ by design: a lane also requests its first forward step's
/// and its first backward row's lines before suspending.
bool smem_counters_equal(const util::SwCounters& a, const util::SwCounters& b) {
  return a.occ_bucket_loads == b.occ_bucket_loads && a.backward_exts == b.backward_exts &&
         a.forward_exts == b.forward_exts && a.smems_found == b.smems_found;
}

/// One configuration's reusable measurement state.  Reps are driven
/// round-robin across all runners (rep 0 of every config, then rep 1, ...)
/// so slow machine-level drift on a shared box biases every configuration
/// equally instead of whichever ran last.
class Runner {
 public:
  Runner(const index::Mem2Index& index,
         const std::vector<std::vector<seq::Code>>& queries, const Config& cfg)
      : index_(index), queries_(queries), cfg_(cfg),
        ex_(cfg.inflight > 0 ? cfg.inflight : 1), outs_(queries.size()),
        refs_(queries.size()) {
    for (std::size_t i = 0; i < queries.size(); ++i)
      refs_[i] = smem::QueryRef{queries[i], &outs_[i]};
  }

  void once() {
    const smem::SeedingOptions sopt;
    const util::PrefetchPolicy pf{cfg_.prefetch};
    if (cfg_.inflight > 0) {
      if (cfg_.cp32)
        ex_.collect(index_.fm32(), refs_, sopt, pf);
      else
        ex_.collect(index_.fm128(), refs_, sopt, pf);
    } else {
      for (std::size_t i = 0; i < queries_.size(); ++i) {
        if (cfg_.cp32)
          smem::collect_smems(index_.fm32(), queries_[i], sopt, outs_[i], ws_, pf);
        else
          smem::collect_smems(index_.fm128(), queries_[i], sopt, outs_[i], ws_, pf);
      }
    }
  }

  void rep() {
    util::PerfCounters perf;
    util::tls_counters().reset();
    perf.start();
    util::Timer t;
    once();
    const double seconds = t.seconds();
    const util::PerfSample hw = perf.stop();
    if (seconds < run_.seconds) {  // counters travel with the rep we report
      run_.seconds = seconds;
      run_.hw = hw;
      run_.ctr = util::tls_counters();
    }
  }

  Run finish() {
    run_.smems = 0;
    run_.hash = 0;
    for (const auto& o : outs_) {
      run_.smems += o.size();
      run_.hash = smem_hash(run_.hash, o);
    }
    return run_;
  }

 private:
  const index::Mem2Index& index_;
  const std::vector<std::vector<seq::Code>>& queries_;
  Config cfg_;
  smem::SmemWorkspace ws_;
  smem::SmemExecutor ex_;
  std::vector<std::vector<smem::Smem>> outs_;
  std::vector<smem::QueryRef> refs_;
  Run run_;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  const auto index = bench::bench_index();
  // Paper: 60,000 reads from D2; our D2 analog scaled to 60k * scale / 100.
  auto d2 = bench::bench_dataset(index, 1);
  if (smoke && d2.reads.size() > 200) d2.reads.resize(200);
  const int reps = smoke ? 1 : 5;

  std::vector<std::vector<seq::Code>> queries(d2.reads.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::string& bases = d2.reads[i].bases;
    queries[i].resize(bases.size());
    for (std::size_t j = 0; j < bases.size(); ++j)
      queries[i][j] = seq::char_to_code(bases[j]);
  }

  const Config configs[] = {
      {"Original (CP128)", "cp128_scalar", false, false, 0},
      {"Opt minus s/w prefetch (CP32)", "cp32_nopf", true, false, 0},
      {"Optimized (CP32+prefetch)", "cp32_pf", true, true, 0},
      {"Interleaved K1", "cp32_pf_k1", true, true, 1},
      {"Interleaved K4", "cp32_pf_k4", true, true, 4},
      {"Interleaved K8", "cp32_pf_k8", true, true, 8},
      {"Interleaved K16", "cp32_pf_k16", true, true, 16},
      {"Interleaved K8 (no prefetch)", "cp32_nopf_k8", true, false, 8},
  };
  constexpr int kNum = static_cast<int>(std::size(configs));
  constexpr int kScalarOpt = 2;  // "Optimized" — the interleave baseline
  constexpr int kK8 = 5;         // the executor column of the counter table
  std::vector<Runner> runners;
  runners.reserve(kNum);
  for (const Config& cfg : configs) runners.emplace_back(index, queries, cfg);
  for (auto& r : runners) r.once();  // warm-up: page the tables, grow buffers
  for (int rep = 0; rep < reps; ++rep)
    for (auto& r : runners) r.rep();  // round-robin: drift hits all equally
  Run runs[kNum];
  for (int i = 0; i < kNum; ++i) runs[i] = runners[static_cast<std::size_t>(i)].finish();

  bench::print_header("Table 4: SMEM kernel, single thread (D2 analog, " +
                      std::to_string(d2.reads.size()) + " reads)");
  bench::print_row("Counter", {"Original", "Opt-noPF", "Optimized", "K8 executor"});
  auto row_u64 = [&](const char* label, auto getter) {
    bench::print_row(label, {bench::fmt_int(getter(runs[0])), bench::fmt_int(getter(runs[1])),
                             bench::fmt_int(getter(runs[2])), bench::fmt_int(getter(runs[kK8]))});
  };
  row_u64("occ bucket loads (x1e3)",
          [](const Run& r) { return r.ctr.occ_bucket_loads / 1000; });
  row_u64("backward extensions (x1e3)",
          [](const Run& r) { return r.ctr.backward_exts / 1000; });
  row_u64("forward extensions (x1e3)",
          [](const Run& r) { return r.ctr.forward_exts / 1000; });
  row_u64("software prefetches (x1e3)",
          [](const Run& r) { return r.ctr.prefetches / 1000; });
  row_u64("SMEMs found (x1e3)", [](const Run& r) { return r.ctr.smems_found / 1000; });
  if (runs[0].hw.valid) {
    row_u64("instructions (x1e6) [hw]",
            [](const Run& r) { return r.hw.instructions / 1000000; });
    row_u64("cache misses (x1e3) [hw]",
            [](const Run& r) { return r.hw.cache_misses / 1000; });
    row_u64("cycles (x1e6) [hw]", [](const Run& r) { return r.hw.cycles / 1000000; });
  } else {
    std::printf("(hardware counters unavailable in this container; "
                "software proxies above)\n");
  }
  bench::print_row("time (s)", {bench::fmt(runs[0].seconds, 4), bench::fmt(runs[1].seconds, 4),
                                bench::fmt(runs[2].seconds, 4)});
  bench::print_row("speedup vs original (paper: 1.00/1.51/2.00)",
                   {bench::fmt(1.0),
                    bench::fmt(runs[0].seconds / runs[1].seconds),
                    bench::fmt(runs[0].seconds / runs[2].seconds)});

  bench::print_header("Interleaved executor (K in-flight walks per thread)");
  bench::print_row("Config", {"time (s)", "vs Optimized", "identical", "counters"});
  // The serial walk an executor row replays: same backend and prefetch.
  auto serial_of = [&](const Config& cfg) {
    for (int j = 0; j < kNum; ++j)
      if (configs[j].inflight == 0 && configs[j].cp32 == cfg.cp32 &&
          configs[j].prefetch == cfg.prefetch)
        return j;
    return -1;
  };
  bool all_identical = true, all_counters_equal = true;
  for (int i = 0; i < kNum; ++i) {
    const bool same = runs[i].hash == runs[kScalarOpt].hash &&
                      runs[i].smems == runs[kScalarOpt].smems;
    all_identical &= same;
    std::string counters = "serial";
    if (configs[i].inflight > 0) {
      const int j = serial_of(configs[i]);
      const bool equal = j >= 0 && smem_counters_equal(runs[i].ctr, runs[j].ctr);
      all_counters_equal &= equal;
      counters = equal ? "= serial" : "DIFFER";
    }
    bench::print_row(configs[i].name,
                     {bench::fmt(runs[i].seconds, 4),
                      bench::fmt(runs[kScalarOpt].seconds / runs[i].seconds, 2) + "x",
                      same ? "yes" : "NO", counters});
  }

  if (std::FILE* f = std::fopen("BENCH_smem_interleave.json", "w")) {
    std::fprintf(f, "{\n  \"bench\": \"smem_interleave\",\n");
    std::fprintf(f, "  \"reads\": %zu,\n  \"reps\": %d,\n  \"smoke\": %s,\n",
                 d2.reads.size(), reps, smoke ? "true" : "false");
    std::fprintf(f, "  \"all_outputs_identical\": %s,\n",
                 all_identical ? "true" : "false");
    std::fprintf(f, "  \"all_counters_identical\": %s,\n",
                 all_counters_equal ? "true" : "false");
    std::fprintf(f, "  \"configs\": [\n");
    for (int i = 0; i < kNum; ++i) {
      std::fprintf(f,
                   "    {\"key\": \"%s\", \"cp32\": %s, \"prefetch\": %s, "
                   "\"inflight\": %d, \"seconds\": %.6f, "
                   "\"speedup_vs_scalar_prefetch\": %.3f}%s\n",
                   configs[i].key, configs[i].cp32 ? "true" : "false",
                   configs[i].prefetch ? "true" : "false", configs[i].inflight,
                   runs[i].seconds, runs[kScalarOpt].seconds / runs[i].seconds,
                   i + 1 < kNum ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_smem_interleave.json\n");
  }

  if (!all_identical) {
    std::printf("ERROR: SMEM sets differ across configurations!\n");
    return 1;
  }
  if (!all_counters_equal) {
    std::printf("ERROR: an executor's SMEM counters differ from its serial walk's!\n");
    return 1;
  }
  std::printf("identical SMEM sets across all %d configurations: yes\n", kNum);
  std::printf("executor counters equal to the serial walks': yes\n");
  return 0;
}
