// Rescue-scan kernel and PAIR-stage benchmark; writes BENCH_rescue.json.
//
// Micro: the reference O(window × probes) nested memcmp scan vs the
// filtered 2-bit RescueScanner on realistic mate/window sizes (101 bp mates,
// ~500 bp windows, planted repeat fragments), with the anchor sets
// cross-checked — a perf number over diverging kernels is meaningless.
//
// End-to-end: the bench_e2e --paired workload run with rescue skipping off
// and on, reporting PAIR-stage seconds and the windows
// scanned/skipped counters.  Proper-pair and rescued-pair counts
// must be identical across the two runs (the determinism-preserving claim);
// the bench exits non-zero if they drift.  --smoke caps sizes for CI.
#include <cstring>

#include "align/aligner.h"
#include "bench_common.h"
#include "pair/rescue_scan.h"
#include "util/rng.h"

using namespace mem2;

namespace {

struct MicroResult {
  int windows = 0;
  int reps = 0;
  double ref_us_per_window = 0;
  double roll_us_per_window = 0;
  std::uint64_t anchors = 0;
  bool identical = true;
};

MicroResult run_micro(bool smoke) {
  util::Xoshiro256ss rng(20260727);
  const int n_windows = smoke ? 400 : 4000;
  const int reps = smoke ? 3 : 10;
  const int l_ms = 101, l_win = 500, k = 11;

  std::vector<seq::Code> mate(static_cast<std::size_t>(l_ms));
  for (auto& c : mate) c = static_cast<seq::Code>(rng.below(4));
  std::vector<std::vector<seq::Code>> windows(
      static_cast<std::size_t>(n_windows));
  for (auto& win : windows) {
    win.resize(static_cast<std::size_t>(l_win));
    for (auto& c : win) c = static_cast<seq::Code>(rng.below(4));
    // Half the windows carry a mate fragment (the rescue-hit case); the
    // rest only match by chance (the dominant anchor-less case).
    if (rng.chance(0.5)) {
      const int frag = 20 + static_cast<int>(rng.below(60));
      const int from = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(l_ms - frag + 1)));
      const int to = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(l_win - frag + 1)));
      std::copy(mate.begin() + from, mate.begin() + from + frag,
                win.begin() + to);
    }
  }

  pair::RescueAnchor ref_anchors[pair::kMaxRescueAnchors];
  pair::RescueAnchor roll_anchors[pair::kMaxRescueAnchors];
  MicroResult r;
  r.windows = n_windows;
  r.reps = reps;

  // Correctness first: the two kernels must agree on every window.
  pair::RescueScanner scanner;
  scanner.build(mate, k, 7);
  for (const auto& win : windows) {
    const int n_ref = pair::scan_rescue_anchors(mate, win, k,
                                                pair::kMaxRescueAnchors,
                                                ref_anchors);
    const int n_roll =
        scanner.scan(win, pair::kMaxRescueAnchors, roll_anchors);
    r.anchors += static_cast<std::uint64_t>(n_ref);
    if (n_ref != n_roll) r.identical = false;
    for (int i = 0; r.identical && i < n_ref; ++i)
      r.identical = ref_anchors[i].qbeg == roll_anchors[i].qbeg &&
                    ref_anchors[i].tbeg == roll_anchors[i].tbeg &&
                    ref_anchors[i].len == roll_anchors[i].len &&
                    ref_anchors[i].exact_run == roll_anchors[i].exact_run;
  }

  volatile std::uint64_t sink = 0;
  util::Timer t;
  for (int rep = 0; rep < reps; ++rep)
    for (const auto& win : windows)
      sink = sink + static_cast<std::uint64_t>(pair::scan_rescue_anchors(
                        mate, win, k, pair::kMaxRescueAnchors, ref_anchors));
  r.ref_us_per_window = t.seconds() * 1e6 / (reps * n_windows);

  t.restart();
  for (int rep = 0; rep < reps; ++rep) {
    scanner.build(mate, k, 7);  // charge the build to the rolling side
    for (const auto& win : windows)
      sink = sink + static_cast<std::uint64_t>(
                        scanner.scan(win, pair::kMaxRescueAnchors, roll_anchors));
  }
  r.roll_us_per_window = t.seconds() * 1e6 / (reps * n_windows);
  return r;
}

struct E2eRun {
  bool rescue_skip = false;
  double seconds = 0;
  double pair_seconds = 0;
  util::SwCounters c;
};

E2eRun run_e2e(const index::Mem2Index& index,
               const std::vector<seq::Read>& reads, bool rescue_skip) {
  align::DriverOptions opt;
  opt.mode = align::Mode::kBatch;
  opt.paired = true;
  opt.pe.rescue_skip = rescue_skip;

  const align::Aligner aligner(index, opt);
  align::CollectSamSink sink;
  align::DriverStats stats;
  util::Timer t;
  bench::require_ok(aligner.align(reads, sink, &stats));
  E2eRun run;
  run.rescue_skip = rescue_skip;
  run.seconds = t.seconds();
  run.pair_seconds = stats.stages[util::Stage::kPair];
  run.c = stats.counters;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (!std::strcmp(argv[i], "--smoke")) smoke = true;

  bench::print_header("Rescue scan micro: reference nested memcmp vs filtered 2-bit scan");
  const MicroResult micro = run_micro(smoke);
  std::printf("  %d windows x %d reps, %llu anchors, outputs %s\n",
              micro.windows, micro.reps,
              static_cast<unsigned long long>(micro.anchors),
              micro.identical ? "identical" : "DIVERGED!");
  std::printf("  reference: %.3f us/window   filtered: %.3f us/window   speedup %.2fx\n",
              micro.ref_us_per_window, micro.roll_us_per_window,
              micro.ref_us_per_window / micro.roll_us_per_window);

  const auto index = bench::bench_index();
  const double scale = smoke ? 0.2 : bench::bench_scale();
  seq::PairSimConfig cfg;
  cfg.seed = 20190528;  // the bench_e2e --paired workload
  cfg.read_length = 101;
  cfg.num_pairs = std::max<std::int64_t>(500, static_cast<std::int64_t>(6250 * scale));
  cfg.insert_mean = 420;
  cfg.insert_std = 45;
  cfg.substitution_rate = 0.012;
  cfg.insertion_rate = 0.0005;
  cfg.deletion_rate = 0.0005;
  cfg.damage_fraction = 0.05;
  const auto reads = seq::simulate_pairs(index.ref(), cfg);

  bench::print_header("PAIR stage: rescue skipping off vs on (single thread)");
  bench::print_row("rescue_skip", {"total (s)", "PAIR (s)", "scanned", "skipped",
                                   "jobs", "proper", "rescued"});
  std::vector<E2eRun> runs;
  for (const bool skip : {false, true}) {
    runs.push_back(run_e2e(index, reads, skip));
    const E2eRun& r = runs.back();
    bench::print_row(skip ? "on" : "off",
                     {bench::fmt(r.seconds, 2), bench::fmt(r.pair_seconds, 2),
                      std::to_string(r.c.pe_rescue_windows),
                      std::to_string(r.c.pe_rescue_win_skipped),
                      std::to_string(r.c.pe_rescue_jobs),
                      std::to_string(r.c.pe_proper_pairs),
                      std::to_string(r.c.pe_rescued_pairs)});
  }
  const bool counts_match =
      runs[0].c.pe_proper_pairs == runs[1].c.pe_proper_pairs &&
      runs[0].c.pe_rescued_pairs == runs[1].c.pe_rescued_pairs;
  std::printf("\n  proper/rescued counts %s across skip off/on\n",
              counts_match ? "identical" : "DIFFER!");

  if (std::FILE* f = std::fopen("BENCH_rescue.json", "w")) {
    std::fprintf(f, "{\n  \"bench\": \"rescue\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(f,
                 "  \"micro\": {\"windows\": %d, \"reps\": %d, \"anchors\": %llu,\n"
                 "    \"outputs_identical\": %s,\n"
                 "    \"reference_us_per_window\": %.4f,\n"
                 "    \"rolling_us_per_window\": %.4f,\n"
                 "    \"speedup\": %.3f},\n",
                 micro.windows, micro.reps,
                 static_cast<unsigned long long>(micro.anchors),
                 micro.identical ? "true" : "false", micro.ref_us_per_window,
                 micro.roll_us_per_window,
                 micro.ref_us_per_window / micro.roll_us_per_window);
    std::fprintf(f, "  \"pairs\": %lld,\n  \"counts_match\": %s,\n  \"e2e\": [\n",
                 static_cast<long long>(cfg.num_pairs),
                 counts_match ? "true" : "false");
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const E2eRun& r = runs[i];
      std::fprintf(f,
                   "    {\"rescue_skip\": %s, \"seconds\": %.6f, "
                   "\"pair_stage_seconds\": %.6f,\n"
                   "     \"windows_scanned\": %llu, \"windows_skipped\": %llu,\n"
                   "     \"rescue_jobs\": %llu, \"rescue_hits\": %llu, "
                   "\"proper_pairs\": %llu, \"rescued_pairs\": %llu}%s\n",
                   r.rescue_skip ? "true" : "false", r.seconds, r.pair_seconds,
                   static_cast<unsigned long long>(r.c.pe_rescue_windows),
                   static_cast<unsigned long long>(r.c.pe_rescue_win_skipped),
                   static_cast<unsigned long long>(r.c.pe_rescue_jobs),
                   static_cast<unsigned long long>(r.c.pe_rescue_hits),
                   static_cast<unsigned long long>(r.c.pe_proper_pairs),
                   static_cast<unsigned long long>(r.c.pe_rescued_pairs),
                   i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_rescue.json\n");
  }

  if (!micro.identical) {
    std::printf("ERROR: filtered 2-bit scan diverged from the reference!\n");
    return 1;
  }
  if (!counts_match) {
    std::printf("ERROR: rescue skipping changed proper/rescued counts!\n");
    return 1;
  }
  return 0;
}
