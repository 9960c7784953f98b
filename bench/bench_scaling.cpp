// Figure 4 reproduction: thread scaling of the three kernels and of the
// whole application, original vs optimized, on the D1 and D5 analogs —
// plus a dedicated BSW-thread sweep of the parallel BswExecutor against
// the serial BswExecutor(1) path, emitted as BENCH_bsw_scaling.json so the
// perf trajectory is machine-readable.
//
// Paper reference: near-linear kernel scaling to 28 cores; whole-app
// scaling 20-22x because the unoptimized Misc components are bandwidth
// bound.  The optimized driver runs one chunk at a time with every thread
// inside its batch stages, as in the paper, so each DriverStats stage is
// that stage's wall time and its speedup is a direct ratio.  NOTE: this container exposes few (often 1) hardware threads; the
// sweep still runs and the JSON records how the curve degenerates —
// thread counts beyond the hardware merely oversubscribe.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "align/aligner.h"
#include "bench_common.h"
#include "bsw/bsw_executor.h"
#include "job_harvest.h"

using namespace mem2;

namespace {

using bench::ksw_checksum;

struct SweepPoint {
  int threads;
  double seconds;
  std::uint64_t checksum;
};

/// BswExecutor thread sweep on harvested jobs; returns one point per count.
std::vector<SweepPoint> sweep_bsw_threads(const std::vector<bsw::ExtendJob>& jobs,
                                          const bsw::KswParams& params,
                                          const std::vector<int>& counts) {
  std::vector<SweepPoint> points;
  for (int threads : counts) {
    bsw::BswExecutor ex(threads);
    std::vector<bsw::KswResult> out;
    ex.run(jobs, out, params);  // warm-up: grows the persistent workspace
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      util::Timer t;
      ex.run(jobs, out, params);
      best = std::min(best, t.seconds());
    }
    points.push_back({threads, best, ksw_checksum(out)});
  }
  return points;
}

}  // namespace

int main() {
  const auto index = bench::bench_index();
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int> thread_counts = {1};
  for (int t = 2; t <= hw; t *= 2) thread_counts.push_back(t);
  if (thread_counts.back() != hw) thread_counts.push_back(hw);

  for (const char* which : {"D1", "D5"}) {
    const auto ds = bench::bench_dataset(index, which[1] == '1' ? 0 : 4);
    bench::print_header(std::string("Figure 4: scaling on ") + which + " (" +
                        std::to_string(ds.reads.size()) + " reads, hw threads: " +
                        std::to_string(hw) + ")");
    bench::print_row("threads",
                     {"orig e2e", "opt e2e", "orig spd", "opt spd", "SMEM spd",
                      "SAL spd", "BSW spd"});

    double base_orig = 0, base_opt = 0;
    util::StageTimes base_stages;
    for (int threads : thread_counts) {
      align::DriverOptions o_base, o_opt;
      o_base.mode = align::Mode::kBaseline;
      o_opt.mode = align::Mode::kBatch;
      o_base.threads = o_opt.threads = threads;
      o_opt.pipeline_workers = 1;

      const align::Aligner aligner_base(index, o_base);
      const align::Aligner aligner_opt(index, o_opt);
      align::CollectSamSink sink_base, sink_opt;
      align::DriverStats s_base, s_opt;
      util::Timer t;
      bench::require_ok(aligner_base.align(ds.reads, sink_base, &s_base));
      const double w_orig = t.seconds();
      t.restart();
      bench::require_ok(aligner_opt.align(ds.reads, sink_opt, &s_opt));
      const double w_opt = t.seconds();

      if (threads == 1) {
        base_orig = w_orig;
        base_opt = w_opt;
        base_stages = s_opt.stages;
      }
      auto spd = [&](util::Stage s) {
        const double wt = s_opt.stages[s];
        return wt > 0 ? base_stages[s] / wt : 0.0;
      };
      bench::print_row(std::to_string(threads).c_str(),
                       {bench::fmt(w_orig, 2), bench::fmt(w_opt, 2),
                        bench::fmt(base_orig / w_orig, 2) + "x",
                        bench::fmt(base_opt / w_opt, 2) + "x",
                        bench::fmt(spd(util::Stage::kSmem), 2) + "x",
                        bench::fmt(spd(util::Stage::kSal), 2) + "x",
                        bench::fmt(spd(util::Stage::kBsw), 2) + "x"});
    }
  }

  // --- SMEM interleave sweep: batch-driver SMEM stage time vs K ---
  {
    const auto d1 = bench::bench_dataset(index, 0);
    bench::print_header("SMEM stage vs smem_inflight (batch driver, D1, 1 thread)");
    bench::print_row("K", {"SMEM (s)", "SAL (s)", "e2e (s)", "SMEM spd"});
    double smem_k1 = 0;
    for (const int k : {1, 2, 4, 8, 16}) {
      align::DriverOptions opt;
      opt.mode = align::Mode::kBatch;
      opt.threads = 1;
      opt.smem_inflight = k;
      const align::Aligner aligner(index, opt);
      align::CollectSamSink sink;
      align::DriverStats stats;
      util::Timer t;
      bench::require_ok(aligner.align(d1.reads, sink, &stats));
      const double e2e = t.seconds();
      const double smem = stats.stages[util::Stage::kSmem];
      if (k == 1) smem_k1 = smem;
      bench::print_row(std::to_string(k).c_str(),
                       {bench::fmt(smem, 3), bench::fmt(stats.stages[util::Stage::kSal], 3),
                        bench::fmt(e2e, 2),
                        bench::fmt(smem > 0 ? smem_k1 / smem : 0.0, 2) + "x"});
    }
  }

  // --- BswExecutor thread sweep -> BENCH_bsw_scaling.json ---
  {
    align::MemOptions mopt;
    const auto d3 = bench::bench_dataset(index, 2);
    auto harvested = bench::harvest_bsw_jobs(index, d3.reads, mopt);
    auto& jobs = harvested.jobs;
    bench::replicate_jobs(jobs, 4);

    double serial_seconds = 1e30;
    std::uint64_t serial_checksum = 0;
    {
      bsw::BswExecutor serial(1);
      std::vector<bsw::KswResult> out;
      serial.run(jobs, out, mopt.ksw);  // warm-up
      for (int rep = 0; rep < 3; ++rep) {
        util::Timer t;
        serial.run(jobs, out, mopt.ksw);
        serial_seconds = std::min(serial_seconds, t.seconds());
      }
      serial_checksum = ksw_checksum(out);
    }

    std::vector<int> counts = {1, 2, 4};
    if (hw > 4) counts.push_back(hw);
    const auto points = sweep_bsw_threads(jobs, mopt.ksw, counts);

    bench::print_header("BswExecutor thread sweep (" + std::to_string(jobs.size()) +
                        " harvested jobs, serial executor " +
                        bench::fmt(serial_seconds, 3) + "s)");
    bench::print_row("threads", {"time (s)", "speedup", "identical"});
    bool all_identical = true;
    for (const SweepPoint& pt : points) {
      const bool same = pt.checksum == serial_checksum;
      all_identical &= same;
      bench::print_row(std::to_string(pt.threads).c_str(),
                       {bench::fmt(pt.seconds, 3),
                        bench::fmt(serial_seconds / pt.seconds, 2) + "x",
                        same ? "yes" : "NO"});
    }

    if (std::FILE* f = std::fopen("BENCH_bsw_scaling.json", "w")) {
      std::fprintf(f, "{\n  \"bench\": \"bsw_scaling\",\n");
      std::fprintf(f, "  \"jobs\": %zu,\n", jobs.size());
      std::fprintf(f, "  \"hw_threads\": %d,\n", hw);
      std::fprintf(f, "  \"serial_seconds\": %.6f,\n", serial_seconds);
      std::fprintf(f, "  \"serial_checksum\": \"%016llx\",\n",
                   static_cast<unsigned long long>(serial_checksum));
      std::fprintf(f, "  \"all_checksums_identical\": %s,\n",
                   all_identical ? "true" : "false");
      std::fprintf(f, "  \"sweep\": [\n");
      for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint& pt = points[i];
        std::fprintf(f,
                     "    {\"threads\": %d, \"seconds\": %.6f, \"speedup\": %.3f, "
                     "\"checksum\": \"%016llx\"}%s\n",
                     pt.threads, pt.seconds, serial_seconds / pt.seconds,
                     static_cast<unsigned long long>(pt.checksum),
                     i + 1 < points.size() ? "," : "");
      }
      std::fprintf(f, "  ]\n}\n");
      std::fclose(f);
      std::printf("\nwrote BENCH_bsw_scaling.json\n");
    }
    if (!all_identical) {
      std::printf("ERROR: executor results differ from the serial executor!\n");
      return 1;
    }
  }
  return 0;
}
