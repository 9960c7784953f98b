// Tables 6 & 7 reproduction: the BSW kernel on sequence pairs intercepted
// from the D3-analog pipeline run.
//
// Table 6 (paper): original scalar 283s; 16-bit 65.4 (w/o sort) / 44.5
// (w/ sort); 8-bit 42.1 / 24.5 -> 6.7x (16-bit) and 11.6x (8-bit), with
// sorting worth 1.5-1.7x.  As in the paper, the 8-bit rows use only the
// pairs for which 8-bit precision suffices.
//
// Table 7 (paper): instructions 1385G -> 100G (13.85x), IPC 3.14 -> 2.17.
// Without VTune we report the software proxies (DP cells, useful fraction)
// plus perf_event counters when the container allows them.
//
// Every row runs on this thread; thread scaling is bench_scaling's
// session-pool sweep (Figure 4).
#include "bench_common.h"
#include "bsw/bsw_executor.h"
#include "job_harvest.h"
#include "util/perf_counters.h"

using namespace mem2;

namespace {

struct Run {
  double seconds = 0;
  util::SwCounters ctr;
  util::PerfSample hw;
  std::uint64_t checksum = 0;
};

using bench::ksw_checksum;

Run run_scalar(const std::vector<bsw::ExtendJob>& jobs, const bsw::KswParams& p) {
  util::tls_counters().reset();
  util::PerfCounters perf;
  Run run;
  util::Timer t;
  perf.start();
  std::vector<bsw::KswResult> out;
  out.reserve(jobs.size());
  for (const auto& j : jobs) out.push_back(bsw::ksw_extend_scalar(j, p));
  run.hw = perf.stop();
  run.seconds = t.seconds();
  run.ctr = util::tls_counters();
  run.checksum = ksw_checksum(out);
  return run;
}

Run run_simd(const std::vector<bsw::ExtendJob>& jobs, const bsw::KswParams& p,
             bool force16, bool sort) {
  util::tls_counters().reset();
  util::PerfCounters perf;
  bsw::BswBatchOptions opt;
  opt.force_16bit = force16;
  opt.sort_by_length = sort;
  static bsw::BswExecutor executor;  // workspace stays warm across rows
  Run run;
  util::Timer t;
  perf.start();
  std::vector<bsw::KswResult> out;
  executor.run(jobs, out, p, opt, nullptr);
  run.hw = perf.stop();
  run.seconds = t.seconds();
  run.ctr = util::tls_counters();
  run.checksum = ksw_checksum(out);
  return run;
}

}  // namespace

int main() {
  const auto index = bench::bench_index();
  const auto d3 = bench::bench_dataset(index, 2);

  align::MemOptions mopt;
  auto harvested = bench::harvest_bsw_jobs(index, d3.reads, mopt);
  auto& jobs = harvested.jobs;

  // Replicate each job list a few times so kernel time dominates setup at
  // the default scale.
  bench::replicate_jobs(jobs, 4);

  std::vector<bsw::ExtendJob> jobs8;
  for (const auto& j : jobs)
    if (bsw::fits_8bit(j, mopt.ksw)) jobs8.push_back(j);

  bench::print_header("Table 6: BSW kernel run time (D3 analog, " +
                      std::to_string(jobs.size()) + " pairs, " +
                      std::to_string(jobs8.size()) + " 8-bit eligible)");

  const Run scalar_all = run_scalar(jobs, mopt.ksw);
  const Run v16_nosort = run_simd(jobs, mopt.ksw, true, false);
  const Run v16_sort = run_simd(jobs, mopt.ksw, true, true);
  const Run scalar8 = run_scalar(jobs8, mopt.ksw);
  const Run v8_nosort = run_simd(jobs8, mopt.ksw, false, false);
  const Run v8_sort = run_simd(jobs8, mopt.ksw, false, true);

  if (v16_nosort.checksum != scalar_all.checksum ||
      v16_sort.checksum != scalar_all.checksum ||
      v8_nosort.checksum != scalar8.checksum ||
      v8_sort.checksum != scalar8.checksum) {
    std::printf("ERROR: SIMD results differ from scalar!\n");
    return 1;
  }

  bench::print_row("Configuration", {"time (s)", "speedup"});
  auto row = [&](const char* label, const Run& r, const Run& base) {
    bench::print_row(label, {bench::fmt(r.seconds, 3),
                             bench::fmt(base.seconds / r.seconds, 2) + "x"});
  };
  row("original scalar (all pairs)", scalar_all, scalar_all);
  row("16-bit w/o sort  (paper 4.3x)", v16_nosort, scalar_all);
  row("16-bit w/ sort   (paper 6.4x)", v16_sort, scalar_all);
  row("original scalar (8-bit pairs)", scalar8, scalar8);
  row("8-bit w/o sort   (paper 6.7x)", v8_nosort, scalar8);
  row("8-bit w/ sort    (paper 11.6x)", v8_sort, scalar8);
  bench::print_row("sorting benefit 16-bit (paper 1.5x)",
                   {bench::fmt(v16_nosort.seconds / v16_sort.seconds, 2) + "x", ""});
  bench::print_row("sorting benefit 8-bit (paper 1.7x)",
                   {bench::fmt(v8_nosort.seconds / v8_sort.seconds, 2) + "x", ""});

  bench::print_header("Table 7: BSW instruction profile, scalar vs 8-bit SIMD");
  bench::print_row("Counter", {"scalar", "8-bit SIMD"});
  bench::print_row("DP cells total (x1e6)",
                   {bench::fmt_int(scalar8.ctr.bsw_cells_total / 1000000),
                    bench::fmt_int(v8_sort.ctr.bsw_cells_total / 1000000)});
  const double useful_frac =
      static_cast<double>(v8_sort.ctr.bsw_cells_useful) /
      static_cast<double>(v8_sort.ctr.bsw_cells_total);
  bench::print_row("useful cell fraction (paper ~0.5)",
                   {"1.00", bench::fmt(useful_frac, 2)});
  if (scalar8.hw.valid) {
    bench::print_row("instructions (x1e6) [hw]",
                     {bench::fmt_int(scalar8.hw.instructions / 1000000),
                      bench::fmt_int(v8_sort.hw.instructions / 1000000)});
    bench::print_row("IPC [hw] (paper 3.14 / 2.17)",
                     {bench::fmt(scalar8.hw.ipc(), 2), bench::fmt(v8_sort.hw.ipc(), 2)});
  } else {
    std::printf("(hardware counters unavailable; cell counts above are the proxy)\n");
  }
  std::printf("\nidentical outputs scalar vs SIMD: yes\n");
  return 0;
}
