// Table 1 reproduction: single-thread run-time profile of the BASELINE
// (original-BWA-MEM-style) pipeline on the D1 and D4 dataset analogs.
//
// Paper reference (Table 1):        D1      D4
//   SMEM                           21.5%   44.4%
//   SAL                            18.0%   15.5%
//   CHAIN                           6.0%    5.9%
//   BSW pre-processing              4.7%    4.9%
//   BSW                            47.2%   26.4%
//   SAM-FORM                        2.5%    2.9%
// The shape to reproduce: SMEM+SAL+BSW >= ~85% of total; BSW share higher
// on the longer-read D1, SMEM share higher on shorter-read D4.
//
// The table is DriverStats::stages — the same StageSpan clock a production
// run exports as mem2_stage_seconds — in the calling thread's wall seconds;
// MISC is the time no stage span claims (read encoding, per-read
// allocation, chunk setup).  The run is also traced and writes
// BENCH_pipeline_trace.json, loadable in chrome://tracing or Perfetto.
#include <string>

#include "align/aligner.h"
#include "bench_common.h"
#include "util/trace.h"

using namespace mem2;

int main() {
  const auto index = bench::bench_index();

  bench::print_header(
      "Table 1: single-thread stage profile of baseline BWA-MEM model");
  bench::print_row("Stage", {"D1", "D4"});

  align::DriverOptions opt;
  opt.mode = align::Mode::kBaseline;
  opt.threads = 1;

  align::DriverStats stats_d1, stats_d4;
  const auto d1 = bench::bench_dataset(index, 0);
  const auto d4 = bench::bench_dataset(index, 3);
  const align::Aligner aligner(index, opt);
  align::CollectSamSink sink_d1, sink_d4;

  // Per-read baseline spans overflow the default ring on full-size
  // datasets; a bigger window keeps more of the trace (aggregates are
  // exact either way).
  auto& tracer = util::Tracer::instance();
  tracer.set_ring_capacity(std::size_t{1} << 18);
  tracer.enable();
  bench::require_ok(aligner.align(d1.reads, sink_d1, &stats_d1));
  bench::require_ok(aligner.align(d4.reads, sink_d4, &stats_d4));
  tracer.disable();

  const util::StageTimes& st1 = stats_d1.stages;
  const util::StageTimes& st4 = stats_d4.stages;
  const double t1 = st1.total(), t4 = st4.total();
  double kernels1 = 0, kernels4 = 0;
  for (int i = 0; i < static_cast<int>(util::Stage::kCount); ++i) {
    const auto s = static_cast<util::Stage>(i);
    if (s == util::Stage::kPair) continue;  // single-end run
    const double p1 = 100.0 * st1[s] / t1;
    const double p4 = 100.0 * st4[s] / t4;
    bench::print_row(std::string(util::stage_name(s)).c_str(),
                     {bench::fmt(p1) + "%", bench::fmt(p4) + "%"});
    if (s == util::Stage::kSmem || s == util::Stage::kSal || s == util::Stage::kBsw) {
      kernels1 += p1;
      kernels4 += p4;
    }
  }
  bench::print_row("total (s)", {bench::fmt(t1), bench::fmt(t4)});
  bench::print_row("three-kernel share (paper: 86.5/85.7)",
                   {bench::fmt(kernels1) + "%", bench::fmt(kernels4) + "%"});
  std::printf("\nreads: D1=%zu x %d bp, D4=%zu x %d bp\n", d1.reads.size(),
              d1.read_length, d4.reads.size(), d4.read_length);

  if (tracer.write_chrome_trace_file("BENCH_pipeline_trace.json"))
    std::printf("wrote BENCH_pipeline_trace.json (%llu events, %llu dropped)\n",
                static_cast<unsigned long long>(tracer.recorded()),
                static_cast<unsigned long long>(tracer.dropped()));
  return 0;
}
