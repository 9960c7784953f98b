// Figure 4 reproduction: thread scaling of the three kernels and of the
// whole application, original vs optimized, on the D1 and D5 analogs, plus
// the batch driver's SMEM stage against its interleave depth K.
//
// Paper reference: near-linear kernel scaling to 28 cores; whole-app
// scaling 20-22x because the unoptimized Misc components are bandwidth
// bound.  Both drivers run on N session pool workers, each taking whole
// batches, as bwa-mem2 does.  DriverStats sums each batch's stage seconds
// over the workers, so a stage's per-worker seconds are its sum / N, and
// its speedup is the 1-worker seconds over that.  A worker count above the
// dataset's batch count (ceil(reads / batch_size)) would leave workers idle
// and read superlinear, so each sweep stops there and prints what it
// skipped.  NOTE: small hosts expose few hardware threads; the sweep still
// runs and shows how the curve degenerates — counts beyond the hardware
// oversubscribe.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "align/aligner.h"
#include "bench_common.h"

using namespace mem2;

int main() {
  const auto index = bench::bench_index();
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int> thread_counts = {1};
  for (int t = 2; t <= hw; t *= 2) thread_counts.push_back(t);
  if (thread_counts.back() != hw) thread_counts.push_back(hw);

  for (const char* which : {"D1", "D5"}) {
    const auto ds = bench::bench_dataset(index, which[1] == '1' ? 0 : 4);
    const std::size_t batch_size =
        static_cast<std::size_t>(align::DriverOptions{}.batch_size);
    const int batches = static_cast<int>((ds.reads.size() + batch_size - 1) / batch_size);
    bench::print_header(std::string("Figure 4: scaling on ") + which + " (" +
                        std::to_string(ds.reads.size()) + " reads, " +
                        std::to_string(batches) + " batches, hw threads: " +
                        std::to_string(hw) + ")");
    bench::print_row("threads",
                     {"orig e2e", "opt e2e", "orig spd", "opt spd", "SMEM spd",
                      "SAL spd", "BSW spd"});

    double base_orig = 0, base_opt = 0;
    util::StageTimes base_stages;
    std::string skipped;
    for (int threads : thread_counts) {
      if (threads > batches) {
        skipped += (skipped.empty() ? "" : ", ") + std::to_string(threads);
        continue;
      }
      align::DriverOptions o_base, o_opt;
      o_base.mode = align::Mode::kBaseline;
      o_opt.mode = align::Mode::kBatch;
      o_base.threads = o_opt.threads = threads;

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
        const double per_worker = s_opt.stages[s] / threads;
        return per_worker > 0 ? base_stages[s] / per_worker : 0.0;
      };
      bench::print_row(std::to_string(threads).c_str(),
                       {bench::fmt(w_orig, 2), bench::fmt(w_opt, 2),
                        bench::fmt(base_orig / w_orig, 2) + "x",
                        bench::fmt(base_opt / w_opt, 2) + "x",
                        bench::fmt(spd(util::Stage::kSmem), 2) + "x",
                        bench::fmt(spd(util::Stage::kSal), 2) + "x",
                        bench::fmt(spd(util::Stage::kBsw), 2) + "x"});
    }
    if (!skipped.empty())
      std::printf("skipped worker counts %s: more workers than the %d batches\n",
                  skipped.c_str(), batches);
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

  return 0;
}
