// Table 8 reproduction: where the optimized BSW spends its time, for every
// SIMD engine the host runs (8- and 16-bit lanes at AVX2 and, where the CPU
// has it, AVX-512), on the same 8-bit-eligible pairs.
//
// Paper reference (8-bit, SKX): Pre-processing 33%, Band adjustment I 9%,
// Cell computations 43%, Band adjustment II 15%.  The shape to reproduce:
// cell computation is under half of the kernel, and SoA conversion plus
// the per-row band bookkeeping take the rest — the paper's explanation for
// why the 64-lane engine does not get 64x.
#include "bench_common.h"
#include "bsw/bsw_executor.h"
#include "job_harvest.h"

using namespace mem2;

int main() {
  const auto index = bench::bench_index();
  const auto d3 = bench::bench_dataset(index, 2);

  align::MemOptions mopt;
  auto harvested = bench::harvest_bsw_jobs(index, d3.reads, mopt);

  std::vector<bsw::ExtendJob> jobs8;
  for (const auto& j : harvested.jobs)
    if (bsw::fits_8bit(j, mopt.ksw)) jobs8.push_back(j);
  bench::replicate_jobs(jobs8, 4);

  for (util::Isa isa : {util::Isa::kAvx2, util::Isa::kAvx512}) {
    if (isa > util::dispatch_isa()) continue;
    for (bool force16 : {false, true}) {
      bsw::BswBatchOptions opt;
      opt.sort_by_length = true;
      opt.isa = isa;
      opt.force_16bit = force16;
      // Best of three runs (least total), on a warm executor workspace.
      bsw::BswExecutor executor;
      std::vector<bsw::KswResult> out;
      bsw::BswBatchStats stats;
      for (int rep = 0; rep < 3; ++rep) {
        bsw::BswBatchStats s;
        executor.run(jobs8, out, mopt.ksw, opt, &s);
        if (rep == 0 || s.breakdown.total() + s.sort_seconds <
                            stats.breakdown.total() + stats.sort_seconds)
          stats = s;
      }

      const auto& bd = stats.breakdown;
      const double total = bd.total() + stats.sort_seconds;
      const char* engine = force16 ? stats.engine_16bit : stats.engine_8bit;
      bench::print_header(std::string("Table 8: ") + engine + " BSW time breakdown (" +
                          std::to_string(jobs8.size()) + " pairs, " +
                          std::to_string(stats.chunks) + " chunks)");
      bench::print_row("Component", {"time (s)", "share"});
      auto row = [&](const char* label, double v) {
        bench::print_row(label, {bench::fmt(v, 4), bench::fmt(100.0 * v / total, 1) + "%"});
      };
      row("pre-processing incl. sort (paper 33%)", bd.pre + stats.sort_seconds);
      row("  of which length sort", stats.sort_seconds);
      row("band adjustment I (paper 9%)", bd.band1);
      row("cell computations (paper 43%)", bd.cells);
      row("band adjustment II (paper 15%)", bd.band2);
      bench::print_row("total", {bench::fmt(total, 4), "100%"});
    }
  }
  return 0;
}
