// Table 8 reproduction: where the optimized 8-bit BSW spends its time.
//
// Paper reference: Pre-processing 33%, Band adjustment I 9%, Cell
// computations 43%, Band adjustment II 15%.  Shape to reproduce: cell
// computation is well under half of the kernel; SoA conversion and the
// per-row band bookkeeping take the rest (this is the paper's explanation
// for why the 64-lane engine does not get 64x).
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
  {
    const std::size_t base = jobs8.size();
    while (jobs8.size() < base * 4)
      jobs8.insert(jobs8.end(), jobs8.begin(), jobs8.begin() + static_cast<std::ptrdiff_t>(base));
  }

  bsw::BswBatchOptions opt;
  opt.sort_by_length = true;
  bsw::BswBatchStats stats;
  std::vector<bsw::KswResult> out;
  bsw::BswExecutor(1).run(jobs8, out, mopt.ksw, opt, &stats);

  const auto& bd = stats.breakdown;
  const double total = bd.total() + stats.sort_seconds;

  bench::print_header("Table 8: optimized 8-bit BSW time breakdown (" +
                      std::to_string(jobs8.size()) + " pairs)");
  bench::print_row("Component", {"time (s)", "share"});
  auto row = [&](const char* label, double v) {
    bench::print_row(label, {bench::fmt(v, 4), bench::fmt(100.0 * v / total, 1) + "%"});
  };
  row("pre-processing incl. sort (paper 33%)", bd.pre + stats.sort_seconds);
  row("band adjustment I (paper 9%)", bd.band1);
  row("cell computations (paper 43%)", bd.cells);
  row("band adjustment II (paper 15%)", bd.band2);
  bench::print_row("total", {bench::fmt(total, 4), "100%"});
  std::printf("\nengine: %s, chunks: %llu\n",
              bsw::get_engine(opt.isa, bsw::Precision::k8bit).name,
              static_cast<unsigned long long>(stats.chunks));
  return 0;
}
