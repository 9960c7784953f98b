// Google-benchmark microbenchmarks for the core kernels: occurrence
// counting (CP128 vs CP32 scalar/AVX2), SAL (sampled vs flat), and the BSW
// engines across ISAs and precisions.  Complements the table-oriented
// binaries with statistically robust per-op numbers.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "bsw/bsw_engine.h"
#include "index/sais.h"
#include "util/rng.h"

using namespace mem2;

namespace {

struct MicroFixture {
  index::Mem2Index index;
  std::vector<idx_t> rows;
  std::vector<std::vector<seq::Code>> queries, targets;
  std::vector<bsw::ExtendJob> jobs;

  MicroFixture() {
    seq::GenomeConfig g;
    g.seed = 99;
    g.contig_lengths = {1 << 20};
    index = index::Mem2Index::build(seq::simulate_genome(g));

    util::Xoshiro256ss rng(3);
    rows.resize(1 << 14);
    for (auto& r : rows)
      r = static_cast<idx_t>(rng.below(static_cast<std::uint64_t>(index.seq_len() + 1)));

    // Extension jobs: 96-bp flanks with 5% divergence.
    const bsw::KswParams p;
    for (int i = 0; i < 1024; ++i) {
      std::vector<seq::Code> q(96);
      for (auto& c : q) c = static_cast<seq::Code>(rng.below(4));
      std::vector<seq::Code> t = q;
      for (auto& c : t)
        if (rng.chance(0.05)) c = static_cast<seq::Code>(rng.below(4));
      queries.push_back(std::move(q));
      targets.push_back(std::move(t));
    }
    for (int i = 0; i < 1024; ++i) {
      bsw::ExtendJob j;
      j.query = queries[static_cast<std::size_t>(i)].data();
      j.qlen = 96;
      j.target = targets[static_cast<std::size_t>(i)].data();
      j.tlen = 96;
      j.h0 = 30;
      j.w = 100;
      jobs.push_back(j);
    }
  }
};

MicroFixture& fixture() {
  static MicroFixture fx;
  return fx;
}

void BM_OccCp128(benchmark::State& state) {
  auto& fx = fixture();
  const auto& occ = fx.index.fm128().occ_table();
  std::size_t i = 0;
  for (auto _ : state) {
    idx_t out[4];
    occ.occ4(fx.rows[i++ & (fx.rows.size() - 1)] % occ.size(), out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_OccCp128);

void BM_OccCp32(benchmark::State& state) {
  auto& fx = fixture();
  const auto& occ = fx.index.fm32().occ_table();
  std::size_t i = 0;
  for (auto _ : state) {
    idx_t out[4];
    occ.occ4(fx.rows[i++ & (fx.rows.size() - 1)] % occ.size(), out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_OccCp32);

void BM_SalSampled(benchmark::State& state) {
  auto& fx = fixture();
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        fx.index.sa_lookup_baseline(fx.rows[i++ & (fx.rows.size() - 1)]));
}
BENCHMARK(BM_SalSampled);

void BM_SalFlat(benchmark::State& state) {
  auto& fx = fixture();
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        fx.index.sa_lookup_flat(fx.rows[i++ & (fx.rows.size() - 1)]));
}
BENCHMARK(BM_SalFlat);

void BM_BswScalarKernel(benchmark::State& state) {
  auto& fx = fixture();
  const bsw::KswParams p;
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        bsw::ksw_extend_scalar(fx.jobs[i++ & (fx.jobs.size() - 1)], p));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BswScalarKernel);

void BM_BswEngine(benchmark::State& state) {
  auto& fx = fixture();
  const bsw::KswParams p;
  const auto isa = static_cast<util::Isa>(state.range(0));
  const auto prec = static_cast<bsw::Precision>(state.range(1));
  if (util::detect_isa() < isa) {
    state.SkipWithError("ISA not available");
    return;
  }
  const auto engine = bsw::get_engine(isa, prec);
  std::vector<bsw::KswResult> out(static_cast<std::size_t>(engine.width));
  for (auto _ : state) {
    engine.run(fx.jobs.data(), out.data(), engine.width, p, nullptr);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * engine.width);
  state.SetLabel(engine.name);
}
BENCHMARK(BM_BswEngine)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->ArgNames({"isa", "prec"});

void BM_SuffixArrayConstruction(benchmark::State& state) {
  const auto ref = seq::random_genome(state.range(0), 5);
  std::vector<seq::Code> text(static_cast<std::size_t>(ref.length()));
  ref.pac().extract(0, text.size(), text.data());
  for (auto _ : state)
    benchmark::DoNotOptimize(index::build_suffix_array(text));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SuffixArrayConstruction)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
