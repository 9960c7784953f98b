// Kernel explorer: a didactic walk through the three kernels for one read —
// prints the SMEMs (with SA-interval sizes), the SAL-resolved seed
// positions, the chains that survive filtering, and the per-seed extension
// scores.  Useful for understanding what the paper's kernels actually do.
//
//   ./examples/kernel_explorer [read_length]
#include <cstdio>

#include "align/extend.h"
#include "chain/chain.h"
#include "seq/genome_sim.h"
#include "seq/read_sim.h"
#include "smem/seeding.h"

using namespace mem2;

int main(int argc, char** argv) {
  const int read_len = argc > 1 ? std::atoi(argv[1]) : 101;

  seq::GenomeConfig g;
  g.contig_lengths = {500000};
  g.repeat_fraction = 0.3;
  g.repeat_divergence = 0.02;
  const auto index = index::Mem2Index::build(seq::simulate_genome(g));

  seq::ReadSimConfig rc;
  rc.num_reads = 1;
  rc.read_length = read_len;
  rc.substitution_rate = 0.02;
  const auto reads = seq::simulate_reads(index.ref(), rc);
  const auto& read = reads[0];
  std::printf("read %s\n%s\n\n", read.name.c_str(), read.bases.c_str());

  std::vector<seq::Code> q(read.bases.size());
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = seq::char_to_code(read.bases[i]);
  const std::vector<seq::Code> q_rev(q.rbegin(), q.rend());

  // --- SMEM kernel ---
  smem::SmemWorkspace ws;
  std::vector<smem::Smem> smems;
  align::MemOptions opt;
  smem::collect_smems(index.fm32(), q, opt.seeding, smems, ws,
                      util::PrefetchPolicy{true});
  std::printf("== SMEM: %zu seeding intervals ==\n", smems.size());
  for (const auto& m : smems)
    std::printf("  query[%3d,%3d) len %3d  SA rows [%lld, +%lld)\n", m.qb, m.qe,
                m.len(), static_cast<long long>(m.bi.k),
                static_cast<long long>(m.bi.s));

  // --- SAL kernel ---
  std::vector<chain::Seed> seeds;
  chain::seeds_from_smems(
      smems, opt.chaining, [&](idx_t row) { return index.sa_lookup_flat(row); },
      seeds);
  std::printf("\n== SAL: %zu seeds (interval rows -> positions) ==\n", seeds.size());
  for (std::size_t i = 0; i < seeds.size() && i < 12; ++i) {
    const auto& s = seeds[i];
    const bool rev = s.rbeg >= index.l_pac();
    std::printf("  q%3d len %3d -> %s strand pos %lld\n", s.qbeg, s.len,
                rev ? "-" : "+",
                static_cast<long long>(rev ? 2 * index.l_pac() - s.rbeg - s.len
                                           : s.rbeg));
  }
  if (seeds.size() > 12) std::printf("  ... (%zu more)\n", seeds.size() - 12);

  // --- CHAIN ---
  const double frac_rep =
      chain::repetitive_fraction(smems, read_len, opt.chaining.max_occ);
  auto chains = chain::build_chains(index.ref(), index.l_pac(), seeds, read_len,
                                    opt.chaining, frac_rep);
  const std::size_t before = chains.size();
  chain::filter_chains(chains, opt.chaining);
  std::printf("\n== CHAIN: %zu chains built, %zu kept after filtering ==\n",
              before, chains.size());
  for (const auto& c : chains)
    std::printf("  chain @%lld rid %d: %zu seeds, weight %d, kept=%d\n",
                static_cast<long long>(c.pos), c.rid, c.seeds.size(), c.weight,
                c.kept);

  // --- BSW ---
  align::ExtendContext ctx{opt, index, q, q_rev};
  align::ScalarSource source(opt.ksw);
  std::vector<align::AlnReg> regs;
  align::process_chains(ctx, chains, source, regs);
  std::printf("\n== BSW: %zu regions ==\n", regs.size());
  for (const auto& r : regs)
    std::printf("  query[%3d,%3d) ref[%lld,%lld) score %d (w=%d, seedcov=%d)\n",
                r.qb, r.qe, static_cast<long long>(r.rb),
                static_cast<long long>(r.re), r.score, r.w, r.seedcov);
  return 0;
}
