// Seed chaining (paper §2.3 "CHAIN") — a faithful port of BWA-MEM's
// mem_chain / test_and_merge / mem_chain_flt heuristics.
//
// Seeds (SMEM occurrences located via SAL) are greedily merged into chains
// of collinear, nearby seeds; chains are weighted by non-overlapping seed
// coverage and filtered by overlap dominance.  The paper profiles this
// stage at ~6% of BWA-MEM (Table 1) and leaves it alone, but reads from
// low-divergence repeat families keep hundreds of equal-weight chains, and
// bwa's pairwise loops made CHAIN the largest single-thread stage here.
// Both passes are therefore linear in distinct work (see build_chains and
// filter_chains) while reproducing bwa's output exactly.  A single
// implementation serves both drivers — which is also what keeps their
// outputs identical.
#pragma once

#include <span>
#include <vector>

#include "index/flat_sa.h"
#include "seq/pack.h"
#include "smem/smem_search.h"

namespace mem2::chain {

/// One seed: an exact match of query[qbeg, qbeg+len) at reference position
/// rbeg in the doubled (forward+reverse) coordinate space.
struct Seed {
  idx_t rbeg = 0;
  std::int32_t qbeg = 0;
  std::int32_t len = 0;
  std::int32_t score = 0;  // = len at creation (bwa keeps both)

  bool operator==(const Seed&) const = default;
};

struct Chain {
  idx_t pos = 0;  // rbeg of the first seed (the btree key in bwa)
  int rid = -1;   // contig id
  int weight = 0;
  int kept = 0;       // 0 dropped, 1 shadowed-kept, 2 partial, 3 primary
  int first = -1;     // first shadowed chain index (mapq accounting)
  float frac_rep = 0;
  std::vector<Seed> seeds;
};

struct ChainOptions {
  int w = 100;                  // band width (collinearity tolerance)
  int max_chain_gap = 10000;    // bwa -G companion (opt->max_chain_gap)
  int max_occ = 500;            // sample cap per SMEM interval (bwa -c)
  float mask_level = 0.50f;     // chain overlap threshold
  float drop_ratio = 0.50f;     // bwa -D
  int max_chain_extend = 1 << 30;
  int min_chain_weight = 0;     // bwa -W
  int min_seed_len = 19;
};

/// Locate the contig of [rbeg, rbeg+len) in doubled coordinates; -1 if the
/// interval crosses a contig or the strand boundary (bwa bns_intv2rid).
int interval_rid(const seq::Reference& ref, idx_t l_pac, idx_t rbeg, idx_t len);

/// Materialize seeds from SMEM intervals (the SAL stage): samples at most
/// max_occ positions per interval, in bwa's stepped order.  `sal` is any
/// row -> position callable; concrete functors/lambdas inline here, so the
/// per-row lookup costs a load, not a std::function dispatch.
template <class Sal>
void seeds_from_smems(std::span<const smem::Smem> smems, const ChainOptions& opt,
                      const Sal& sal, std::vector<Seed>& out) {
  out.clear();
  for (const auto& m : smems) {
    const idx_t s = m.bi.s;
    const idx_t step = s > opt.max_occ ? s / opt.max_occ : 1;
    idx_t count = 0;
    for (idx_t k = 0; k < s && count < opt.max_occ; k += step, ++count) {
      Seed seed;
      seed.rbeg = sal(m.bi.k + k);
      seed.qbeg = m.qb;
      seed.len = seed.score = m.len();
      out.push_back(seed);
    }
  }
}

/// Batched SAL (paper §4.5 with the §4.3 prefetch discipline): first
/// materialize every sampled BW row into the seed list, then resolve
/// rows -> positions against the flat SA with a wave of software prefetches
/// running kSalWave iterations ahead of the loads, so the random SA-line
/// misses overlap instead of serializing.  Output is identical to
/// seeds_from_smems over a flat-SA callable.
inline constexpr std::size_t kSalWave = 16;
void seeds_from_smems_batched(std::span<const smem::Smem> smems,
                              const ChainOptions& opt,
                              const index::FlatSA& sa,
                              std::vector<Seed>& out);

/// Fraction of the query covered by high-occurrence SMEMs (bwa's frac_rep,
/// used by the mapq model).
double repetitive_fraction(std::span<const smem::Smem> smems, int l_query,
                           int max_occ);

/// Greedy chain construction over seeds in SMEM order (bwa mem_chain).
/// Seeds whose interval crosses contig/strand boundaries are dropped.
/// Chains per read are usually tens but reach ~500 on repeat reads (p99 on
/// the 4 Mbp benchmark genome), so the key index never moves chains.
std::vector<Chain> build_chains(const seq::Reference& ref, idx_t l_pac,
                                std::span<const Seed> seeds, int l_query,
                                const ChainOptions& opt, double frac_rep);

/// Chain weight: min(query coverage, reference coverage) by seeds
/// (bwa mem_chain_weight).
int chain_weight(const Chain& chain);

/// Weight + overlap filtering (bwa mem_chain_flt); chains are reordered by
/// decreasing weight and dropped chains removed.  Each chain is tested once
/// per distinct kept (query box, weight), not once per kept chain.
void filter_chains(std::vector<Chain>& chains, const ChainOptions& opt);

}  // namespace mem2::chain
