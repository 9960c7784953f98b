// Differential tests: the repeat-linear CHAIN and region post-processing
// (chain::build_chains / filter_chains, align::sort_dedup_regions and
// process_chains' containment test) against the quadratic reference
// implementations they replaced, kept below verbatim as the oracle.
//
// Every property runs kCases seeded cases; a failure names its case seed,
// and `test_chain_oracle --seed=N` replays exactly that case.  Generators
// aim at the shapes the linear versions special-case: hundreds of
// identical-box chains, duplicate rbeg keys (the key-nudge path), drops
// that land after pending `first`s in several groups, min_chain_weight and
// max_chain_extend, mixed strands and contigs, and region replacement
// followed by later overlaps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "align/extend.h"
#include "align/region.h"
#include "chain/chain.h"
#include "seq/genome_sim.h"
#include "seq/read_sim.h"
#include "smem/seeding.h"
#include "util/rng.h"

namespace mem2 {
namespace oracle_seed {
// Set by --seed=N: run only that case of every property.
std::uint64_t g_replay = 0;
bool g_have_replay = false;
}  // namespace oracle_seed

namespace oracle {

using namespace chain;
using namespace align;

// The pre-linear implementations, verbatim.

// ---- chain.cpp ----
// bwa test_and_merge: try to append seed to chain c; returns true if the
// seed was merged (or is contained) and false if a new chain is needed.
bool test_and_merge(const ChainOptions& opt, idx_t l_pac, Chain& c,
                    const Seed& p, int seed_rid) {
  if (seed_rid != c.rid) return false;
  const Seed& last = c.seeds.back();
  const idx_t qend = last.qbeg + last.len;
  const idx_t rend = last.rbeg + last.len;
  if (p.qbeg >= c.seeds.front().qbeg && p.qbeg + p.len <= qend &&
      p.rbeg >= c.seeds.front().rbeg && p.rbeg + p.len <= rend)
    return true;  // contained seed; do nothing
  if ((c.seeds.front().rbeg < l_pac || last.rbeg < l_pac) && p.rbeg >= l_pac)
    return false;  // different strands
  const idx_t x = p.qbeg - last.qbeg;  // non-negative (seed order)
  const idx_t y = p.rbeg - last.rbeg;
  if (y >= 0 && x - y <= opt.w && y - x <= opt.w &&
      x - last.len < opt.max_chain_gap && y - last.len < opt.max_chain_gap) {
    c.seeds.push_back(p);
    return true;
  }
  return false;
}

std::vector<Chain> build_chains(const seq::Reference& ref, idx_t l_pac,
                                std::span<const Seed> seeds, int l_query,
                                const ChainOptions& opt, double frac_rep) {
  (void)l_query;
  // bwa keeps chains in a btree keyed by chain pos; the lower bound of a
  // seed's rbeg is the merge candidate.  A flat key-sorted vector with
  // binary search reproduces the same lower-bound merge semantics (including
  // the minimal duplicate-key nudge) without the per-node mallocs and
  // pointer chasing of a tree — chains per read number in the tens, so the
  // O(n) insert shift is cheaper than the allocator traffic it replaces.
  struct Entry {
    idx_t key;
    Chain chain;
  };
  std::vector<Entry> tree;
  const auto key_less = [](const Entry& e, idx_t key) { return e.key < key; };
  for (const Seed& s : seeds) {
    const int rid = interval_rid(ref, l_pac, s.rbeg, s.len);
    if (rid < 0) continue;  // crosses a boundary: discarded (as in bwa)
    bool added = false;
    // upper_bound(s.rbeg) then step back = last entry with key <= s.rbeg.
    auto it = std::lower_bound(tree.begin(), tree.end(), s.rbeg + 1, key_less);
    if (it != tree.begin())
      added = test_and_merge(opt, l_pac, std::prev(it)->chain, s, rid);
    if (!added) {
      Chain c;
      c.pos = s.rbeg;
      c.rid = rid;
      c.frac_rep = static_cast<float>(frac_rep);
      c.seeds.push_back(s);
      // Duplicate key: bwa's btree keeps both; nudge the key minimally
      // (identical key assignment to the old std::map-based code).
      idx_t key = s.rbeg;
      auto pos = std::lower_bound(tree.begin(), tree.end(), key, key_less);
      while (pos != tree.end() && pos->key == key) ++key, ++pos;
      tree.insert(pos, Entry{key, std::move(c)});
    }
  }
  std::vector<Chain> chains;
  chains.reserve(tree.size());
  for (auto& e : tree) chains.push_back(std::move(e.chain));
  return chains;
}

int chn_beg(const Chain& c) { return c.seeds.front().qbeg; }
int chn_end(const Chain& c) {
  return c.seeds.back().qbeg + c.seeds.back().len;
}

void filter_chains(std::vector<Chain>& chains, const ChainOptions& opt) {
  // Weight + drop underweight chains.
  std::size_t k = 0;
  for (std::size_t i = 0; i < chains.size(); ++i) {
    Chain& c = chains[i];
    c.first = -1;
    c.kept = 0;
    c.weight = chain_weight(c);
    if (c.weight >= opt.min_chain_weight) {
      if (k != i) chains[k] = std::move(c);
      ++k;
    }
  }
  chains.resize(k);
  if (chains.empty()) return;

  // Sort by weight desc (stable + deterministic tiebreaks).
  std::stable_sort(chains.begin(), chains.end(), [](const Chain& a, const Chain& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    if (a.pos != b.pos) return a.pos < b.pos;
    return chn_beg(a) < chn_beg(b);
  });

  chains[0].kept = 3;
  for (std::size_t i = 1; i < chains.size(); ++i) {
    bool large_ovlp = false;
    std::size_t j = 0;
    for (; j < i; ++j) {
      if (!chains[j].kept) continue;
      const int b_max = std::max(chn_beg(chains[j]), chn_beg(chains[i]));
      const int e_min = std::min(chn_end(chains[j]), chn_end(chains[i]));
      if (e_min > b_max) {  // overlap on the query
        const int li = chn_end(chains[i]) - chn_beg(chains[i]);
        const int lj = chn_end(chains[j]) - chn_beg(chains[j]);
        const int min_l = std::min(li, lj);
        if (e_min - b_max >= min_l * opt.mask_level && min_l < opt.max_chain_gap) {
          large_ovlp = true;
          if (chains[j].first < 0) chains[j].first = static_cast<int>(i);
          if (chains[i].weight < chains[j].weight * opt.drop_ratio &&
              chains[j].weight - chains[i].weight >= opt.min_seed_len * 2)
            break;  // dropped
        }
      }
    }
    if (j == i) chains[i].kept = large_ovlp ? 2 : 3;
  }
  // Keep the first shadowed chain of each kept chain (mapq accuracy).
  for (const auto& c : chains)
    if (c.first >= 0 && chains[static_cast<std::size_t>(c.first)].kept == 0)
      chains[static_cast<std::size_t>(c.first)].kept = 1;
  // Cap the number of partial (kept==2) chains.
  int n_partial = 0;
  for (auto& c : chains) {
    if (c.kept == 2 && ++n_partial > opt.max_chain_extend) c.kept = 0;
  }
  // Compact: drop kept==0.
  k = 0;
  for (std::size_t i = 0; i < chains.size(); ++i) {
    if (!chains[i].kept) continue;
    if (k != i) chains[k] = std::move(chains[i]);
    ++k;
  }
  chains.resize(k);
}

// ---- region.cpp ----
void sort_dedup_regions(std::vector<AlnReg>& regs, const MemOptions& opt) {
  if (regs.size() <= 1) return;
  std::stable_sort(regs.begin(), regs.end(), [](const AlnReg& a, const AlnReg& b) {
    if (a.rb != b.rb) return a.rb < b.rb;
    if (a.re != b.re) return a.re < b.re;
    if (a.qb != b.qb) return a.qb < b.qb;
    return a.qe < b.qe;
  });
  // Drop a region when a neighbour covers (mask_level_redun) of it on both
  // query and reference with a better-or-equal score.
  std::vector<AlnReg> kept;
  kept.reserve(regs.size());
  for (const auto& r : regs) {
    bool redundant = false;
    for (auto& k : kept) {
      if (k.rid != r.rid) continue;
      const idx_t rb_max = std::max(k.rb, r.rb);
      const idx_t re_min = std::min(k.re, r.re);
      const int qb_max = std::max(k.qb, r.qb);
      const int qe_min = std::min(k.qe, r.qe);
      if (re_min <= rb_max || qe_min <= qb_max) continue;
      const double r_span = static_cast<double>(std::min(r.re - r.rb,
                                                         static_cast<idx_t>(r.qe - r.qb)));
      const double ovlp = std::min(static_cast<double>(re_min - rb_max),
                                   static_cast<double>(qe_min - qb_max));
      if (ovlp >= r_span * opt.mask_level_redun) {
        if (r.score > k.score) k = r;  // keep the better of the two
        redundant = true;
        break;
      }
    }
    if (!redundant) kept.push_back(r);
  }
  regs = std::move(kept);
}

// ---- extend.cpp ----
void process_chains(const ExtendContext& ctx,
                    std::span<const chain::Chain> chains,
                    SeedExtendSource& source, std::vector<AlnReg>& regs) {
  const MemOptions& opt = ctx.opt;
  const int l_query = static_cast<int>(ctx.query.size());

  std::vector<seq::Code> window;
  for (int chain_idx = 0; chain_idx < static_cast<int>(chains.size()); ++chain_idx) {
    const chain::Chain& c = chains[static_cast<std::size_t>(chain_idx)];
    if (c.seeds.empty()) continue;

    const ChainRef* cref = source.chain_ref(chain_idx);
    ChainRef local;
    if (!cref) {
      local = make_chain_ref(ctx, c, window);
      cref = &local;
    }

    // Seeds by ascending score; visited from the back (best first).
    const int n = static_cast<int>(c.seeds.size());
    std::vector<std::uint64_t> srt(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      srt[static_cast<std::size_t>(i)] =
          static_cast<std::uint64_t>(c.seeds[static_cast<std::size_t>(i)].score) << 32 |
          static_cast<std::uint32_t>(i);
    std::sort(srt.begin(), srt.end());

    for (int k = n - 1; k >= 0; --k) {
      const int seed_idx = static_cast<int>(static_cast<std::uint32_t>(srt[static_cast<std::size_t>(k)]));
      const chain::Seed& s = c.seeds[static_cast<std::size_t>(seed_idx)];

      // --- test whether this seed is contained in an existing region ---
      std::size_t i;
      for (i = 0; i < regs.size(); ++i) {
        const AlnReg& p = regs[i];
        if (s.rbeg < p.rb || s.rbeg + s.len > p.re || s.qbeg < p.qb ||
            s.qbeg + s.len > p.qe)
          continue;  // not fully contained
        if (s.len - p.seedlen0 > .1 * l_query) continue;  // may yield a better aln
        // Region ahead of the seed.
        int qd = s.qbeg - p.qb;
        idx_t rd = s.rbeg - p.rb;
        int max_gap = opt.cal_max_gap(static_cast<int>(std::min<idx_t>(qd, rd)));
        int w = std::min(max_gap, p.w);
        if (qd - rd < w && rd - qd < w) break;  // seed is around the hit
        // Region behind the seed.
        qd = p.qe - (s.qbeg + s.len);
        rd = p.re - (s.rbeg + s.len);
        max_gap = opt.cal_max_gap(static_cast<int>(std::min<idx_t>(qd, rd)));
        w = std::min(max_gap, p.w);
        if (qd - rd < w && rd - qd < w) break;
      }
      if (i < regs.size()) {
        // Contained: extend anyway only if a similar-length overlapping seed
        // with a different diagonal exists in this chain.
        int t;
        for (t = k + 1; t < n; ++t) {
          if (srt[static_cast<std::size_t>(t)] == 0) continue;
          const chain::Seed& o =
              c.seeds[static_cast<std::size_t>(static_cast<std::uint32_t>(srt[static_cast<std::size_t>(t)]))];
          if (o.len < s.len * .95) continue;
          if (s.qbeg <= o.qbeg && s.qbeg + s.len - o.qbeg >= s.len >> 2 &&
              o.qbeg - s.qbeg != o.rbeg - s.rbeg)
            break;
          if (o.qbeg <= s.qbeg && o.qbeg + o.len - s.qbeg >= s.len >> 2 &&
              s.qbeg - o.qbeg != s.rbeg - o.rbeg)
            break;
        }
        if (t == n) {           // no such seed: skip the extension
          srt[static_cast<std::size_t>(k)] = 0;  // mark not-extended
          continue;
        }
      }

      // --- extension ---
      AlnReg a;
      int aw0 = opt.w, aw1 = opt.w;
      a.w = opt.w;
      a.score = a.truesc = -1;
      a.rid = c.rid;

      // Degenerate flank (clamped reference window leaves no target bases):
      // ksw on an empty target trivially returns (h0, 0, 0, 0, -1, 0).
      const auto run_side = [&](int side, int bt, const bsw::ExtendJob& job) {
        if (job.tlen == 0) {
          bsw::KswResult r;
          r.score = job.h0;
          return r;
        }
        return source.extend(chain_idx, seed_idx, side, bt, job);
      };

      if (s.qbeg) {  // left extension
        bsw::KswResult r;
        for (int bt = 0; bt < opt.max_band_try; ++bt) {
          const int prev = a.score;
          aw0 = opt.w << bt;
          const auto job = make_left_job(ctx, *cref, s, aw0);
          r = run_side(/*side=*/0, bt, job);
          a.score = r.score;
          if (!band_retry_needed(a.score, prev, r.max_off, aw0)) break;
        }
        if (r.gscore <= 0 || r.gscore <= a.score - opt.ksw.end_bonus) {
          a.qb = s.qbeg - r.qle;
          a.rb = s.rbeg - r.tle;
          a.truesc = a.score;
        } else {  // reaching the query start is preferred
          a.qb = 0;
          a.rb = s.rbeg - r.gtle;
          a.truesc = r.gscore;
        }
      } else {
        a.score = a.truesc = s.len * opt.ksw.a;
        a.qb = 0;
        a.rb = s.rbeg;
      }

      if (s.qbeg + s.len != l_query) {  // right extension
        const int sc0 = a.score;
        const idx_t re_off = s.rbeg + s.len - cref->rmax0;
        bsw::KswResult r;
        for (int bt = 0; bt < opt.max_band_try; ++bt) {
          const int prev = a.score;
          aw1 = opt.w << bt;
          const auto job = make_right_job(ctx, *cref, s, aw1, sc0);
          r = run_side(/*side=*/1, bt, job);
          a.score = r.score;
          if (!band_retry_needed(a.score, prev, r.max_off, aw1)) break;
        }
        if (r.gscore <= 0 || r.gscore <= a.score - opt.ksw.end_bonus) {
          a.qe = (s.qbeg + s.len) + r.qle;
          a.re = cref->rmax0 + re_off + r.tle;
          a.truesc += a.score - sc0;
        } else {
          a.qe = l_query;
          a.re = cref->rmax0 + re_off + r.gtle;
          a.truesc += r.gscore - sc0;
        }
      } else {
        a.qe = l_query;
        a.re = s.rbeg + s.len;
      }

      // Seed coverage of the region.
      a.seedcov = 0;
      for (const auto& t2 : c.seeds)
        if (t2.qbeg >= a.qb && t2.qbeg + t2.len <= a.qe && t2.rbeg >= a.rb &&
            t2.rbeg + t2.len <= a.re)
          a.seedcov += t2.len;
      a.w = std::max(aw0, aw1);
      a.seedlen0 = s.len;
      a.frac_rep = c.frac_rep;
      regs.push_back(a);
    }
  }
}


}  // namespace oracle

namespace {

using align::AlnReg;
using chain::Chain;
using chain::ChainOptions;
using chain::Seed;

constexpr int kCases = 200;
constexpr std::uint64_t kBaseSeed = 20261017;

/// Runs body(seed) for every case seed (or only the --seed replay), with
/// the seed attached to any failure.
template <class Body>
void for_each_case(int cases, Body&& body) {
  const auto one = [&](std::uint64_t seed) {
    SCOPED_TRACE("replay with: test_chain_oracle --seed=" + std::to_string(seed));
    body(seed);
  };
  if (oracle_seed::g_have_replay) {
    one(oracle_seed::g_replay);
    return;
  }
  for (int c = 0; c < cases && !::testing::Test::HasFailure(); ++c)
    one(kBaseSeed + static_cast<std::uint64_t>(c));
}

/// Two contigs (3000 + 2000 bp): l_pac = 5000, doubled space [0, 10000).
const seq::Reference& small_ref() {
  static const seq::Reference ref = [] {
    seq::GenomeConfig g;
    g.seed = 5;
    g.contig_lengths = {3000, 2000};
    g.repeat_fraction = 0;
    g.tandem_fraction = 0;
    return seq::simulate_genome(g);
  }();
  return ref;
}

int pick(util::Xoshiro256ss& rng, int lo, int hi) {  // [lo, hi]
  return lo + static_cast<int>(rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
}

/// Seeds as SMEM sampling produces them: a few anchor loci (both strands,
/// both contigs, some straddling a boundary), collinear seeds per locus,
/// repeated rbeg keys, mostly in query order.
std::vector<Seed> random_seeds(util::Xoshiro256ss& rng, idx_t l_pac) {
  const int n_anchor = pick(rng, 1, 60);
  std::vector<idx_t> anchors;
  for (int a = 0; a < n_anchor; ++a)
    anchors.push_back(static_cast<idx_t>(rng.below(static_cast<std::uint64_t>(2 * l_pac - 200))));
  const int n = pick(rng, 1, 700);
  std::vector<Seed> seeds;
  for (int i = 0; i < n; ++i) {
    Seed s;
    s.qbeg = pick(rng, 0, 120);
    s.len = s.score = pick(rng, 12, 70);
    if (!seeds.empty() && rng.chance(0.15)) {
      s.rbeg = seeds[rng.below(seeds.size())].rbeg;  // duplicate key
    } else {
      const idx_t a = anchors[rng.below(anchors.size())];
      s.rbeg = a + s.qbeg + pick(rng, -8, 8) * (rng.chance(0.7) ? 0 : 1);
    }
    s.rbeg = std::clamp<idx_t>(s.rbeg, 0, 2 * l_pac - s.len);
    seeds.push_back(s);
  }
  if (rng.chance(0.8))
    std::stable_sort(seeds.begin(), seeds.end(),
                     [](const Seed& a, const Seed& b) { return a.qbeg < b.qbeg; });
  return seeds;
}

ChainOptions random_chain_options(util::Xoshiro256ss& rng) {
  ChainOptions opt;
  if (rng.chance(0.3)) opt.min_chain_weight = pick(rng, 0, 60);
  if (rng.chance(0.3)) opt.max_chain_extend = pick(rng, 0, 6);
  if (rng.chance(0.3)) opt.drop_ratio = static_cast<float>(rng.uniform());
  if (rng.chance(0.3)) opt.mask_level = static_cast<float>(0.2 + 0.8 * rng.uniform());
  if (rng.chance(0.3)) opt.min_seed_len = pick(rng, 5, 40);
  if (rng.chance(0.2)) opt.w = pick(rng, 1, 150);
  return opt;
}

/// Filter inputs dominated by identical boxes: a few (qbeg, len) templates,
/// each copied at many loci, plus multi-seed chains that give groups of
/// distinct weights overlapping the same query span.
std::vector<Chain> random_box_chains(util::Xoshiro256ss& rng, idx_t l_pac) {
  std::vector<Chain> chains;
  // One shape in three leads with a lone full-length chain that dominates
  // the short copies after it (each drop revives one as a kept == 1
  // shadow); the rest draw every template at random.
  const bool lone_lead = rng.chance(0.35);
  for (int t = pick(rng, 1, 8) + lone_lead; t > 0; --t) {
    // A template: a query box made of one to three collinear seeds, copied
    // once (a lone chain) or at up to hundreds of loci.
    const bool lead = lone_lead && t == 1;
    std::vector<Seed> shape;
    const int qbeg = lead ? 0 : pick(rng, 0, 80);
    const int max_len = std::max(10, std::min(lone_lead ? 45 : 101, 101 - qbeg));
    const int len = lead ? 101 : pick(rng, 10, max_len);
    shape.push_back({0, qbeg, len, len});
    for (int k = lead || rng.chance(0.6) ? 0 : pick(rng, 1, 2); k > 0; --k) {
      const Seed& last = shape.back();
      const int gap = pick(rng, 0, 10);
      const int l = pick(rng, 5, 30);
      shape.push_back({last.rbeg + last.len + gap, last.qbeg + last.len + gap, l, l});
    }
    const int copies = lead || rng.chance(0.4) ? 1 : pick(rng, 2, rng.chance(0.5) ? 300 : 20);
    for (int i = 0; i < copies; ++i) {
      Chain c;
      c.rid = static_cast<int>(rng.below(2));
      c.frac_rep = static_cast<float>(rng.below(4)) / 4;
      const idx_t rbeg =
          static_cast<idx_t>(rng.below(static_cast<std::uint64_t>(2 * l_pac - 300)));
      c.pos = rng.chance(0.1) && !chains.empty() ? chains.back().pos : rbeg;  // pos ties
      for (Seed sd : shape) {
        sd.rbeg += rbeg;
        c.seeds.push_back(sd);
      }
      chains.push_back(std::move(c));
    }
  }
  std::shuffle(chains.begin(), chains.end(), rng);
  return chains;
}

void expect_chains_equal(const std::vector<Chain>& got,
                         const std::vector<Chain>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("chain " + std::to_string(i));
    EXPECT_EQ(got[i].pos, want[i].pos);
    EXPECT_EQ(got[i].rid, want[i].rid);
    EXPECT_EQ(got[i].weight, want[i].weight);
    EXPECT_EQ(got[i].kept, want[i].kept);
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_EQ(got[i].frac_rep, want[i].frac_rep);
    EXPECT_EQ(got[i].seeds, want[i].seeds);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(ChainOracle, BuildChainsMatchesReference) {
  const auto& ref = small_ref();
  const idx_t l_pac = ref.length();
  int nudged = 0, both_strands = 0, both_contigs = 0;
  for_each_case(kCases, [&](std::uint64_t seed) {
    util::Xoshiro256ss rng(seed);
    const auto seeds = random_seeds(rng, l_pac);
    const ChainOptions opt = random_chain_options(rng);
    const double frac_rep = rng.uniform();
    const auto got = chain::build_chains(ref, l_pac, seeds, 150, opt, frac_rep);
    expect_chains_equal(got, oracle::build_chains(ref, l_pac, seeds, 150, opt, frac_rep));
    bool dup = false, fwd = false, rev = false, rid0 = false, rid1 = false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      dup |= i > 0 && got[i].pos == got[i - 1].pos;  // key-nudged duplicate
      (got[i].pos < l_pac ? fwd : rev) = true;
      (got[i].rid == 0 ? rid0 : rid1) = true;
    }
    nudged += dup;
    both_strands += fwd && rev;
    both_contigs += rid0 && rid1;
  });
  if (!oracle_seed::g_have_replay) {
    EXPECT_GT(nudged, kCases / 4);
    EXPECT_GT(both_strands, kCases / 4);
    EXPECT_GT(both_contigs, kCases / 4);
  }
}

TEST(ChainOracle, FilterChainsMatchesReferenceOnBuiltChains) {
  const auto& ref = small_ref();
  const idx_t l_pac = ref.length();
  for_each_case(kCases, [&](std::uint64_t seed) {
    util::Xoshiro256ss rng(seed);
    const auto seeds = random_seeds(rng, l_pac);
    const ChainOptions opt = random_chain_options(rng);
    auto got = oracle::build_chains(ref, l_pac, seeds, 150, opt, 0.25);
    auto want = got;
    chain::filter_chains(got, opt);
    oracle::filter_chains(want, opt);
    expect_chains_equal(got, want);
  });
}

TEST(ChainOracle, FilterChainsMatchesReferenceOnIdenticalBoxes) {
  const idx_t l_pac = small_ref().length();
  int many = 0, revived = 0;
  for_each_case(kCases, [&](std::uint64_t seed) {
    util::Xoshiro256ss rng(seed);
    auto got = random_box_chains(rng, l_pac);
    const ChainOptions opt = random_chain_options(rng);
    auto want = got;
    chain::filter_chains(got, opt);
    oracle::filter_chains(want, opt);
    expect_chains_equal(got, want);
    if (got.size() >= 100) ++many;
    // A dominated chain was dropped and revived as its dominator's first
    // shadow (kept == 1), while the dominator's group had later members
    // still pending.
    revived += std::any_of(got.begin(), got.end(),
                           [](const Chain& c) { return c.kept == 1; });
  });
  if (!oracle_seed::g_have_replay) {
    EXPECT_GT(many, kCases / 10) << "generator lost its hundreds-of-boxes shape";
    EXPECT_GT(revived, kCases / 10);
  }
}

TEST(ChainOracle, FilterChainsEdgeCases) {
  ChainOptions opt;
  std::vector<Chain> none;
  chain::filter_chains(none, opt);
  EXPECT_TRUE(none.empty());

  // Everything under min_chain_weight.
  Chain c;
  c.seeds = {{100, 0, 20, 20}};
  std::vector<Chain> light = {c, c};
  opt.min_chain_weight = 21;
  chain::filter_chains(light, opt);
  EXPECT_TRUE(light.empty());

  // max_chain_extend = 0 drops every partial chain but keeps the primary.
  opt = ChainOptions{};
  opt.max_chain_extend = 0;
  std::vector<Chain> same(5, c);
  for (std::size_t i = 0; i < same.size(); ++i) same[i].seeds[0].rbeg = 100 + 1000 * static_cast<idx_t>(i);
  auto want = same;
  chain::filter_chains(same, opt);
  oracle::filter_chains(want, opt);
  expect_chains_equal(same, want);
  EXPECT_EQ(same.size(), 1u);
}

std::vector<AlnReg> random_regions(util::Xoshiro256ss& rng) {
  const int n_loci = pick(rng, 1, 30);
  std::vector<idx_t> loci;
  for (int l = 0; l < n_loci; ++l) loci.push_back(static_cast<idx_t>(rng.below(20000)));
  const int n = pick(rng, 0, 400);
  std::vector<AlnReg> regs;
  for (int i = 0; i < n; ++i) {
    AlnReg r;
    if (!regs.empty() && rng.chance(0.1)) {
      r = regs[rng.below(regs.size())];  // exact duplicate geometry
      r.score = pick(rng, 20, 101);
    } else {
      const int qlen = pick(rng, 1, 101);
      r.qb = pick(rng, 0, 101 - qlen);
      r.qe = r.qb + qlen;
      r.rb = loci[rng.below(loci.size())] + pick(rng, -30, 30);
      r.re = r.rb + qlen + pick(rng, -3, 3);
      if (r.re <= r.rb) r.re = r.rb + 1;
      r.rid = static_cast<int>(rng.below(2));
      r.score = pick(rng, 20, 101);
      r.truesc = r.score;
      r.seedlen0 = pick(rng, 19, 60);
      r.w = 100;
    }
    r.sub = static_cast<int>(regs.size());  // identity tag for the comparison
    regs.push_back(r);
  }
  return regs;
}

TEST(RegionOracle, SortDedupMatchesReference) {
  int replaced_then_overlapped = 0;
  for_each_case(kCases, [&](std::uint64_t seed) {
    util::Xoshiro256ss rng(seed);
    auto got = random_regions(rng);
    align::MemOptions opt;
    if (rng.chance(0.5)) opt.mask_level_redun = static_cast<float>(0.3 + 0.7 * rng.uniform());
    auto want = got;
    align::sort_dedup_regions(got, opt);
    oracle::sort_dedup_regions(want, opt);
    ASSERT_EQ(got, want);
    // A survivor that is a later region written over an earlier slot (k = r)
    // and still sits among later kept neighbours.
    for (std::size_t i = 0; i + 1 < got.size(); ++i)
      if (got[i].sub > got[i + 1].sub && got[i].rb + 1 < got[i + 1].re) {
        ++replaced_then_overlapped;
        break;
      }
  });
  if (!oracle_seed::g_have_replay) {
    EXPECT_GT(replaced_then_overlapped, kCases / 10);
  }
}

/// A repeat-dense genome and reads from it: real chains with hundreds of
/// equal-weight members, so containment tests see many candidate regions.
struct RepeatFixture {
  index::Mem2Index index;
  std::vector<seq::Read> reads;
  align::MemOptions opt;

  RepeatFixture() {
    seq::GenomeConfig g;
    g.seed = 99;
    g.contig_lengths = {40000, 20000};
    g.repeat_families = 1;
    g.repeat_element_len = 250;
    g.repeat_fraction = 1.1;
    g.repeat_divergence = 0.001;
    index = index::Mem2Index::build(seq::simulate_genome(g));
    seq::ReadSimConfig rc;
    rc.seed = 17;
    rc.num_reads = 24;
    rc.read_length = 101;
    reads = seq::simulate_reads(index.ref(), rc);
  }

  std::vector<Chain> chains_of(std::span<const seq::Code> q) const {
    smem::SmemWorkspace ws;
    std::vector<smem::Smem> smems;
    std::vector<Seed> seeds;
    smem::collect_smems(index.fm32(), q, opt.seeding, smems, ws,
                        util::PrefetchPolicy{true});
    chain::seeds_from_smems_batched(smems, opt.chaining, index.flat_sa(), seeds);
    auto chains = chain::build_chains(index.ref(), index.l_pac(), seeds,
                                      static_cast<int>(q.size()), opt.chaining, 0.0);
    chain::filter_chains(chains, opt.chaining);
    return chains;
  }
};

TEST(RegionOracle, ProcessChainsContainmentMatchesReference) {
  const RepeatFixture fx;
  std::size_t max_chains = 0;
  for (std::size_t r = 0; r < fx.reads.size(); ++r) {
    SCOPED_TRACE("read " + std::to_string(r));
    std::vector<seq::Code> q;
    for (char ch : fx.reads[r].bases) q.push_back(seq::char_to_code(ch));
    const std::vector<seq::Code> q_rev(q.rbegin(), q.rend());
    const align::ExtendContext ctx{fx.opt, fx.index, q, q_rev};
    const auto chains = fx.chains_of(q);
    max_chains = std::max(max_chains, chains.size());
    align::ScalarSource src(fx.opt.ksw);

    std::vector<AlnReg> got, want;
    align::process_chains(ctx, chains, src, got);
    oracle::process_chains(ctx, chains, src, want);
    ASSERT_EQ(got, want);

    // Regions present on entry take part in the containment test too.
    const std::size_t half = chains.size() / 2;
    const std::span<const Chain> tail(chains.data() + half, chains.size() - half);
    std::vector<AlnReg> got2(want.begin(), want.begin() + static_cast<std::ptrdiff_t>(want.size() / 2));
    std::vector<AlnReg> want2 = got2;
    align::process_chains(ctx, tail, src, got2);
    oracle::process_chains(ctx, tail, src, want2);
    ASSERT_EQ(got2, want2);

    align::sort_dedup_regions(got, fx.opt);
    oracle::sort_dedup_regions(want, fx.opt);
    ASSERT_EQ(got, want);
  }
  EXPECT_GE(max_chains, 100u) << "fixture lost its repeat load";
}

}  // namespace
}  // namespace mem2

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--seed=", 0) == 0) {
      mem2::oracle_seed::g_replay = std::strtoull(argv[i] + 7, nullptr, 0);
      mem2::oracle_seed::g_have_replay = true;
      std::printf("replaying case seed %llu\n",
                  static_cast<unsigned long long>(mem2::oracle_seed::g_replay));
    }
  }
  return RUN_ALL_TESTS();
}
