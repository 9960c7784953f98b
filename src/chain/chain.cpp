#include "chain/chain.h"

#include <algorithm>

namespace mem2::chain {

int interval_rid(const seq::Reference& ref, idx_t l_pac, idx_t rbeg, idx_t len) {
  idx_t fb = rbeg, fe = rbeg + len;
  if (fb < l_pac && fe > l_pac) return -1;  // crosses the strand boundary
  if (fb >= l_pac) {
    // Map the reverse-strand interval to forward coordinates.
    const idx_t b = 2 * l_pac - fe;
    const idx_t e = 2 * l_pac - fb;
    fb = b;
    fe = e;
  }
  if (fb < 0 || fe > ref.length()) return -1;
  auto [rid, off] = ref.locate(fb);
  (void)off;
  const auto& c = ref.contigs()[static_cast<std::size_t>(rid)];
  return fe <= c.offset + c.length ? rid : -1;
}

void seeds_from_smems_batched(std::span<const smem::Smem> smems,
                              const ChainOptions& opt,
                              const index::FlatSA& sa,
                              std::vector<Seed>& out) {
  // Pass 1: sampled rows, parked in the rbeg slots they will resolve into.
  seeds_from_smems(smems, opt, [](idx_t row) { return row; }, out);

  // Pass 2: wave-prefetched gather.
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n && i < kSalWave; ++i)
    sa.prefetch(out[i].rbeg);
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kSalWave < n) sa.prefetch(out[i + kSalWave].rbeg);
    out[i].rbeg = sa.lookup(out[i].rbeg);
  }
}

double repetitive_fraction(std::span<const smem::Smem> smems, int l_query,
                           int max_occ) {
  // Union length of query intervals whose SA interval exceeds max_occ
  // (smems are sorted by qb).
  std::int64_t l_rep = 0;
  int b = 0, e = 0;
  for (const auto& m : smems) {
    if (m.bi.s <= max_occ) continue;
    if (m.qb > e) {
      l_rep += e - b;
      b = m.qb;
      e = m.qe;
    } else {
      e = std::max(e, m.qe);
    }
  }
  l_rep += e - b;
  return l_query > 0 ? static_cast<double>(l_rep) / l_query : 0.0;
}

namespace {

// A chain under construction: its seeds are a list of input indices
// threaded through `next`.  bwa's merge test reads only a chain's first and
// last seed, so building touches no per-chain heap memory.
struct Building {
  int rid;
  std::uint32_t head, tail;  // first / last seed (input indices)
  std::uint32_t count;
};

// bwa test_and_merge: try to append seed p (input index) to chain c;
// returns true if the seed was merged (or is contained) and false if a new
// chain is needed.
bool test_and_merge(const ChainOptions& opt, idx_t l_pac,
                    std::span<const Seed> seeds, std::vector<std::uint32_t>& next,
                    Building& c, std::uint32_t pi, int seed_rid) {
  if (seed_rid != c.rid) return false;
  const Seed& p = seeds[pi];
  const Seed& front = seeds[c.head];
  const Seed& last = seeds[c.tail];
  const idx_t qend = last.qbeg + last.len;
  const idx_t rend = last.rbeg + last.len;
  if (p.qbeg >= front.qbeg && p.qbeg + p.len <= qend &&
      p.rbeg >= front.rbeg && p.rbeg + p.len <= rend)
    return true;  // contained seed; do nothing
  if ((front.rbeg < l_pac || last.rbeg < l_pac) && p.rbeg >= l_pac)
    return false;  // different strands
  const idx_t x = p.qbeg - last.qbeg;  // non-negative (seed order)
  const idx_t y = p.rbeg - last.rbeg;
  if (y >= 0 && x - y <= opt.w && y - x <= opt.w &&
      x - last.len < opt.max_chain_gap && y - last.len < opt.max_chain_gap) {
    next[c.tail] = pi;
    c.tail = pi;
    ++c.count;
    return true;
  }
  return false;
}

}  // namespace

std::vector<Chain> build_chains(const seq::Reference& ref, idx_t l_pac,
                                std::span<const Seed> seeds, int l_query,
                                const ChainOptions& opt, double frac_rep) {
  (void)l_query;
  // bwa keeps chains in a btree keyed by chain pos; the lower bound of a
  // seed's rbeg is the merge candidate.  Here compact chain records stay
  // put in creation order and a flat key-sorted vector of (key, chain
  // index) pairs answers the lower-bound query, including the minimal
  // duplicate-key nudge.  Repeat reads create hundreds of chains, so an
  // insert shifts 16-byte pairs, and Chain objects (one seed allocation
  // each, sized exactly) are made once, in key order, at the end.
  struct Slot {
    idx_t key;
    std::uint32_t chain;
  };
  std::vector<Building> made;
  std::vector<Slot> tree;
  std::vector<std::uint32_t> next(seeds.size());
  made.reserve(seeds.size());
  tree.reserve(seeds.size());
  const auto key_less = [](const Slot& e, idx_t key) { return e.key < key; };
  for (std::uint32_t i = 0; i < seeds.size(); ++i) {
    const Seed& s = seeds[i];
    const int rid = interval_rid(ref, l_pac, s.rbeg, s.len);
    if (rid < 0) continue;  // crosses a boundary: discarded (as in bwa)
    // upper_bound(s.rbeg) then step back = last entry with key <= s.rbeg.
    auto it = std::lower_bound(tree.begin(), tree.end(), s.rbeg + 1, key_less);
    if (it != tree.begin() &&
        test_and_merge(opt, l_pac, seeds, next, made[std::prev(it)->chain], i, rid))
      continue;
    // Duplicate key: bwa's btree keeps both; nudge the key minimally.
    idx_t key = s.rbeg;
    auto pos = it;
    while (pos != tree.begin() && std::prev(pos)->key == key) --pos;
    while (pos != tree.end() && pos->key == key) ++key, ++pos;
    tree.insert(pos, Slot{key, static_cast<std::uint32_t>(made.size())});
    made.push_back({rid, i, i, 1});
  }
  std::vector<Chain> chains(tree.size());
  for (std::size_t k = 0; k < tree.size(); ++k) {
    const Building& b = made[tree[k].chain];
    Chain& c = chains[k];
    c.pos = seeds[b.head].rbeg;
    c.rid = b.rid;
    c.frac_rep = static_cast<float>(frac_rep);
    c.seeds.reserve(b.count);
    for (std::uint32_t j = b.head, n = 0; n < b.count; ++n, j = next[j])
      c.seeds.push_back(seeds[j]);
  }
  return chains;
}

int chain_weight(const Chain& c) {
  std::int64_t end = 0;
  int w_query = 0;
  for (const Seed& s : c.seeds) {
    if (s.qbeg >= end)
      w_query += s.len;
    else if (s.qbeg + s.len > end)
      w_query += static_cast<int>(s.qbeg + s.len - end);
    end = std::max<std::int64_t>(end, s.qbeg + s.len);
  }
  int w_ref = 0;
  end = 0;
  for (const Seed& s : c.seeds) {
    if (s.rbeg >= end)
      w_ref += s.len;
    else if (s.rbeg + s.len > end)
      w_ref += static_cast<int>(s.rbeg + s.len - end);
    end = std::max<std::int64_t>(end, s.rbeg + s.len);
  }
  return std::min(w_query, w_ref);
}

namespace {

int chn_beg(const Chain& c) { return c.seeds.front().qbeg; }
int chn_end(const Chain& c) {
  return c.seeds.back().qbeg + c.seeds.back().len;
}

}  // namespace

void filter_chains(std::vector<Chain>& chains, const ChainOptions& opt) {
  // Weight every chain, drop the underweight ones, and rank the rest by
  // weight desc (ties: pos, query begin, then input order — a stable sort).
  // The overlap pass below reads only each chain's query box and weight, so
  // it runs on these compact records indexed by rank; Chain objects move
  // once, at the end, and only if kept.
  struct Box {
    int beg, end, weight;
    bool operator==(const Box&) const = default;
  };
  struct Ranked {
    Box box;
    idx_t pos;
    std::uint32_t idx;
  };
  std::vector<Ranked> order;
  order.reserve(chains.size());
  for (std::size_t i = 0; i < chains.size(); ++i) {
    Chain& c = chains[i];
    c.first = -1;
    c.kept = 0;
    c.weight = chain_weight(c);
    if (c.weight >= opt.min_chain_weight)
      order.push_back({{chn_beg(c), chn_end(c), c.weight}, c.pos,
                       static_cast<std::uint32_t>(i)});
  }
  if (order.empty()) {
    chains.clear();
    return;
  }
  std::sort(order.begin(), order.end(), [](const Ranked& a, const Ranked& b) {
    if (a.box.weight != b.box.weight) return a.box.weight > b.box.weight;
    if (a.pos != b.pos) return a.pos < b.pos;
    if (a.box.beg != b.box.beg) return a.box.beg < b.box.beg;
    return a.idx < b.idx;
  });

  // bwa tests chain i against every kept chain j < i in rank order: a large
  // query overlap sets j.first = i if unset, and the first overlapping j
  // that dominates i drops it.  Both tests depend on j only through its
  // (beg, end, weight) box, so kept chains with identical boxes form one
  // group and chain i is tested once per group.  A group's members with
  // first < 0 wait in a rank-ordered list threaded through `next`; the
  // members that bwa would visit before its break (rank <= the lowest
  // dominating rank) are exactly a prefix of that list.
  const int n = static_cast<int>(order.size());
  struct Group {
    Box box;
    int head_rank;      // lowest member rank (where bwa would break)
    int pending = -1;   // members with first < 0, oldest first
    int pending_tail = -1;
  };
  std::vector<int> kept(static_cast<std::size_t>(n), 0);
  std::vector<int> first(static_cast<std::size_t>(n), -1);
  std::vector<int> next(static_cast<std::size_t>(n), -1);
  std::vector<Group> groups;
  const auto join = [&](int r) {
    const Box& b = order[static_cast<std::size_t>(r)].box;
    auto g = std::find_if(groups.begin(), groups.end(),
                          [&](const Group& x) { return x.box == b; });
    if (g == groups.end()) g = groups.insert(g, Group{b, r});
    if (g->pending_tail < 0)
      g->pending = r;
    else
      next[static_cast<std::size_t>(g->pending_tail)] = r;
    g->pending_tail = r;
  };
  const auto large_overlap = [&](const Box& j, const Box& i) {
    const int b_max = std::max(j.beg, i.beg);
    const int e_min = std::min(j.end, i.end);
    if (e_min <= b_max) return false;
    const int min_l = std::min(i.end - i.beg, j.end - j.beg);
    return e_min - b_max >= min_l * opt.mask_level && min_l < opt.max_chain_gap;
  };

  kept[0] = 3;
  join(0);
  for (int i = 1; i < n; ++i) {
    const Box& bi = order[static_cast<std::size_t>(i)].box;
    bool large_ovlp = false;
    int break_rank = i;  // lowest rank of a dominating overlapping chain
    for (const Group& g : groups) {
      if (!large_overlap(g.box, bi)) continue;
      large_ovlp = true;
      if (bi.weight < g.box.weight * opt.drop_ratio &&
          g.box.weight - bi.weight >= opt.min_seed_len * 2)
        break_rank = std::min(break_rank, g.head_rank);
    }
    if (!large_ovlp) {
      kept[static_cast<std::size_t>(i)] = 3;
      join(i);
      continue;
    }
    for (Group& g : groups) {
      if (!large_overlap(g.box, bi)) continue;
      while (g.pending >= 0 && g.pending <= break_rank) {
        first[static_cast<std::size_t>(g.pending)] = i;
        g.pending = next[static_cast<std::size_t>(g.pending)];
      }
      if (g.pending < 0) g.pending_tail = -1;
    }
    if (break_rank == i) {
      kept[static_cast<std::size_t>(i)] = 2;
      join(i);
    }
  }
  // Keep the first shadowed chain of each kept chain (mapq accuracy).
  for (int r = 0; r < n; ++r) {
    const int f = first[static_cast<std::size_t>(r)];
    if (f >= 0 && kept[static_cast<std::size_t>(f)] == 0)
      kept[static_cast<std::size_t>(f)] = 1;
  }
  // Cap the number of partial (kept==2) chains, then emit the kept chains
  // in rank order (first still refers to ranks, as in bwa).
  int n_partial = 0;
  std::vector<Chain> out;
  for (int r = 0; r < n; ++r) {
    int& k = kept[static_cast<std::size_t>(r)];
    if (k == 2 && ++n_partial > opt.max_chain_extend) k = 0;
    if (!k) continue;
    Chain& c = out.emplace_back(std::move(chains[order[static_cast<std::size_t>(r)].idx]));
    c.kept = k;
    c.first = first[static_cast<std::size_t>(r)];
  }
  chains = std::move(out);
}

}  // namespace mem2::chain
