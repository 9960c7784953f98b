#include "align/extend.h"

#include <algorithm>

namespace mem2::align {

ChainRef chain_window(const ExtendContext& ctx, const chain::Chain& chain) {
  const MemOptions& opt = ctx.opt;
  const idx_t l_pac = ctx.index.l_pac();
  const int l_query = static_cast<int>(ctx.query.size());

  ChainRef cref;
  cref.rmax0 = l_pac * 2;
  cref.rmax1 = 0;
  for (const auto& t : chain.seeds) {
    const idx_t b = t.rbeg - (t.qbeg + opt.cal_max_gap(t.qbeg));
    const idx_t e = t.rbeg + t.len +
                    ((l_query - t.qbeg - t.len) + opt.cal_max_gap(l_query - t.qbeg - t.len));
    cref.rmax0 = std::min(cref.rmax0, b);
    cref.rmax1 = std::max(cref.rmax1, e);
  }
  cref.rmax0 = std::max<idx_t>(cref.rmax0, 0);
  cref.rmax1 = std::min<idx_t>(cref.rmax1, l_pac * 2);
  if (cref.rmax0 < l_pac && l_pac < cref.rmax1) {
    // Crossing the strand boundary: keep the side of the first seed.
    if (chain.seeds.front().rbeg < l_pac)
      cref.rmax1 = l_pac;
    else
      cref.rmax0 = l_pac;
  }
  // Truncate to the contig of the first seed (bns_fetch_seq semantics).
  {
    const idx_t mid = chain.seeds.front().rbeg;
    const bool rev = mid >= l_pac;
    const idx_t fwd_mid = rev ? 2 * l_pac - 1 - mid : mid;
    const auto [rid, off] = ctx.index.ref().locate(fwd_mid);
    (void)off;
    const auto& contig = ctx.index.ref().contigs()[static_cast<std::size_t>(rid)];
    if (!rev) {
      cref.rmax0 = std::max(cref.rmax0, contig.offset);
      cref.rmax1 = std::min(cref.rmax1, contig.offset + contig.length);
    } else {
      cref.rmax0 = std::max(cref.rmax0, 2 * l_pac - (contig.offset + contig.length));
      cref.rmax1 = std::min(cref.rmax1, 2 * l_pac - contig.offset);
    }
  }
  return cref;
}

void fetch_chain_window(const index::Mem2Index& index, ChainRef& cref,
                        seq::Code* buf) {
  const std::size_t n = cref.size();
  index.fetch(cref.rmax0, cref.rmax1, buf, buf + n);
  cref.rseq = {buf, n};
  cref.rseq_rev = {buf + n, n};
}

ChainRef make_chain_ref(const ExtendContext& ctx, const chain::Chain& chain,
                        std::vector<seq::Code>& storage) {
  ChainRef cref = chain_window(ctx, chain);
  storage.resize(2 * cref.size());
  fetch_chain_window(ctx.index, cref, storage.data());
  return cref;
}

bsw::ExtendJob make_left_job(const ExtendContext& ctx, const ChainRef& cref,
                             const chain::Seed& s, int band) {
  const int l_query = static_cast<int>(ctx.query.size());
  const idx_t tmp = s.rbeg - cref.rmax0;
  bsw::ExtendJob job;
  job.query = ctx.query_rev.data() + (l_query - s.qbeg);  // rev(query[0,qbeg))
  job.qlen = s.qbeg;
  job.target = cref.rseq_rev.data() +
               (static_cast<idx_t>(cref.rseq_rev.size()) - tmp);  // rev(rseq[0,tmp))
  job.tlen = static_cast<int>(tmp);
  job.h0 = s.len * ctx.opt.ksw.a;
  job.w = band;
  return job;
}

bsw::ExtendJob make_right_job(const ExtendContext& ctx, const ChainRef& cref,
                              const chain::Seed& s, int band, int h0) {
  const int l_query = static_cast<int>(ctx.query.size());
  const int qe = s.qbeg + s.len;
  const idx_t re = s.rbeg + s.len - cref.rmax0;
  bsw::ExtendJob job;
  job.query = ctx.query.data() + qe;
  job.qlen = l_query - qe;
  job.target = cref.rseq.data() + re;
  job.tlen = static_cast<int>(cref.rmax1 - cref.rmax0 - re);
  job.h0 = h0;
  job.w = band;
  return job;
}

void process_chains(const ExtendContext& ctx,
                    std::span<const chain::Chain> chains,
                    SeedExtendSource& source, std::vector<AlnReg>& regs) {
  const MemOptions& opt = ctx.opt;
  const int l_query = static_cast<int>(ctx.query.size());

  // Containment side index: regions as (rb, index) sorted by rb.  A region
  // containing seed s has rb <= s.rbeg and re >= s.rbeg + s.len, so only
  // regions with rb in [s.rbeg + s.len - max_span, s.rbeg] can qualify.
  std::vector<std::pair<idx_t, std::uint32_t>> by_rb;
  idx_t max_span = 0;
  const auto index_region = [&](std::size_t i) {
    const AlnReg& p = regs[i];
    const std::pair<idx_t, std::uint32_t> e{p.rb, static_cast<std::uint32_t>(i)};
    by_rb.insert(std::upper_bound(by_rb.begin(), by_rb.end(), e), e);
    max_span = std::max(max_span, p.re - p.rb);
  };
  for (std::size_t i = 0; i < regs.size(); ++i) index_region(i);
  // bwa's test: some region contains the seed and the seed lies near its
  // diagonal, so extending it cannot yield a better alignment.
  const auto contained = [&](const chain::Seed& s) {
    auto it = std::lower_bound(
        by_rb.begin(), by_rb.end(),
        std::pair<idx_t, std::uint32_t>{s.rbeg + s.len - max_span, 0});
    for (; it != by_rb.end() && it->first <= s.rbeg; ++it) {
      const AlnReg& p = regs[it->second];
      if (s.rbeg < p.rb || s.rbeg + s.len > p.re || s.qbeg < p.qb ||
          s.qbeg + s.len > p.qe)
        continue;  // not fully contained
      if (s.len - p.seedlen0 > .1 * l_query) continue;  // may yield a better aln
      // Region ahead of the seed.
      int qd = s.qbeg - p.qb;
      idx_t rd = s.rbeg - p.rb;
      int max_gap = opt.cal_max_gap(static_cast<int>(std::min<idx_t>(qd, rd)));
      int w = std::min(max_gap, p.w);
      if (qd - rd < w && rd - qd < w) return true;  // seed is around the hit
      // Region behind the seed.
      qd = p.qe - (s.qbeg + s.len);
      rd = p.re - (s.rbeg + s.len);
      max_gap = opt.cal_max_gap(static_cast<int>(std::min<idx_t>(qd, rd)));
      w = std::min(max_gap, p.w);
      if (qd - rd < w && rd - qd < w) return true;
    }
    return false;
  };

  std::vector<std::uint64_t> srt;
  std::vector<seq::Code> window;  // on-demand chain windows
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
    srt.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      srt[static_cast<std::size_t>(i)] =
          static_cast<std::uint64_t>(c.seeds[static_cast<std::size_t>(i)].score) << 32 |
          static_cast<std::uint32_t>(i);
    std::sort(srt.begin(), srt.end());

    for (int k = n - 1; k >= 0; --k) {
      const int seed_idx = static_cast<int>(static_cast<std::uint32_t>(srt[static_cast<std::size_t>(k)]));
      const chain::Seed& s = c.seeds[static_cast<std::size_t>(seed_idx)];

      if (contained(s)) {
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

      const auto run_side = [&](int side, int bt, const bsw::ExtendJob& job) {
        if (const auto r = empty_flank_result(job)) return *r;
        return source.extend(chain_idx, seed_idx, side, bt, job);
      };

      if (s.qbeg) {  // left extension
        bsw::KswResult r;
        for (int bt = 0; bt < kMaxBandTry; ++bt) {
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
        for (int bt = 0; bt < kMaxBandTry; ++bt) {
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
      index_region(regs.size() - 1);
    }
  }
}

}  // namespace mem2::align
