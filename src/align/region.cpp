#include "align/region.h"

#include <algorithm>
#include <cmath>

namespace mem2::align {

void sort_dedup_regions(std::vector<AlnReg>& regs, const MemOptions& opt) {
  if (regs.size() <= 1) return;
  std::stable_sort(regs.begin(), regs.end(), [](const AlnReg& a, const AlnReg& b) {
    if (a.rb != b.rb) return a.rb < b.rb;
    if (a.re != b.re) return a.re < b.re;
    if (a.qb != b.qb) return a.qb < b.qb;
    return a.qe < b.qe;
  });
  // Drop a region when a neighbour covers (mask_level_redun) of it on both
  // query and reference with a better-or-equal score.  Regions arrive in rb
  // order, so a kept region ending at or before r.rb can neither overlap r
  // nor any later region: it leaves the scan (`live`, in kept order) for
  // good, which keeps repeat reads with hundreds of disjoint regions linear.
  std::vector<AlnReg> kept;
  std::vector<std::uint32_t> live;
  kept.reserve(regs.size());
  for (const auto& r : regs) {
    bool redundant = false;
    std::size_t n_live = 0;
    for (const std::uint32_t ki : live) {
      AlnReg& k = kept[ki];
      if (k.re <= r.rb) continue;  // retired
      live[n_live++] = ki;
      if (redundant || k.rid != r.rid) continue;
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
      }
    }
    live.resize(n_live);
    if (!redundant) {
      live.push_back(static_cast<std::uint32_t>(kept.size()));
      kept.push_back(r);
    }
  }
  regs = std::move(kept);
}

void mark_primary(std::vector<AlnReg>& regs, const MemOptions& opt) {
  if (regs.empty()) return;
  std::stable_sort(regs.begin(), regs.end(), [](const AlnReg& a, const AlnReg& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.rb != b.rb) return a.rb < b.rb;
    return a.qb < b.qb;
  });

  const int tmp = std::max({opt.ksw.a + opt.ksw.b, opt.ksw.o_del + opt.ksw.e_del,
                            opt.ksw.o_ins + opt.ksw.e_ins});
  std::vector<std::size_t> primaries = {0};
  regs[0].secondary = -1;
  for (std::size_t i = 1; i < regs.size(); ++i) {
    regs[i].secondary = -1;
    std::size_t k = 0;
    for (; k < primaries.size(); ++k) {
      AlnReg& p = regs[primaries[k]];
      const int b_max = std::max(p.qb, regs[i].qb);
      const int e_min = std::min(p.qe, regs[i].qe);
      if (e_min > b_max) {
        const int min_l = std::min(p.qe - p.qb, regs[i].qe - regs[i].qb);
        if (e_min - b_max >= min_l * opt.chaining.mask_level) {
          if (p.sub == 0) p.sub = regs[i].score;
          if (p.score - regs[i].score <= tmp) ++p.sub_n;
          break;
        }
      }
    }
    if (k == primaries.size())
      primaries.push_back(i);
    else
      regs[i].secondary = static_cast<int>(primaries[k]);
  }
}

int approx_mapq(const AlnReg& a, const MemOptions& opt) {
  int sub = a.sub ? a.sub : opt.seeding.min_seed_len * opt.ksw.a;
  sub = std::max(sub, a.csub);
  if (sub >= a.score) return 0;
  const int l = std::max(a.qe - a.qb, static_cast<int>(a.re - a.rb));
  const double identity =
      1.0 - static_cast<double>(l * opt.ksw.a - a.score) / (opt.ksw.a + opt.ksw.b) / l;
  int mapq;
  if (a.score == 0) {
    mapq = 0;
  } else if (opt.mapq_coef_len > 0) {
    double t = l < opt.mapq_coef_len ? 1.0 : opt.mapq_coef_fac / std::log(l);
    t *= identity * identity;
    mapq = static_cast<int>(6.02 * (a.score - sub) / opt.ksw.a * t * t + .499);
  } else {  // bwa's seed-coverage model (MEM_MAPQ_COEF = 30)
    mapq = static_cast<int>(30.0 * (1.0 - static_cast<double>(sub) / a.score) *
                                std::log(std::max(a.seedcov, 1)) + .499);
    if (identity < 0.95) mapq = static_cast<int>(mapq * identity * identity + .499);
  }
  if (a.sub_n > 0) mapq -= static_cast<int>(4.343 * std::log(a.sub_n + 1) + .499);
  mapq = std::clamp(mapq, 0, 60);
  return static_cast<int>(mapq * (1.0 - a.frac_rep) + .499);
}

}  // namespace mem2::align
