#include "pair/pairing.h"

#include <algorithm>
#include <cmath>

namespace mem2::pair {

using align::AlnReg;
using align::MemOptions;

int competing_sub(const MemOptions& opt, std::span<const AlnReg> regs) {
  // bwa cal_sub: walk down the score-sorted list until a region overlapping
  // the best one on the query is found; its score is the competing sub.
  for (std::size_t j = 1; j < regs.size(); ++j) {
    const int b_max = std::max(regs[j].qb, regs[0].qb);
    const int e_min = std::min(regs[j].qe, regs[0].qe);
    if (e_min > b_max) {  // have overlap
      const int min_l = std::min(regs[j].qe - regs[j].qb, regs[0].qe - regs[0].qb);
      if (e_min - b_max >= min_l * opt.chaining.mask_level)
        return regs[j].score;
    }
  }
  return opt.seeding.min_seed_len * opt.ksw.a;
}

bool pair_sample(const MemOptions& opt, const PairOptions& popt, idx_t l_pac,
                 std::span<const AlnReg> regs1, std::span<const AlnReg> regs2,
                 InsertSample* out) {
  if (regs1.empty() || regs2.empty()) return false;
  if (regs1[0].rid != regs2[0].rid) return false;  // not on the same contig
  if (competing_sub(opt, regs1) > popt.min_unique_ratio * regs1[0].score)
    return false;
  if (competing_sub(opt, regs2) > popt.min_unique_ratio * regs2[0].score)
    return false;
  idx_t dist = 0;
  out->dir = infer_dir(l_pac, regs1[0].rb, regs2[0].rb, &dist);
  out->dist = dist;
  return true;
}

namespace {

/// One pairing candidate entry (bwa's pair64_t v array): a primary region
/// of either mate, keyed by its forward-strand projected position.
struct PairEntry {
  idx_t x = 0;     // forward-projected start coordinate
  int score = 0;
  int idx = 0;     // region index within its mate's list
  bool rev = false;
  int read = 0;    // 0 = mate 1, 1 = mate 2
};

struct PairCandidate {
  int q = 0;       // pair score
  int k = 0, i = 0;  // entry indices (earlier, later)
};

/// bwa mem_pair ported onto flat vectors; ties break on entry order (NOT on
/// bwa's read-id hash, which would make output depend on global read index).
PairDecision mem_pair(const MemOptions& opt, const PairOptions& popt, idx_t l_pac,
                      const InsertStats& pes, std::span<const AlnReg> regs[2]) {
  PairDecision d;
  std::vector<PairEntry> v;
  for (int r = 0; r < 2; ++r)
    for (std::size_t i = 0; i < regs[r].size(); ++i) {
      const AlnReg& e = regs[r][i];
      if (e.secondary >= 0) continue;  // primaries only
      PairEntry ent;
      ent.rev = e.rb >= l_pac;
      ent.x = ent.rev ? 2 * l_pac - 1 - e.rb : e.rb;
      ent.score = e.score;
      ent.idx = static_cast<int>(i);
      ent.read = r;
      v.push_back(ent);
    }
  std::sort(v.begin(), v.end(), [](const PairEntry& a, const PairEntry& b) {
    if (a.x != b.x) return a.x < b.x;
    if (a.score != b.score) return a.score < b.score;
    if (a.read != b.read) return a.read < b.read;
    return a.idx < b.idx;
  });

  std::vector<PairCandidate> u;
  int last[4] = {-1, -1, -1, -1};  // last entry per (strand<<1 | read)
  for (int i = 0; i < static_cast<int>(v.size()); ++i) {
    const PairEntry& cur = v[static_cast<std::size_t>(i)];
    for (int r = 0; r < 2; ++r) {  // strand of the earlier mate
      const int dir = r << 1 | static_cast<int>(cur.rev);
      if (pes.dir[dir].failed) continue;
      const int which = r << 1 | (cur.read ^ 1);
      for (int k = last[which]; k >= 0; --k) {
        const PairEntry& prev = v[static_cast<std::size_t>(k)];
        if ((static_cast<int>(prev.rev) << 1 | prev.read) != which) continue;
        const idx_t dist = cur.x - prev.x;
        if (dist > pes.dir[dir].high) break;  // sorted: only grows further back
        if (dist < pes.dir[dir].low) continue;
        const double ns =
            (static_cast<double>(dist) - pes.dir[dir].mean) / pes.dir[dir].std;
        // .721 = 1/log(4): log-likelihood of the insert under the prior,
        // expressed in score units (bwa mem_pair).
        int q = static_cast<int>(
            prev.score + cur.score +
            .721 * std::log(2. * std::erfc(std::fabs(ns) * M_SQRT1_2)) *
                opt.ksw.a +
            .499);
        if (q < 0) q = 0;
        u.push_back({q, k, i});
      }
    }
    last[static_cast<int>(cur.rev) << 1 | cur.read] = i;
  }
  if (u.empty()) return d;

  std::sort(u.begin(), u.end(), [](const PairCandidate& a, const PairCandidate& b) {
    if (a.q != b.q) return a.q < b.q;
    if (a.k != b.k) return a.k < b.k;
    return a.i < b.i;
  });
  const PairCandidate& best = u.back();
  const PairEntry& ei = v[static_cast<std::size_t>(best.i)];
  const PairEntry& ek = v[static_cast<std::size_t>(best.k)];
  d.z[ei.read] = ei.idx;
  d.z[ek.read] = ek.idx;
  d.pair_score = best.q;
  d.pair_sub = u.size() > 1 ? u[u.size() - 2].q : 0;
  const int tmp = std::max({opt.ksw.a + opt.ksw.b, opt.ksw.o_del + opt.ksw.e_del,
                            opt.ksw.o_ins + opt.ksw.e_ins});
  d.n_sub = 0;
  for (std::size_t j = 0; j + 1 < u.size(); ++j)
    if (d.pair_sub - u[j].q <= tmp) ++d.n_sub;
  (void)popt;
  return d;
}

}  // namespace

PairDecision pair_and_score(const MemOptions& opt, const PairOptions& popt,
                            idx_t l_pac, const InsertStats& pes,
                            std::span<const AlnReg> regs1,
                            std::span<const AlnReg> regs2) {
  std::span<const AlnReg> regs[2] = {regs1, regs2};

  // A mate participates in pairing when it has at least one primary region.
  const bool has[2] = {!regs1.empty() && regs1[0].secondary < 0,
                       !regs2.empty() && regs2[0].secondary < 0};

  PairDecision d;
  if (has[0] && has[1] && pes.any()) {
    d = mem_pair(opt, popt, l_pac, pes, regs);
    if (d.pair_score > 0 && d.z[0] >= 0 && d.z[1] >= 0) {
      // bwa mem_sam_pe: refuse to force a pair when either end is
      // ambiguous (another primary above the output threshold).
      bool is_multi = false;
      for (int r = 0; r < 2 && !is_multi; ++r)
        for (std::size_t j = 1; j < regs[r].size(); ++j)
          if (regs[r][j].secondary < 0 && regs[r][j].score >= opt.min_out_score) {
            is_multi = true;
            break;
          }
      if (!is_multi) {
        const int score_un =
            regs1[0].score + regs2[0].score - popt.pen_unpaired;
        const int subo = std::max(d.pair_sub, score_un);
        if (d.pair_score > score_un) {  // paired interpretation wins
          d.proper = true;
          int q_pe = raw_mapq(d.pair_score - subo, opt.ksw.a);
          if (d.n_sub > 0)
            q_pe -= static_cast<int>(4.343 * std::log(d.n_sub + 1) + .499);
          q_pe = std::clamp(q_pe, 0, 60);
          q_pe = static_cast<int>(
              q_pe * (1. - .5 * (regs1[0].frac_rep + regs2[0].frac_rep)) + .499);
          for (int r = 0; r < 2; ++r) {
            const AlnReg& c = regs[r][static_cast<std::size_t>(d.z[r])];
            int q_se = approx_mapq(c, opt);
            q_se = q_se > q_pe ? q_se : std::min(q_pe, q_se + 40);
            q_se = std::min(q_se, raw_mapq(c.score - c.csub, opt.ksw.a));
            d.mapq[r] = std::clamp(q_se, 0, 60);
          }
          return d;
        }
      }
    }
  }

  // Unpaired interpretation: each mate keeps its best single-end primary,
  // subject to the usual -T output threshold (as in bwa's mem_reg2sam path).
  d.proper = false;
  d.pair_score = d.pair_sub = d.n_sub = 0;
  for (int r = 0; r < 2; ++r) {
    const bool out = has[r] && regs[r][0].score >= opt.min_out_score;
    d.z[r] = out ? 0 : -1;
    d.mapq[r] = out ? approx_mapq(regs[r][0], opt) : 0;
  }
  return d;
}

namespace {

/// Mate-side summary a record needs to fill RNEXT/PNEXT/TLEN and the mate
/// flag bits.
struct MateView {
  bool mapped = false;
  bool rev = false;
  int rid = -1;
  idx_t pos = 0;       // 1-based leftmost
  idx_t ref_end = 0;   // 1-based position of the last reference base
  const std::string* rname = nullptr;
};

void apply_mate_fields(io::SamRecord& rec, bool mapped_self, bool rev_self,
                       int rid_self, idx_t ref_end_self, const MateView& mate,
                       bool proper, bool read1) {
  rec.flag |= io::kFlagPaired | (read1 ? io::kFlagRead1 : io::kFlagRead2);
  if (proper) rec.flag |= io::kFlagProperPair;
  if (!mate.mapped) {
    rec.flag |= io::kFlagMateUnmapped;
    // Unmapped mate is placed at this record's own coordinate.
    if (mapped_self) {
      rec.rnext = '=';  // a char: GCC 12 -Wrestrict misfires on assigning "="
      rec.pnext = rec.pos;
    }
    return;
  }
  if (mate.rev) rec.flag |= io::kFlagMateReverse;
  if (!mapped_self) {
    // SAM convention: an unmapped read in a pair sits at its mate's locus.
    rec.rname = *mate.rname;
    rec.pos = mate.pos;
    rec.rnext = '=';
    rec.pnext = mate.pos;
    return;
  }
  rec.rnext = rec.rname == *mate.rname ? "=" : *mate.rname;
  rec.pnext = mate.pos;
  if (rid_self == mate.rid) {
    // bwa mem_aln2sam: signed outer distance between the two alignments'
    // "far" points; the leftmost mate gets the positive sign.
    const idx_t p0 = rev_self ? ref_end_self : rec.pos;
    const idx_t p1 = mate.rev ? mate.ref_end : mate.pos;
    rec.tlen = -(p0 - p1 + (p0 > p1 ? 1 : p0 < p1 ? -1 : 0));
  }
}

}  // namespace

void pair_to_sam(const align::ExtendContext& ctx1, const align::ExtendContext& ctx2,
                 const seq::Read& read1, const seq::Read& read2,
                 std::span<const AlnReg> regs1, std::span<const AlnReg> regs2,
                 const PairDecision& decision, std::vector<io::SamRecord>& out1,
                 std::vector<io::SamRecord>& out2) {
  const align::ExtendContext* ctx[2] = {&ctx1, &ctx2};
  const seq::Read* read[2] = {&read1, &read2};
  std::span<const AlnReg> regs[2] = {regs1, regs2};
  std::vector<io::SamRecord>* out[2] = {&out1, &out2};

  // Pass 1: build each mate's record list (primary first), remembering the
  // primary alignment geometry for the mate-field pass.
  MateView view[2];
  std::vector<io::SamRecord> recs[2];
  // ref_end (for TLEN) per record, parallel to recs[r].
  std::vector<idx_t> rec_ref_end[2];
  std::vector<char> rec_mapped[2];
  std::vector<char> rec_rev[2];
  std::vector<int> rec_rid[2];

  for (int r = 0; r < 2; ++r) {
    const align::MemOptions& opt = ctx[r]->opt;
    const int zi = decision.z[r];
    bool emitted_primary = false;
    auto emit = [&](const AlnReg& reg, bool primary) {
      const align::SamAln aln = align::region_to_aln(*ctx[r], reg);
      io::SamRecord rec;
      rec.qname = read[r]->name;
      rec.flag = 0;
      if (aln.rev) rec.flag |= io::kFlagReverse;
      if (reg.secondary >= 0)
        rec.flag |= io::kFlagSecondary;
      else if (!primary)
        rec.flag |= io::kFlagSupplementary;
      rec.rname =
          ctx[r]->index.ref().contigs()[static_cast<std::size_t>(aln.rid)].name;
      rec.pos = aln.pos + 1;
      rec.mapq = reg.secondary >= 0 ? 0
                 : primary          ? decision.mapq[r]
                                    : approx_mapq(reg, opt);
      rec.cigar = align::cigar_with_clips(aln);
      align::fill_seq_qual(*read[r], aln.rev, rec);
      rec.tags = {"NM:i:" + std::to_string(aln.nm),
                  "AS:i:" + std::to_string(reg.score),
                  "XS:i:" + std::to_string(reg.sub)};
      const idx_t ref_end = rec.pos + aln.ref_len() - 1;
      if (primary) {
        view[r].mapped = true;
        view[r].rev = aln.rev;
        view[r].rid = aln.rid;
        view[r].pos = rec.pos;
        view[r].ref_end = ref_end;
      }
      recs[r].push_back(std::move(rec));
      rec_ref_end[r].push_back(ref_end);
      rec_mapped[r].push_back(1);
      rec_rev[r].push_back(aln.rev);
      rec_rid[r].push_back(aln.rid);
    };

    // The chosen primary goes first, unconditionally (a proper-pair
    // selection is emitted even below the -T threshold, as in bwa).
    if (zi >= 0) {
      emit(regs[r][static_cast<std::size_t>(zi)], /*primary=*/true);
      emitted_primary = true;
    }
    // Remaining survivors in mark_primary order: supplementary/secondary.
    for (std::size_t i = 0; i < regs[r].size(); ++i) {
      if (static_cast<int>(i) == zi) continue;
      const AlnReg& reg = regs[r][i];
      if (reg.score < opt.min_out_score) continue;
      if (reg.secondary >= 0 && !opt.output_secondary) continue;
      if (reg.secondary < 0 && !emitted_primary) {
        emit(reg, /*primary=*/true);  // unreachable when zi >= 0; safety
        emitted_primary = true;
        continue;
      }
      emit(reg, /*primary=*/false);
    }
    if (recs[r].empty()) {
      recs[r].push_back(align::unmapped_record(*read[r]));
      rec_ref_end[r].push_back(0);
      rec_mapped[r].push_back(0);
      rec_rev[r].push_back(0);
      rec_rid[r].push_back(-1);
    }
  }

  // Pass 2: fill mate fields on every record from the other mate's primary.
  // Both views must be complete (rname pointers set) before either side is
  // patched, and records move out only after both sides are done.
  for (int r = 0; r < 2; ++r)
    if (view[r].mapped) view[r].rname = &recs[r][0].rname;
  for (int r = 0; r < 2; ++r) {
    const MateView& mate = view[r ^ 1];
    for (std::size_t i = 0; i < recs[r].size(); ++i)
      apply_mate_fields(recs[r][i], rec_mapped[r][i] != 0, rec_rev[r][i] != 0,
                        rec_rid[r][i], rec_ref_end[r][i], mate, decision.proper,
                        r == 0);
  }
  for (int r = 0; r < 2; ++r)
    for (auto& rec : recs[r]) out[r]->push_back(std::move(rec));
}

}  // namespace mem2::pair
