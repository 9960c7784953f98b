#include "align/sam_format.h"

#include <algorithm>
#include <cstdlib>

#include "util/sw_counters.h"

namespace mem2::align {

int edit_distance(const bsw::Cigar& cigar, const seq::Code* query,
                  const seq::Code* target) {
  int nm = 0, qi = 0, ti = 0;
  for (const auto& op : cigar) {
    if (op.op == 'M') {
      for (int k = 0; k < op.len; ++k, ++qi, ++ti)
        nm += query[qi] != target[ti] || query[qi] > 3;
    } else if (op.op == 'I') {
      nm += op.len;
      qi += op.len;
    } else if (op.op == 'D') {
      nm += op.len;
      ti += op.len;
    }
  }
  return nm;
}

idx_t SamAln::ref_len() const {
  idx_t len = 0;
  for (const auto& op : cigar)
    if (op.op == 'M' || op.op == 'D') len += op.len;
  return len;
}

// bwa mem_reg2aln: fix the region endpoints into a concrete alignment.
SamAln region_to_aln(const ExtendContext& ctx, const AlnReg& reg) {
  const idx_t l_pac = ctx.index.l_pac();
  const int l_query = static_cast<int>(ctx.query.size());

  SamAln aln;
  aln.rev = reg.rb >= l_pac;
  aln.score = reg.score;

  // Orient everything to the reference-forward strand: the query segment
  // is reverse-complemented and the coordinates flip.  Both segments live
  // in per-thread scratch that only grows.
  int qb = reg.qb, qe = reg.qe;
  idx_t rb = reg.rb, re = reg.re;
  if (aln.rev) {
    qb = l_query - reg.qe;
    qe = l_query - reg.qb;
    rb = 2 * l_pac - reg.re;
    re = 2 * l_pac - reg.rb;
  }
  const int l1 = qe - qb, l2 = static_cast<int>(re - rb);
  thread_local std::vector<seq::Code> segments;  // query segment, then target
  if (segments.size() < static_cast<std::size_t>(l1 + l2))
    segments.resize(static_cast<std::size_t>(l1 + l2));
  seq::Code* const qseg = segments.data();
  seq::Code* const target = qseg + l1;
  if (!aln.rev) {
    std::copy(ctx.query.begin() + qb, ctx.query.begin() + qe, qseg);
  } else {
    for (int i = 0; i < l1; ++i)
      qseg[i] = seq::complement(ctx.query[static_cast<std::size_t>(reg.qe - 1 - i)]);
  }
  ctx.index.fetch(rb, re, target);

  const auto& ksw = ctx.opt.ksw;
  if (l1 == l2 && bsw::ksw_global_gapless(qseg, target, l1, ksw)) {
    // Every band's traceback is the diagonal, so the band-doubling retries
    // below would all return this CIGAR.
    aln.cigar = {{'M', l1}};
    ++util::tls_counters().cigar_gapless;
  } else {
    // Infer the band from the achieved score (bwa infer_bw): a near-perfect
    // region needs almost no band, which keeps SAM-FORM at the paper's
    // ~2.5% share instead of paying the full extension band here.
    auto infer_bw = [&](int score, int q_pen, int r_pen) {
      if (l1 == l2 && l1 * ksw.a - score < (q_pen + r_pen - ksw.a) * 2) return 0;
      int w = static_cast<int>(
          (static_cast<double>(std::min(l1, l2)) * ksw.a - score - q_pen) / r_pen + 2.0);
      return std::max(w, std::abs(l1 - l2));
    };
    int band = std::max(infer_bw(reg.truesc, ksw.o_del, ksw.e_del),
                        infer_bw(reg.truesc, ksw.o_ins, ksw.e_ins));
    band = std::min(band, ctx.opt.w * 4);
    // Retry with a doubled band while the global score falls short of what
    // the extension achieved (bwa mem_reg2aln loop).
    int score = bsw::ksw_global(qseg, l1, target, l2, ksw, band, aln.cigar);
    while (score < reg.truesc && band < ctx.opt.w * 4) {
      band = std::min(band * 2 + 1, ctx.opt.w * 4);
      score = bsw::ksw_global(qseg, l1, target, l2, ksw, band, aln.cigar);
    }
  }
  aln.nm = edit_distance(aln.cigar, qseg, target);

  const auto [rid, off] = ctx.index.ref().locate(rb);
  aln.rid = rid;
  aln.pos = off;
  aln.clip5 = qb;
  aln.clip3 = l_query - qe;
  return aln;
}

std::string cigar_with_clips(const SamAln& aln) {
  std::string s;
  if (aln.clip5) s += std::to_string(aln.clip5) + 'S';
  s += bsw::cigar_string(aln.cigar);
  if (aln.clip3) s += std::to_string(aln.clip3) + 'S';
  return s;
}

io::SamRecord unmapped_record(const seq::Read& read) {
  io::SamRecord rec;
  rec.qname = read.name;
  rec.flag = io::kFlagUnmapped;
  rec.seq = read.bases;
  rec.qual = read.qual;
  rec.tags = {"AS:i:0"};
  return rec;
}

void fill_seq_qual(const seq::Read& read, bool rev, io::SamRecord& rec) {
  if (!rev) {
    rec.seq = read.bases;
    rec.qual = read.qual;
  } else {
    rec.seq = seq::reverse_complement_ascii(read.bases);
    rec.qual.assign(read.qual.rbegin(), read.qual.rend());
  }
}

std::vector<io::SamRecord> regions_to_sam(const ExtendContext& ctx,
                                          const seq::Read& read,
                                          std::span<const AlnReg> regs) {
  std::vector<io::SamRecord> out;

  // Survivors: ordered by the mark_primary sort (score desc).
  bool first = true;
  for (const auto& reg : regs) {
    if (reg.score < ctx.opt.min_out_score) continue;
    if (reg.secondary >= 0 && !ctx.opt.output_secondary) continue;

    const SamAln aln = region_to_aln(ctx, reg);
    io::SamRecord rec;
    rec.qname = read.name;
    rec.flag = 0;
    if (aln.rev) rec.flag |= io::kFlagReverse;
    if (reg.secondary >= 0)
      rec.flag |= io::kFlagSecondary;
    else if (!first)
      rec.flag |= io::kFlagSupplementary;
    rec.rname = ctx.index.ref().contigs()[static_cast<std::size_t>(aln.rid)].name;
    rec.pos = aln.pos + 1;  // SAM is 1-based
    rec.mapq = reg.secondary >= 0 ? 0 : approx_mapq(reg, ctx.opt);
    rec.cigar = cigar_with_clips(aln);
    fill_seq_qual(read, aln.rev, rec);
    rec.tags = {"NM:i:" + std::to_string(aln.nm),
                "AS:i:" + std::to_string(reg.score),
                "XS:i:" + std::to_string(reg.sub)};
    out.push_back(std::move(rec));
    if (reg.secondary < 0) first = false;
  }

  if (out.empty()) out.push_back(unmapped_record(read));
  return out;
}

}  // namespace mem2::align
