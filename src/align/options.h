// Aligner options — the subset of bwa's mem_opt_t our pipeline honours,
// with bwa 0.7.x defaults.
#pragma once

#include <cmath>

#include "align/status.h"
#include "bsw/ksw.h"
#include "chain/chain.h"
#include "smem/seeding.h"

namespace mem2::align {

struct MemOptions {
  bsw::KswParams ksw;              // a=1 b=4 o=6 e=1 zdrop=100 end_bonus=5
  smem::SeedingOptions seeding;    // min_seed_len=19, reseeding, round 3
  chain::ChainOptions chaining;    // w=100, max_occ=500, mask_level=.5 ...
  int w = 100;                     // extension band width (bwa -w)
  int min_out_score = 30;          // bwa -T
  float mask_level_redun = 0.95f;  // dedup overlap threshold
  int mapq_coef_len = 50;
  double mapq_coef_fac = std::log(50.0);
  bool output_secondary = false;   // bwa -a

  /// Maximum gap length extension can bridge for a flank of length qlen
  /// (bwa cal_max_gap).
  int cal_max_gap(int qlen) const {
    const int l_del =
        static_cast<int>((static_cast<double>(qlen) * ksw.a - ksw.o_del) / ksw.e_del + 1.0);
    const int l_ins =
        static_cast<int>((static_cast<double>(qlen) * ksw.a - ksw.o_ins) / ksw.e_ins + 1.0);
    int l = l_del > l_ins ? l_del : l_ins;
    l = l > 1 ? l : 1;
    return l < w * 2 ? l : w * 2;
  }
};

/// Rejects option combinations the pipeline cannot honour.  Returns the
/// first problem found; validated exactly once per session, at Aligner
/// construction (the align_reads shim inherits that check).
Status validate_options(const MemOptions& opt);

}  // namespace mem2::align
