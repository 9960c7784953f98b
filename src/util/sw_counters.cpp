#include "util/sw_counters.h"

#include <sstream>

namespace mem2::util {

SwCounters& SwCounters::operator-=(const SwCounters& o) {
  occ_bucket_loads -= o.occ_bucket_loads;
  backward_exts -= o.backward_exts;
  forward_exts -= o.forward_exts;
  prefetches -= o.prefetches;
  smems_found -= o.smems_found;
  sa_lookups -= o.sa_lookups;
  sa_lf_steps -= o.sa_lf_steps;
  sa_memory_loads -= o.sa_memory_loads;
  chains_built -= o.chains_built;
  chains_kept -= o.chains_kept;
  bsw_pairs -= o.bsw_pairs;
  bsw_cells_total -= o.bsw_cells_total;
  bsw_cells_useful -= o.bsw_cells_useful;
  bsw_aborted_pairs -= o.bsw_aborted_pairs;
  cigar_gapless -= o.cigar_gapless;
  cigar_dp_cells -= o.cigar_dp_cells;
  io_records_skipped -= o.io_records_skipped;
  pe_rescue_windows -= o.pe_rescue_windows;
  pe_rescue_win_skipped -= o.pe_rescue_win_skipped;
  pe_rescue_win_deduped -= o.pe_rescue_win_deduped;
  pe_rescue_jobs -= o.pe_rescue_jobs;
  pe_rescue_hits -= o.pe_rescue_hits;
  pe_rescued_pairs -= o.pe_rescued_pairs;
  pe_proper_pairs -= o.pe_proper_pairs;
  return *this;
}

SwCounters& SwCounters::operator+=(const SwCounters& o) {
  occ_bucket_loads += o.occ_bucket_loads;
  backward_exts += o.backward_exts;
  forward_exts += o.forward_exts;
  prefetches += o.prefetches;
  smems_found += o.smems_found;
  sa_lookups += o.sa_lookups;
  sa_lf_steps += o.sa_lf_steps;
  sa_memory_loads += o.sa_memory_loads;
  chains_built += o.chains_built;
  chains_kept += o.chains_kept;
  bsw_pairs += o.bsw_pairs;
  bsw_cells_total += o.bsw_cells_total;
  bsw_cells_useful += o.bsw_cells_useful;
  bsw_aborted_pairs += o.bsw_aborted_pairs;
  cigar_gapless += o.cigar_gapless;
  cigar_dp_cells += o.cigar_dp_cells;
  io_records_skipped += o.io_records_skipped;
  pe_rescue_windows += o.pe_rescue_windows;
  pe_rescue_win_skipped += o.pe_rescue_win_skipped;
  pe_rescue_win_deduped += o.pe_rescue_win_deduped;
  pe_rescue_jobs += o.pe_rescue_jobs;
  pe_rescue_hits += o.pe_rescue_hits;
  pe_rescued_pairs += o.pe_rescued_pairs;
  pe_proper_pairs += o.pe_proper_pairs;
  return *this;
}

std::string SwCounters::summary() const {
  std::ostringstream os;
  os << "occ_bucket_loads=" << occ_bucket_loads
     << " backward_exts=" << backward_exts
     << " forward_exts=" << forward_exts
     << " prefetches=" << prefetches
     << " smems=" << smems_found
     << " sa_lookups=" << sa_lookups
     << " sa_lf_steps=" << sa_lf_steps
     << " sa_loads=" << sa_memory_loads
     << " chains_built=" << chains_built
     << " chains_kept=" << chains_kept
     << " bsw_pairs=" << bsw_pairs
     << " bsw_cells_total=" << bsw_cells_total
     << " bsw_cells_useful=" << bsw_cells_useful
     << " bsw_aborts=" << bsw_aborted_pairs
     << " cigar_gapless=" << cigar_gapless
     << " cigar_dp_cells=" << cigar_dp_cells
     << " io_records_skipped=" << io_records_skipped
     << " pe_rescue_windows=" << pe_rescue_windows
     << " pe_rescue_win_skipped=" << pe_rescue_win_skipped
     << " pe_rescue_win_deduped=" << pe_rescue_win_deduped
     << " pe_rescue_jobs=" << pe_rescue_jobs
     << " pe_rescue_hits=" << pe_rescue_hits
     << " pe_rescued_pairs=" << pe_rescued_pairs
     << " pe_proper_pairs=" << pe_proper_pairs;
  return os.str();
}

SwCounters& tls_counters() {
  thread_local SwCounters counters;
  return counters;
}

}  // namespace mem2::util
