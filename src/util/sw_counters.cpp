#include "util/sw_counters.h"

#include <array>
#include <sstream>

namespace mem2::util {

namespace {

#define MEM2_SW_FIELD(f) SwCounterField{#f, &SwCounters::f}
constexpr std::array kFields = {
    MEM2_SW_FIELD(occ_bucket_loads),
    MEM2_SW_FIELD(backward_exts),
    MEM2_SW_FIELD(forward_exts),
    MEM2_SW_FIELD(prefetches),
    MEM2_SW_FIELD(smems_found),
    MEM2_SW_FIELD(sa_lookups),
    MEM2_SW_FIELD(sa_lf_steps),
    MEM2_SW_FIELD(sa_memory_loads),
    MEM2_SW_FIELD(chains_built),
    MEM2_SW_FIELD(chains_kept),
    MEM2_SW_FIELD(bsw_pairs),
    MEM2_SW_FIELD(bsw_cells_total),
    MEM2_SW_FIELD(bsw_cells_useful),
    MEM2_SW_FIELD(bsw_aborted_pairs),
    MEM2_SW_FIELD(cigar_gapless),
    MEM2_SW_FIELD(cigar_dp_cells),
    MEM2_SW_FIELD(io_records_skipped),
    MEM2_SW_FIELD(pe_rescue_windows),
    MEM2_SW_FIELD(pe_rescue_win_skipped),
    MEM2_SW_FIELD(pe_rescue_win_deduped),
    MEM2_SW_FIELD(pe_rescue_jobs),
    MEM2_SW_FIELD(pe_rescue_hits),
    MEM2_SW_FIELD(pe_rescued_pairs),
    MEM2_SW_FIELD(pe_proper_pairs),
};
#undef MEM2_SW_FIELD

}  // namespace

std::span<const SwCounterField> sw_counter_fields() { return kFields; }

SwCounters& SwCounters::operator+=(const SwCounters& o) {
  for (const auto& f : kFields) this->*(f.member) += o.*(f.member);
  return *this;
}

SwCounters& SwCounters::operator-=(const SwCounters& o) {
  for (const auto& f : kFields) this->*(f.member) -= o.*(f.member);
  return *this;
}

std::string SwCounters::summary() const {
  std::ostringstream os;
  for (const auto& f : kFields)
    os << (&f == kFields.data() ? "" : " ") << f.name << '=' << this->*(f.member);
  return os.str();
}

SwCounters& tls_counters() {
  thread_local SwCounters counters;
  return counters;
}

}  // namespace mem2::util
