// Host description and noise witnesses for the run record.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HostInfo {
  int nproc = 1;
  std::int64_t l3_bytes = 0;  // 0 when sysfs does not say
  std::string isa;            // dispatched BSW/SIMD ISA
};
HostInfo host_info();

/// Process CPU time, involuntary context switches and host steal ticks at
/// one instant; subtract two samples to cover a region.
struct NoiseSample {
  double cpu_s = 0;
  double invol_csw = 0;
  double steal_ticks = 0;

  NoiseSample operator-(const NoiseSample& o) const {
    return {cpu_s - o.cpu_s, invol_csw - o.invol_csw, steal_ticks - o.steal_ticks};
  }
};
NoiseSample noise_now();

double peak_rss_mib();

}  // namespace perfbench
