#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/big_alloc.h"
#include "util/cpu_features.h"

namespace perfbench {

namespace {

/// "307200K" / "32M" style sysfs cache size, in bytes.
std::int64_t parse_cache_size(const std::string& s) {
  std::int64_t v = 0;
  std::size_t i = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') v = v * 10 + (s[i++] - '0');
  if (i < s.size() && (s[i] == 'K' || s[i] == 'k')) v <<= 10;
  if (i < s.size() && (s[i] == 'M' || s[i] == 'm')) v <<= 20;
  return v;
}

}  // namespace

HostInfo host_info() {
  HostInfo h;
  h.nproc = std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    std::ifstream level(dir + "level"), size(dir + "size");
    int lv = 0;
    std::string sz;
    if (level >> lv && size >> sz && lv == 3) h.l3_bytes = parse_cache_size(sz);
  }
  h.isa = mem2::util::isa_name(mem2::util::dispatch_isa());
  return h;
}

NoiseSample noise_now() {
  NoiseSample n;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  n.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  n.invol_csw = static_cast<double>(ru.ru_nivcsw);
  // /proc/stat "cpu  user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string line;
  if (std::getline(stat, line)) {
    std::istringstream in(line);
    std::string tag;
    double v[8] = {};
    in >> tag;
    for (double& x : v) in >> x;
    n.steal_ticks = v[7];
  }
  return n;
}

double peak_rss_mib() {
  return static_cast<double>(mem2::util::peak_rss_bytes()) / (1024.0 * 1024.0);
}

}  // namespace perfbench
