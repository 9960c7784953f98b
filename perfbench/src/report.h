// Named, unit-carrying metric lists and the benchmark's result line.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), std::isfinite(value) ? value : 0.0,
                              std::move(unit)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// "name": {"value": v, "unit": "u"}, ... (full double precision).
  std::string json_body() const {
    std::string out;
    char buf[96];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return out;
  }

  void print(std::FILE* f, const char* title) const {
    std::fprintf(f, "%s\n", title);
    for (const Metric& m : metrics_)
      std::fprintf(f, "  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

 private:
  std::vector<Metric> metrics_;
};

/// Outcome of one benchmark invocation.  `metrics` is what the result line
/// carries (end-to-end metrics untraced, per-layer metrics traced);
/// `record` is the run record printed beside it (host, ISA, genome, seed,
/// noise witnesses, sample counts).
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Report metrics;
  Report record;
  std::vector<std::string> errors;  // failed output gates

  void gate(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
};

}  // namespace perfbench
