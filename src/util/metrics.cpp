#include "util/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "util/sw_counters.h"

namespace mem2::util {

// ---------------------------------------------------------------- Histogram

namespace {

/// Smallest bucket index whose upper bound is >= v (kBuckets-1 = overflow).
int bucket_index(double v) {
  if (!(v > Histogram::kMinUpper)) return 0;  // also catches NaN/negatives
  int e = 0;
  const double m = std::frexp(v / Histogram::kMinUpper, &e);
  // v/kMinUpper = m * 2^e with m in [0.5, 1): need ceil(log2(ratio)).
  const int idx = (m == 0.5) ? e - 1 : e;
  return std::clamp(idx, 0, Histogram::kBuckets - 1);
}

}  // namespace

void Histogram::record(double v) {
  if (std::isnan(v)) return;
  if (v < 0) v = 0;
  ++counts_[static_cast<std::size_t>(bucket_index(v))];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

double Histogram::bucket_upper(int i) {
  if (i >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return kMinUpper * std::ldexp(1.0, i);
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample, mirroring the old sorted-vector estimators'
  // idx = q*(n-1)+0.5 rounding.
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1) + 0.5);
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += counts_[static_cast<std::size_t>(i)];
    if (cum > target) {
      // Geometric midpoint of the bucket; the ends fall back on the
      // observed extremes so the estimate never leaves the data range.
      const double lo = (i == 0) ? min_ : bucket_upper(i - 1);
      const double hi = (i == kBuckets - 1) ? max_ : bucket_upper(i);
      double est = (lo > 0 && std::isfinite(hi)) ? std::sqrt(lo * hi)
                                                 : (lo + hi) * 0.5;
      if (!std::isfinite(est)) est = max_;
      return std::clamp(est, min_, max_);
    }
  }
  return max_;
}

Histogram& Histogram::operator+=(const Histogram& o) {
  if (o.count_ == 0) return *this;
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
  min_ = count_ ? std::min(min_, o.min_) : o.min_;
  max_ = count_ ? std::max(max_, o.max_) : o.max_;
  count_ += o.count_;
  sum_ += o.sum_;
  return *this;
}

// --------------------------------------------------------------- PromWriter

namespace {

std::string prom_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::abs(v) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void write_sample(std::ostream& os, std::string_view name,
                  std::string_view labels, double value) {
  os << name;
  if (!labels.empty()) os << '{' << labels << '}';
  os << ' ' << prom_double(value) << '\n';
}

}  // namespace

void PromWriter::header(std::string_view name, std::string_view help,
                        const char* type) {
  for (const auto& e : emitted_)
    if (e == name) return;
  emitted_.emplace_back(name);
  if (!help.empty()) os_ << "# HELP " << name << ' ' << help << '\n';
  os_ << "# TYPE " << name << ' ' << type << '\n';
}

void PromWriter::counter(std::string_view name, std::string_view help,
                         double value, std::string_view labels) {
  header(name, help, "counter");
  write_sample(os_, name, labels, value);
}

void PromWriter::gauge(std::string_view name, std::string_view help,
                       double value, std::string_view labels) {
  header(name, help, "gauge");
  write_sample(os_, name, labels, value);
}

void PromWriter::histogram(std::string_view name, std::string_view help,
                           const Histogram& h, std::string_view labels) {
  header(name, help, "histogram");
  const std::string bucket_name = std::string(name) + "_bucket";
  std::uint64_t cum = 0;
  for (int i = 0; i < Histogram::kBuckets - 1; ++i) {
    const std::uint64_t c = h.buckets()[static_cast<std::size_t>(i)];
    if (c == 0) continue;  // sparse: emit only buckets that gained counts
    cum += c;
    std::string ls(labels);
    if (!ls.empty()) ls += ',';
    ls += "le=\"" + prom_double(Histogram::bucket_upper(i)) + "\"";
    write_sample(os_, bucket_name, ls, static_cast<double>(cum));
  }
  {
    std::string ls(labels);
    if (!ls.empty()) ls += ',';
    ls += "le=\"+Inf\"";
    write_sample(os_, bucket_name, ls, static_cast<double>(h.count()));
  }
  write_sample(os_, std::string(name) + "_sum", labels, h.sum());
  write_sample(os_, std::string(name) + "_count", labels,
               static_cast<double>(h.count()));
}

// ------------------------------------------------------- SwCounters mapping

void write_sw_counters(PromWriter& w, const SwCounters& c,
                       std::string_view labels) {
  for (const auto& f : sw_counter_fields()) {
    w.counter("mem2_sw_" + std::string(f.name) + "_total",
              "software event counter (see util/sw_counters.h)",
              static_cast<double>(c.*(f.member)), labels);
  }
}

}  // namespace mem2::util
