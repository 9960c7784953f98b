#include "util/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>

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

const std::vector<SwCounterField>& sw_counter_fields() {
  static const std::vector<SwCounterField> fields = {
      {"occ_bucket_loads", &SwCounters::occ_bucket_loads},
      {"backward_exts", &SwCounters::backward_exts},
      {"forward_exts", &SwCounters::forward_exts},
      {"prefetches", &SwCounters::prefetches},
      {"smems_found", &SwCounters::smems_found},
      {"sa_lookups", &SwCounters::sa_lookups},
      {"sa_lf_steps", &SwCounters::sa_lf_steps},
      {"sa_memory_loads", &SwCounters::sa_memory_loads},
      {"chains_built", &SwCounters::chains_built},
      {"chains_kept", &SwCounters::chains_kept},
      {"bsw_pairs", &SwCounters::bsw_pairs},
      {"bsw_cells_total", &SwCounters::bsw_cells_total},
      {"bsw_cells_useful", &SwCounters::bsw_cells_useful},
      {"bsw_aborted_pairs", &SwCounters::bsw_aborted_pairs},
      {"cigar_gapless", &SwCounters::cigar_gapless},
      {"cigar_dp_cells", &SwCounters::cigar_dp_cells},
      {"io_records_skipped", &SwCounters::io_records_skipped},
      {"pe_rescue_windows", &SwCounters::pe_rescue_windows},
      {"pe_rescue_win_skipped", &SwCounters::pe_rescue_win_skipped},
      {"pe_rescue_win_deduped", &SwCounters::pe_rescue_win_deduped},
      {"pe_rescue_jobs", &SwCounters::pe_rescue_jobs},
      {"pe_rescue_hits", &SwCounters::pe_rescue_hits},
      {"pe_rescued_pairs", &SwCounters::pe_rescued_pairs},
      {"pe_proper_pairs", &SwCounters::pe_proper_pairs},
  };
  return fields;
}

void write_sw_counters(PromWriter& w, const SwCounters& c,
                       std::string_view labels) {
  for (const auto& f : sw_counter_fields()) {
    w.counter("mem2_sw_" + std::string(f.name) + "_total",
              "software event counter (see util/sw_counters.h)",
              static_cast<double>(c.*(f.member)), labels);
  }
}

// ----------------------------------------------------------------- registry

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry r;
  return r;
}

int MetricsRegistry::register_metric(std::string name, std::string help,
                                     Kind kind) {
  std::lock_guard<std::mutex> lk(mu_);
  if (auto it = by_name_.find(name); it != by_name_.end()) {
    if (metrics_[static_cast<std::size_t>(it->second)].kind != kind)
      throw std::logic_error("metric re-registered with different kind: " +
                             name);
    return it->second;
  }
  int slot = 0;
  switch (kind) {
    case Kind::kCounter:
      if (static_cast<std::size_t>(n_counters_) >= kMaxCounters)
        throw std::logic_error("metrics registry counter capacity exhausted");
      slot = n_counters_++;
      break;
    case Kind::kGauge:
      slot = n_gauges_++;
      gauges_.push_back(std::make_unique<std::atomic<double>>(0.0));
      break;
    case Kind::kHistogram:
      slot = n_hists_++;
      break;
  }
  const int id = static_cast<int>(metrics_.size());
  metrics_.push_back({name, std::move(help), kind, slot});
  by_name_.emplace(std::move(name), id);
  return id;
}

int MetricsRegistry::counter(std::string name, std::string help) {
  return register_metric(std::move(name), std::move(help), Kind::kCounter);
}
int MetricsRegistry::gauge(std::string name, std::string help) {
  return register_metric(std::move(name), std::move(help), Kind::kGauge);
}
int MetricsRegistry::histogram(std::string name, std::string help) {
  return register_metric(std::move(name), std::move(help), Kind::kHistogram);
}

MetricsRegistry::Shard& MetricsRegistry::self_shard() {
  struct TlsCache {
    const MetricsRegistry* reg = nullptr;
    Shard* shard = nullptr;
  };
  static thread_local TlsCache cache;
  if (cache.reg == this) return *cache.shard;
  std::lock_guard<std::mutex> lk(mu_);
  Shard*& slot = shard_by_thread_[std::this_thread::get_id()];
  if (slot == nullptr) {
    shards_.push_back(std::make_unique<Shard>());
    slot = shards_.back().get();
  }
  cache = {this, slot};
  return *slot;
}

void MetricsRegistry::add(int counter_id, std::uint64_t delta) {
  const auto& m = metrics_[static_cast<std::size_t>(counter_id)];
  self_shard().counters[static_cast<std::size_t>(m.slot)].fetch_add(
      delta, std::memory_order_relaxed);
}

void MetricsRegistry::set(int gauge_id, double value) {
  const auto& m = metrics_[static_cast<std::size_t>(gauge_id)];
  gauges_[static_cast<std::size_t>(m.slot)]->store(value,
                                                   std::memory_order_relaxed);
}

void MetricsRegistry::observe(int histogram_id, double value) {
  const auto& m = metrics_[static_cast<std::size_t>(histogram_id)];
  Shard& s = self_shard();
  std::lock_guard<std::mutex> lk(s.mu);
  if (s.hists.size() <= static_cast<std::size_t>(m.slot))
    s.hists.resize(static_cast<std::size_t>(m.slot) + 1);
  s.hists[static_cast<std::size_t>(m.slot)].record(value);
}

std::uint64_t MetricsRegistry::counter_value(int counter_id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto& m = metrics_[static_cast<std::size_t>(counter_id)];
  std::uint64_t total = 0;
  for (const auto& s : shards_)
    total += s->counters[static_cast<std::size_t>(m.slot)].load(
        std::memory_order_relaxed);
  return total;
}

double MetricsRegistry::gauge_value(int gauge_id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto& m = metrics_[static_cast<std::size_t>(gauge_id)];
  return gauges_[static_cast<std::size_t>(m.slot)]->load(
      std::memory_order_relaxed);
}

Histogram MetricsRegistry::histogram_snapshot(int histogram_id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto& m = metrics_[static_cast<std::size_t>(histogram_id)];
  Histogram out;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> slk(s->mu);
    if (s->hists.size() > static_cast<std::size_t>(m.slot))
      out += s->hists[static_cast<std::size_t>(m.slot)];
  }
  return out;
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  std::vector<Metric> metrics;
  {
    std::lock_guard<std::mutex> lk(mu_);
    metrics = metrics_;
  }
  PromWriter w(os);
  for (std::size_t id = 0; id < metrics.size(); ++id) {
    const auto& m = metrics[id];
    switch (m.kind) {
      case Kind::kCounter:
        w.counter(m.name, m.help,
                  static_cast<double>(counter_value(static_cast<int>(id))));
        break;
      case Kind::kGauge:
        w.gauge(m.name, m.help, gauge_value(static_cast<int>(id)));
        break;
      case Kind::kHistogram:
        w.histogram(m.name, m.help, histogram_snapshot(static_cast<int>(id)));
        break;
    }
  }
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& s : shards_) {
    for (auto& c : s->counters) c.store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> slk(s->mu);
    for (auto& h : s->hists) h.reset();
  }
  for (auto& g : gauges_) g->store(0.0, std::memory_order_relaxed);
}

}  // namespace mem2::util
