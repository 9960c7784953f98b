#include "util/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <utility>

namespace mem2::util {

namespace trace_detail {
std::atomic<bool> g_enabled{false};
constinit thread_local StageBinding t_stage;
}

namespace {
thread_local std::uint32_t t_stream_id = 0;
}

std::uint32_t trace_stream_id() { return t_stream_id; }
void set_trace_stream_id(std::uint32_t pid) { t_stream_id = pid; }

/// Single-producer ring: only the owning thread writes buf/head/agg; the
/// exporter reads them after producers are quiescent (see header).
struct Tracer::Ring {
  std::vector<TraceEvent> buf;
  std::uint64_t head = 0;  // total events ever recorded; slot = head % size
  struct Agg {
    const char* name;
    std::uint64_t ticks, count;
  };
  std::vector<Agg> agg;  // tiny (≤ #distinct span names), linear-scanned
  std::uint32_t tid = 0;

  void reset(std::size_t capacity) {
    buf.assign(capacity, TraceEvent{});
    head = 0;
    agg.clear();
  }
};

Tracer& Tracer::instance() {
  static Tracer* t = new Tracer;  // leaked: rings outlive TLS destructors
  return *t;
}

Tracer::Ring& Tracer::self_ring() {
  static thread_local Ring* t_ring = nullptr;
  if (t_ring != nullptr) return *t_ring;
  std::lock_guard<std::mutex> lk(mu_);
  rings_.push_back(std::make_unique<Ring>());
  Ring* r = rings_.back().get();
  r->tid = static_cast<std::uint32_t>(rings_.size());
  r->reset(capacity_);
  t_ring = r;
  return *r;
}

void Tracer::set_ring_capacity(std::size_t entries) {
  std::lock_guard<std::mutex> lk(mu_);
  capacity_ = std::max<std::size_t>(entries, 16);
}

void Tracer::enable() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& r : rings_) r->reset(capacity_);
  epoch_tsc_ = tsc_now();
  trace_detail::g_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::record(const char* name, std::uint64_t t0, std::uint64_t t1,
                    std::uint32_t pid) {
  Ring& r = self_ring();
  r.buf[r.head % r.buf.size()] = TraceEvent{name, t0, t1, pid};
  ++r.head;
  for (auto& a : r.agg) {
    if (a.name == name) {  // pointer identity: names are literals per site
      a.ticks += t1 - t0;
      ++a.count;
      return;
    }
  }
  r.agg.push_back({name, t1 - t0, 1});
}

std::uint64_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t n = 0;
  for (const auto& r : rings_) n += r->head;
  return n;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t n = 0;
  for (const auto& r : rings_)
    if (r->head > r->buf.size()) n += r->head - r->buf.size();
  return n;
}

std::vector<TraceAgg> Tracer::aggregate() const {
  std::lock_guard<std::mutex> lk(mu_);
  // Merge by string *content*: the same stage name may be distinct
  // literals in different translation units.
  std::map<std::string, TraceAgg> merged;
  for (const auto& r : rings_) {
    for (const auto& a : r->agg) {
      auto& out = merged[a.name];
      out.name = a.name;
      out.ticks += a.ticks;
      out.count += a.count;
    }
  }
  std::vector<TraceAgg> v;
  v.reserve(merged.size());
  for (auto& [_, a] : merged) v.push_back(std::move(a));
  std::sort(v.begin(), v.end(),
            [](const TraceAgg& a, const TraceAgg& b) { return a.ticks > b.ticks; });
  return v;
}

namespace {

void json_escape(std::ostream& os, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      os << buf;
    } else {
      os << c;
    }
  }
}

void write_meta(std::ostream& os, bool& first, const char* which,
                std::uint32_t pid, std::uint32_t tid, const std::string& label) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"name":")" << which << R"(","ph":"M","pid":)" << pid;
  if (tid != 0) os << R"(,"tid":)" << tid;
  os << R"(,"args":{"name":")";
  json_escape(os, label.c_str());
  os << R"("}})";
}

}  // namespace

void Tracer::write_chrome_trace(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  const double us_per_tick = 1e6 / tsc_ticks_per_second();
  os << "{\"traceEvents\":[\n";
  bool first = true;

  // Metadata: one process lane per stream id, one named thread per ring.
  std::set<std::uint32_t> pids;
  for (const auto& r : rings_) {
    const std::uint64_t n = std::min<std::uint64_t>(r->head, r->buf.size());
    const std::uint64_t start = r->head - n;
    for (std::uint64_t i = start; i < r->head; ++i)
      pids.insert(r->buf[i % r->buf.size()].pid);
  }
  for (std::uint32_t pid : pids) {
    write_meta(os, first, "process_name", pid, 0,
               pid == 0 ? "process" : "stream " + std::to_string(pid));
    for (const auto& r : rings_)
      write_meta(os, first, "thread_name", pid, r->tid,
                 "worker " + std::to_string(r->tid));
  }

  for (const auto& r : rings_) {
    const std::uint64_t n = std::min<std::uint64_t>(r->head, r->buf.size());
    const std::uint64_t start = r->head - n;
    for (std::uint64_t i = start; i < r->head; ++i) {
      const TraceEvent& e = r->buf[i % r->buf.size()];
      const double ts =
          static_cast<double>(e.t0 - std::min(e.t0, epoch_tsc_)) * us_per_tick;
      if (!first) os << ",\n";
      first = false;
      os << R"({"name":")";
      json_escape(os, e.name);
      os << R"(","pid":)" << e.pid << R"(,"tid":)" << r->tid;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.3f", ts);
      os << ",\"ts\":" << buf;
      if (e.t1 == e.t0) {
        os << R"(,"ph":"i","s":"p"})";
      } else {
        std::snprintf(buf, sizeof buf, "%.3f",
                      static_cast<double>(e.t1 - e.t0) * us_per_tick);
        os << ",\"ph\":\"X\",\"dur\":" << buf << "}";
      }
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

bool Tracer::write_chrome_trace_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  write_chrome_trace(out);
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace mem2::util
