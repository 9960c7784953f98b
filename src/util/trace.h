// Low-overhead span tracer and the pipeline's one stage clock.
//
// Tracer: per-thread lock-free ring buffers of TSC-stamped spans,
// exportable as Chrome trace-event JSON (chrome://tracing / Perfetto) with
// pid = stream and tid = worker.  When tracing is disabled a TraceSpan is
// one relaxed atomic load and a branch.  When enabled, record() is a TSC
// read plus one store into the calling thread's private ring (no shared
// cache lines, no locks); the ring wraps overwriting the oldest spans, so
// a run longer than the ring keeps its most recent window and counts the
// rest in dropped().  Alongside the ring, each thread keeps exact
// per-span-name aggregates (total ticks + count) that survive wraparound;
// the CLI exports them as mem2_span_seconds_total.
//
// StageSpan: every pipeline stage boundary (Table 1: SMEM / SAL / CHAIN /
// BSW-pre / BSW / SAM, plus PAIR and MISC) is one StageSpan, read with two
// TSC stamps that feed both views.  With tracing on it records a ring event
// named stage_name(stage).  On a thread that bound a StageTimes table —
// each align_chunk / align_reads_baseline call binds its DriverStats on
// its calling thread with a root MISC span — it also adds its *self* time
// (duration minus the stage spans nested in it) to that table.  The table
// therefore has one unit, the calling thread's wall seconds, and sums to
// the call's wall time: MISC is exactly the time no other stage claims.
// OpenMP worker threads bind no table, so their stage spans only trace.
//
// Export is snapshot-at-quiescence: call write_chrome_trace() after the
// traced work has drained (end of run, after Stream::finish /
// AlignService::shutdown), not concurrently with producers.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/tsc.h"

namespace mem2::util {

namespace trace_detail {
extern std::atomic<bool> g_enabled;
}

inline bool trace_enabled() {
  return trace_detail::g_enabled.load(std::memory_order_relaxed);
}

/// One ring slot.  `name` must be a string with static storage duration
/// (the instrumentation sites pass literals).  Instant events (cancel,
/// watchdog fire) are encoded as t1 == t0.
struct TraceEvent {
  const char* name;
  std::uint64_t t0, t1;  // tsc stamps
  std::uint32_t pid;     // stream id; 0 = process-scope work
};

/// Exact per-name totals, merged across threads at export time.
struct TraceAgg {
  std::string name;
  std::uint64_t ticks = 0;
  std::uint64_t count = 0;
  double seconds() const { return tsc_to_seconds(ticks); }
};

class Tracer {
 public:
  static Tracer& instance();

  /// Clears all rings/aggregates, stamps the trace epoch, and turns the
  /// fast-path flag on.  Call while no traced work is running.
  void enable();
  void disable() { trace_detail::g_enabled.store(false, std::memory_order_relaxed); }

  /// Per-thread ring capacity (entries).  Takes effect at the next
  /// enable(); default 1 << 16 (~1.5 MiB per participating thread).
  void set_ring_capacity(std::size_t entries);

  void record(const char* name, std::uint64_t t0, std::uint64_t t1,
              std::uint32_t pid);
  void instant(const char* name, std::uint32_t pid) {
    if (!trace_enabled()) return;
    const std::uint64_t t = tsc_now();
    record(name, t, t, pid);
  }

  std::uint64_t recorded() const;  // total events since enable()
  std::uint64_t dropped() const;   // events overwritten by ring wrap

  /// Per-name totals merged across all threads (exact under wraparound).
  std::vector<TraceAgg> aggregate() const;

  /// Chrome trace-event JSON ("X" duration + "i" instant events, ts/dur
  /// in microseconds since enable(), pid = stream, tid = worker), with
  /// process_name/thread_name metadata.
  void write_chrome_trace(std::ostream& os) const;
  /// Convenience: write to `path`; returns false on I/O failure.
  bool write_chrome_trace_file(const std::string& path) const;

 private:
  Tracer() = default;
  struct Ring;
  Ring& self_ring();

  mutable std::mutex mu_;  // guards rings_ topology, not hot-path writes
  std::vector<std::unique_ptr<Ring>> rings_;
  std::size_t capacity_ = std::size_t{1} << 16;
  std::uint64_t epoch_tsc_ = 0;
};

// ------------------------------------------------------ stream-id context

/// Current thread's stream id for span attribution (Chrome pid lane).
/// Session workers set it around batch processing; OpenMP regions inside
/// the pipeline re-seed it from the orchestrating thread's value.
std::uint32_t trace_stream_id();
void set_trace_stream_id(std::uint32_t pid);

/// RAII set/restore of the thread-local stream id.
class TraceStreamScope {
 public:
  explicit TraceStreamScope(std::uint32_t pid)
      : saved_(trace_stream_id()) {
    set_trace_stream_id(pid);
  }
  ~TraceStreamScope() { set_trace_stream_id(saved_); }
  TraceStreamScope(const TraceStreamScope&) = delete;
  TraceStreamScope& operator=(const TraceStreamScope&) = delete;

 private:
  std::uint32_t saved_;
};

// ----------------------------------------------------------------- spans

/// RAII span.  Disabled cost: one relaxed load + branch in the ctor and a
/// null check in the dtor.  The stream id is sampled at *end* of scope
/// from the thread-local context unless given explicitly.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (trace_enabled()) {
      name_ = name;
      t0_ = tsc_now();
    }
  }
  TraceSpan(const char* name, std::uint32_t pid) : TraceSpan(name) {
    pid_ = pid;
    explicit_pid_ = true;
  }
  ~TraceSpan() { finish(); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// End the span early (idempotent).
  void finish() {
    if (name_ == nullptr) return;
    Tracer::instance().record(name_, t0_, tsc_now(),
                              explicit_pid_ ? pid_ : trace_stream_id());
    name_ = nullptr;
  }

 private:
  const char* name_ = nullptr;
  std::uint64_t t0_ = 0;
  std::uint32_t pid_ = 0;
  bool explicit_pid_ = false;
};

/// Record an already-measured interval (e.g. queue wait whose start was
/// stamped on another thread).  No-op while disabled.
inline void trace_interval(const char* name, std::uint64_t t0,
                           std::uint64_t t1, std::uint32_t pid) {
  if (!trace_enabled()) return;
  Tracer::instance().record(name, t0, t1, pid);
}

/// Instant event (zero-duration marker, e.g. cancel / watchdog fire).
inline void trace_instant(const char* name, std::uint32_t pid) {
  Tracer::instance().instant(name, pid);
}

// ------------------------------------------------------------ stage clock

/// Pipeline stages, in paper order (Table 1).
enum class Stage : int {
  kSmem = 0,
  kSal,
  kChain,
  kBswPre,
  kBsw,
  kSamForm,
  kPair,  // paired-end stage: rescue harvest/rounds + pair scoring + pair SAM
  kMisc,  // everything inside a driver call that no other stage span claims
  kCount,
};

/// The one stage-name table: trace event names and the
/// mem2_stage_seconds{stage=...} label values.
constexpr std::string_view stage_name(Stage s) {
  constexpr std::string_view names[] = {"smem", "sal", "chain", "bsw-pre",
                                        "bsw",  "sam", "pair",  "misc"};
  return names[static_cast<int>(s)];
}

/// Per-stage seconds of one driver call (or a sum of calls).
struct StageTimes {
  std::array<double, static_cast<int>(Stage::kCount)> seconds{};

  double& operator[](Stage s) { return seconds[static_cast<int>(s)]; }
  double operator[](Stage s) const { return seconds[static_cast<int>(s)]; }

  double total() const {
    double t = 0;
    for (double s : seconds) t += s;
    return t;
  }

  StageTimes& operator+=(const StageTimes& o) {
    for (std::size_t i = 0; i < seconds.size(); ++i) seconds[i] += o.seconds[i];
    return *this;
  }
};

class StageSpan;

namespace trace_detail {
/// The calling thread's bound stage table and its innermost open span.
struct StageBinding {
  StageTimes* table = nullptr;
  StageSpan* top = nullptr;
};
extern constinit thread_local StageBinding t_stage;
}  // namespace trace_detail

/// RAII stage span (see the header comment).  Unbound and untraced cost:
/// a thread-local load, one relaxed load and a branch.
class StageSpan {
 public:
  explicit StageSpan(Stage stage)
      : stage_(stage),
        table_(trace_detail::t_stage.table),
        parent_(trace_detail::t_stage.top) {
    start();
  }
  /// Root span of a driver call: binds `table` (null: none) as this
  /// thread's stage table for the span's lifetime.
  StageSpan(Stage stage, StageTimes* table)
      : stage_(stage), table_(table), root_(true) {
    trace_detail::t_stage = {table, nullptr};
    start();
  }
  ~StageSpan() {
    if (table_ != nullptr || traced_) {
      const std::uint64_t t1 = tsc_now();
      if (traced_)
        Tracer::instance().record(stage_name(stage_).data(), t0_, t1,
                                  trace_stream_id());
      if (table_ != nullptr) {
        const std::uint64_t ticks = t1 - t0_;
        (*table_)[stage_] += tsc_to_seconds(ticks - child_ticks_);
        if (parent_ != nullptr) parent_->child_ticks_ += ticks;
        trace_detail::t_stage.top = parent_;
      }
    }
    if (root_) trace_detail::t_stage = {};
  }
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  void start() {
    traced_ = trace_enabled();
    if (table_ == nullptr && !traced_) return;
    if (table_ != nullptr) trace_detail::t_stage.top = this;
    t0_ = tsc_now();
  }

  Stage stage_;
  bool traced_ = false;
  StageTimes* table_;
  StageSpan* parent_ = nullptr;
  bool root_ = false;
  std::uint64_t t0_ = 0;
  std::uint64_t child_ticks_ = 0;  // summed durations of nested stage spans
};

}  // namespace mem2::util
