// Deterministic fault injection for exercising failure paths.
//
// One process-global injector is armed with a comma-separated list of
// sites — from the MEM2_FAULT environment variable at first use, or
// programmatically (tests, mem2_cli --fault).  Each site spec is
//
//   site            fire exactly once, on the first pass
//   site:nth        fire exactly once, on the nth pass (1-based)
//   site:nth-mth    transient: fire on every pass in [nth, mth], then
//                   recover — models a fault that heals (retry tests)
//
// so "align.worker.stall,sam.write:2-3" arms a watchdog scenario and a
// transient write failure in one spec.  Every non-selected pass, and every
// pass when disarmed, is a no-op.  The disarmed fast path is a single
// relaxed atomic load, so golden-SAM and determinism tests stay
// byte-identical with the injector compiled in.
//
// Fault points fire by returning true from fault_point(site); the call
// site then throws its *natural* error type, so an injected fault walks
// the exact same propagation path a real failure would:
//
//   site               where                              raises
//   index.load         index_io.cpp load_index()          corruption_error
//   fastq.read         io/fastq.cpp FastqStream           io_error
//   sam.write          align/sam_sink.h OstreamSamSink    io_error (bad stream)
//   align.worker       align/session.cpp process()        invariant_error
//   align.worker.stall align/session.cpp process()        blocks the batch until
//                      the session is cancelled (watchdog / cancel tests)
//   align.batch        align/pipeline_batch.cpp replay    invariant_error
//                      loop, align/pipeline_baseline.cpp per read
//
// Arming is not thread-safe against in-flight fault points; arm/disarm
// while the pipeline is quiescent (tests do).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

namespace mem2::util {

class FaultInjector {
 public:
  /// The process-global injector; arms itself from MEM2_FAULT on first use.
  static FaultInjector& instance();

  /// Arm from "site[:nth[-mth]][,site...]"; an empty spec disarms.  Returns
  /// false (and leaves the injector disarmed) on a malformed spec (empty
  /// site, non-numeric / zero / inverted hit range).
  bool arm(const std::string& spec);
  void disarm();

  bool armed() const { return armed_.load(std::memory_order_relaxed); }
  /// First armed site's name (empty when disarmed).
  const std::string& site() const;

  /// True when this pass of `site` falls in an armed site's firing range.
  bool fire(std::string_view site);

  /// Total passes observed at `site` since arming (0 when the site is not
  /// armed).  Lets tests detect "the stall fault has engaged" without
  /// sleeping.
  std::uint64_t hits(std::string_view site) const;

 private:
  struct ArmedSite {
    std::string site;
    std::uint64_t nth = 1;  // first firing pass (1-based)
    std::uint64_t mth = 1;  // last firing pass; == nth for exactly-once
    std::atomic<std::uint64_t> hits{0};
  };

  FaultInjector() = default;
  std::atomic<bool> armed_{false};
  // deque: stable addresses for the atomics; sized at arm() time only.
  std::deque<ArmedSite> sites_;
};

/// Call-site helper: true when the process-global injector selects this
/// pass of `site`.  The caller throws its natural error type ("injected
/// fault: <site>") so tests drive the real path.
inline bool fault_point(std::string_view site) {
  FaultInjector& fi = FaultInjector::instance();
  return fi.armed() && fi.fire(site);
}

}  // namespace mem2::util
