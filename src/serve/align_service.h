// AlignService — many concurrent streaming sessions over one shared index
// and one shared worker pool.
//
// Aligner::open() (align/aligner.h) gives each Stream a private
// SessionPool; a server with S sessions would then run S pools and
// oversubscribe the machine.  AlignService runs every admitted session on
// one SessionPool (align/session.h), the same worker loop an Aligner
// stream uses, and adds only what a server needs on top of it:
//
//   clients ──open()──► Stream ──submit──► per-session SessionCore
//                                            (bounded queue, ordered
//                                             reassembly, sticky Status)
//                                                 ▲ pop (round-robin)
//                 one shared SessionPool ─────────┘
//
//   - One immutable Mem2Index shared by every session.
//   - Admission control: when max_streams sessions are live or the global
//     in-flight batch budget (sum of admitted sessions' queue_depth) would
//     be exceeded, open() either fails fast with kResourceExhausted
//     (admission_timeout_ms == 0, the default) or queues FIFO behind up to
//     max_pending_opens other waiting opens until capacity frees or the
//     timeout expires.
//   - Deadlines & lifecycle: an optional watchdog (batch_stall_ms) cancels
//     any session whose in-flight batch stops making progress
//     (kDeadlineExceeded) while its siblings run on untouched;
//     Stream::cancel() aborts one session cooperatively at a batch
//     boundary; shutdown(grace) stops admission, waits for live streams to
//     drain and cancels the stragglers.
//   - Isolation: a session failure (sticky Status, queue drained, sink left
//     at a batch boundary) is invisible to its siblings; per-session
//     SwCounters (util::CounterCapture) keep even the observability stats
//     unpolluted across sessions sharing a worker thread.
//   - Output is byte-identical to a solo run of the same session because
//     batch results are chunking/thread-invariant and reassembly is
//     per-session in submission order; scheduling order cannot show.
//
// Thread contract: the service itself is thread-safe (open() and metrics()
// from anywhere); each stream follows the Stream contract of one producer
// thread.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "align/session.h"
#include "util/clock.h"
#include "util/metrics.h"

namespace mem2::serve {

struct ServeOptions {
  /// Pooled worker threads; 0 means hardware_concurrency.
  int workers = 0;
  /// Admission: max concurrently open sessions.
  int max_streams = 8;
  /// Admission: global in-flight batch budget.  Each admitted session
  /// reserves its queue_depth batches; an open() that would push the sum
  /// past this fails with kResourceExhausted.
  int max_inflight_batches = 64;
  /// Admission queueing: how long an over-capacity open() may wait for a
  /// slot before failing with kResourceExhausted.  0 (default) preserves
  /// the original fail-fast behavior — open() never blocks.
  int admission_timeout_ms = 0;
  /// Bound on simultaneously waiting opens; arrivals beyond it fail fast
  /// even when queueing is on.  Waiters are admitted strictly FIFO.
  int max_pending_opens = 16;
  /// Watchdog: cancel a session (kDeadlineExceeded) whose in-flight batch
  /// has made no progress — no stage-boundary heartbeat — for this long.
  /// 0 (default) disables the watchdog.
  int batch_stall_ms = 0;
  /// Injectable time source for admission deadlines, the watchdog and
  /// batch-latency metrics; null means the real steady clock.  Tests drive
  /// all deadline behavior with a util::FakeClock and zero real sleeps.
  util::Clock* clock = nullptr;
};

align::Status validate_serve_options(const ServeOptions& options);

/// Service-wide snapshot: admission counters plus aggregates folded from
/// every finished session and the live ones' running totals.
struct ServiceMetrics {
  int active_streams = 0;
  int peak_streams = 0;
  int pending_opens = 0;                // opens waiting in the admission queue
  std::uint64_t streams_opened = 0;
  std::uint64_t streams_rejected = 0;   // admission denials (incl. timeouts)
  std::uint64_t streams_queued = 0;     // opens that waited in the queue
  std::uint64_t streams_timed_out = 0;  // queued opens that hit the deadline
  std::uint64_t streams_cancelled = 0;  // watchdog / shutdown cancellations
  std::uint64_t streams_completed = 0;  // finished with ok()
  std::uint64_t streams_failed = 0;     // finished with a sticky error
  std::uint64_t reads = 0;    // a live session's reads land at finish()
  util::SwCounters counters;  // merged per-session counters
  /// Every session's StreamMetrics, retired and live, folded with
  /// StreamMetrics::operator+=: batches, records, write retries, the
  /// deepest queue, batch latency, queue wait and per-stage batch seconds
  /// (indexed by util::Stage — the cost-weighted-scheduling feed).
  align::StreamMetrics merged;

  /// Admission queue wait (seconds), one observation per open() that went
  /// through the queue — admitted or timed out.  Shares the log2-bucket
  /// util::Histogram with StreamMetrics, so the service has exactly one
  /// percentile implementation.
  util::Histogram admission_wait;
  double admission_wait_p50() const { return admission_wait.p50(); }
  double admission_wait_p99() const { return admission_wait.p99(); }

  /// One-line rendering for periodic stderr snapshots.
  std::string summary() const;
};

/// One admitted session: the same handle Aligner::open() returns.  A
/// rejected open gives a handle with ok() == false that reports its
/// admission Status from every call; finish() releases the session's
/// admission reservation and folds its stats into the service aggregates.
using ServiceStream = align::Stream;

class AlignService {
 public:
  /// Validates options and starts the worker pool.  Construction never
  /// throws: check ok()/status() before use.
  AlignService(const index::Mem2Index& index, ServeOptions options);
  /// Fails every still-open session, drains their queues and joins the
  /// pool.  Outstanding stream handles stay safe to call (they co-own the
  /// service state) and report the shutdown error.
  ~AlignService();

  AlignService(const AlignService&) = delete;
  AlignService& operator=(const AlignService&) = delete;

  bool ok() const { return status_.ok(); }
  const align::Status& status() const { return status_; }
  const ServeOptions& options() const { return options_; }

  /// Admit one streaming session writing to `sink` (which must outlive the
  /// stream).  Per-session DriverOptions are validated against the shared
  /// index; over-admission fails fast with kResourceExhausted.  The SAM
  /// header is written on successful admission.
  ServiceStream open(const align::DriverOptions& options,
                     align::SamSink& sink);

  /// Graceful lifecycle: stop admitting (queued opens are released with
  /// kResourceExhausted), wait up to `grace` for live streams to finish,
  /// then cancel the stragglers (their handles report kCancelled) and wait
  /// for their queues to drain — so no batch is ever cut mid-write.
  /// Returns ok() when everything drained within the grace period,
  /// kDeadlineExceeded when stragglers had to be cancelled.  Idempotent;
  /// open() after shutdown() fails.  Never deadlocks: it only waits on
  /// pool-side drain progress, which cancellation guarantees.
  align::Status shutdown(std::chrono::milliseconds grace);

  ServiceMetrics metrics() const;

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
  ServeOptions options_;
  align::Status status_;
};

}  // namespace mem2::serve
