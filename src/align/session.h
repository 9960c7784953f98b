// SessionCore and SessionPool — the one session runtime behind both front
// doors.
//
// A core owns everything one streaming session needs except the worker
// threads: the bounded batch queue with back-pressure, paired-mode
// calibration, ordered reassembly into the session's SamSink, the sticky
// Status, per-session DriverStats and the StreamMetrics observability
// block.  A SessionPool owns the threads: one worker loop that scans its
// live cores round-robin and runs one whole batch per pick.  The pool is
// the only source of alignment threads — align_chunk runs a batch on the
// worker that picked it and starts none (the paper's batch-per-thread
// model).  Every core belongs to exactly one pool and queues under the
// pool's mutex and work condition variable, so a worker sees all of its
// sessions' queues under one lock.  The two deployment shapes differ only
// in how many cores share a pool:
//
//   - Aligner::open() (aligner.h): a private pool of options.threads
//     workers serving one core, stopped when the Stream finishes.
//   - serve::AlignService: one pool over every admitted session.
//
// Producer calls (submit/close/wait_drained/finalize) are single-threaded
// per core, exactly like Stream.  Worker calls come from the pool: it holds
// mu() around the *_locked accessors, then runs process() unlocked.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "align/cancel.h"
#include "align/driver.h"
#include "align/sam_sink.h"
#include "align/status.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace mem2::align {

/// One queued batch.  `reads` views `owned` (copying ingest) or caller
/// memory (zero-copy span submit).
struct SessionWorkItem {
  std::uint64_t seq = 0;
  std::vector<seq::Read> owned;
  std::span<const seq::Read> reads;
  std::chrono::steady_clock::time_point enqueued{};
  std::uint64_t enqueued_tsc = 0;  // queue-wait span start (tracer timeline)
};

/// Per-stream observability: batch/record counts, queue-depth high-water
/// mark, and log2-bucket histograms (util::Histogram) of end-to-end batch
/// latency (enqueue -> records emitted), queue wait (enqueue -> dequeue)
/// and per-stage batch seconds.  Histograms replace the old bounded
/// latency-sample vector: constant memory, mergeable across streams, one
/// percentile implementation shared with the serve layer.  The per-stage
/// histograms are the cost signal ROADMAP item 2's latency-aware
/// scheduling consumes (where does each stream's batch time go).
struct StreamMetrics {
  static constexpr std::size_t kStages =
      static_cast<std::size_t>(util::Stage::kCount);

  std::uint64_t batches = 0;        // batches fully processed
  std::uint64_t records = 0;        // SAM records written to the sink
  std::uint64_t write_retries = 0;  // transient sink-write retries absorbed
  std::size_t queue_hwm = 0;        // max batches ever waiting in the queue
  util::Histogram batch_latency;    // seconds, enqueue -> emitted
  util::Histogram queue_wait;       // seconds, enqueue -> dequeued
  std::array<util::Histogram, kStages> stage_seconds;  // per-batch stage cost

  double p50() const { return batch_latency.p50(); }
  double p99() const { return batch_latency.p99(); }

  /// Fold another stream's metrics in (service-wide aggregation).
  StreamMetrics& operator+=(const StreamMetrics& o);
};

/// Validate a session configuration against an index: driver options plus
/// the index capabilities the chosen mode needs.  Shared by Aligner's
/// constructor and AlignService::open().
Status validate_session(const index::Mem2Index& index,
                        const DriverOptions& options);

class SessionCore;

/// The worker threads of one or more sessions.  Workers wait on work_cv()
/// for a queued batch in any live core, pick cores round-robin from a
/// rotating cursor (at most one batch per pick, so queue lengths — not
/// submission aggressiveness — bound how far a client gets ahead), and keep
/// one BatchWorkspace each, reused across sessions (it is option-agnostic).
/// The pool must outlive every core constructed on it.
class SessionPool {
 public:
  /// Starts `workers` threads.
  explicit SessionPool(int workers);
  /// stop().
  ~SessionPool();

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }
  std::mutex& mu() { return mu_; }
  std::condition_variable& work_cv() { return work_cv_; }

  // --- Lock mu() around these ---
  const std::vector<std::shared_ptr<SessionCore>>& live_locked() const {
    return live_;
  }
  void add_locked(std::shared_ptr<SessionCore> core);
  void remove_locked(const SessionCore& core);

  /// Let the workers drain every queued batch, then join them.  Idempotent;
  /// never call it from a worker.
  void stop();

 private:
  bool has_work_locked() const;
  std::shared_ptr<SessionCore> pick_locked();
  void worker_main();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::vector<std::shared_ptr<SessionCore>> live_;
  std::size_t cursor_ = 0;  // round-robin scan start
  bool stopping_ = false;
  std::vector<std::thread> threads_;  // last: started once the rest exists
};

class SessionCore {
 public:
  /// The core queues under `pool`'s mutex and work cv.  `clock` (null =
  /// real) drives batch latency timestamps and the cancel token's
  /// heartbeats, so deadline behavior is testable with a FakeClock.
  SessionCore(const index::Mem2Index& index, DriverOptions options,
              SamSink& sink, SessionPool& pool, util::Clock* clock = nullptr);

  SessionCore(const SessionCore&) = delete;
  SessionCore& operator=(const SessionCore&) = delete;

  // --- Producer side (one thread per core, like Stream) ---

  /// Carve a chunk into batches, blocking on back-pressure.  Owned variant
  /// moves the reads in; view variant enqueues full batches as views into
  /// caller memory that must stay alive until finalize() returns.
  Status submit_owned(std::vector<seq::Read> chunk);
  Status submit_view(std::span<const seq::Read> chunk);

  /// No more submissions: runs tail calibration (paired), flushes the
  /// staging buffer, marks the queue closed and wakes all workers.
  void close();

  /// Block until every queued batch has been popped *and* processed.
  void wait_drained();

  /// Final bookkeeping after the pipeline drained: folds the submitted-read
  /// count into stats and flushes the sink (unless failed).  Returns the
  /// final session status.
  void finalize();

  // --- Shared state ---

  void fail(Status st);
  /// Cooperative cancellation: records `reason` as the sticky status (first
  /// error wins), marks the cancel token so the in-flight batch aborts at
  /// its next stage checkpoint, and wakes a producer blocked in submit().
  /// Queued batches are drained unprocessed; the sink stays at a batch
  /// boundary.  Safe from any thread, idempotent.
  void cancel(Status reason);
  CancelToken& cancel_token() { return cancel_token_; }
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  Status snapshot_status() const;
  /// Stable reference once finalize() has run (Stream::stats contract).
  const DriverStats& stats() const { return stats_; }
  /// Thread-safe copy for live service-wide metrics aggregation.
  DriverStats stats_snapshot() const;
  const pair::InsertStats& pair_stats() const { return pe_stats_; }
  StreamMetrics metrics_snapshot() const;
  const DriverOptions& options() const { return options_; }
  /// Process-unique stream id; the tracer's Chrome `pid` lane for every
  /// span this session's batches emit.
  std::uint32_t trace_id() const { return trace_id_; }

  // --- Worker side: lock the pool's mu() around the *_locked calls ---

  bool has_work_locked() const { return !queue_.empty(); }
  /// Nothing queued and nothing being processed.
  bool idle_locked() const { return queue_.empty() && in_flight_ == 0; }
  /// Batches currently being processed (the watchdog only monitors
  /// sessions with work actually running).
  int in_flight_locked() const { return in_flight_; }
  SessionWorkItem pop_locked();
  /// Align one popped batch with `workspace` and emit it in order.  Runs
  /// without any lock held; failures land in the sticky status.
  void process(SessionWorkItem item, BatchWorkspace& workspace);

 private:
  Status enqueue(SessionWorkItem item);
  Status enqueue_owned(std::vector<seq::Read> reads);
  Status ingest(std::vector<seq::Read>&& chunk);
  Status run_calibration();
  void retire_locked();

  const index::Mem2Index& index_;
  const std::uint32_t trace_id_;
  const DriverOptions options_;
  SamSink& sink_;
  SessionPool& pool_;
  util::Clock* clock_;        // before cancel_token_: the token borrows it
  CancelToken cancel_token_;  // cancellation + per-batch progress heartbeats

  // Producer-side state.
  std::vector<seq::Read> staging_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t reads_submitted_ = 0;

  // Paired-mode calibration (producer thread only until pe_ready_).
  std::vector<seq::Read> calib_;
  pair::InsertStats pe_stats_;
  bool pe_ready_ = false;

  // Bounded batch queue, guarded by the pool's mutex.
  std::condition_variable q_not_full_;
  std::condition_variable drained_cv_;
  std::deque<SessionWorkItem> queue_;
  int in_flight_ = 0;
  // Written under the pool's mutex but atomic so metrics_snapshot() can
  // read it without that mutex, which a service metrics() caller holds.
  std::atomic<std::size_t> queue_hwm_{0};
  bool closed_ = false;

  // Ordered reassembly.
  mutable std::mutex emit_mu_;
  std::map<std::uint64_t, std::vector<io::SamRecord>> pending_;
  std::uint64_t next_emit_ = 0;
  std::uint64_t records_written_ = 0;

  // Sticky error + per-session stats/metrics.
  mutable std::mutex state_mu_;
  std::atomic<bool> failed_{false};
  Status status_;
  DriverStats stats_;
  StreamMetrics metrics_;
};

}  // namespace mem2::align
