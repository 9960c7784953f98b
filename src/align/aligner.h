// Streaming Aligner session API — the library's front door.
//
// An Aligner is constructed once per (index, options) pair; option
// validation happens eagerly here and is reported as a Status instead of a
// mid-run throw.  open() starts a bounded-memory pipelined session on a
// private SessionPool (session.h) of options.threads workers:
//
//   submit(chunk) ─► [bounded batch queue] ─► worker pool ─► ordered writer ─► SamSink
//                     back-pressure           one persistent    emits batches
//                     (queue_depth)           BatchWorkspace    in read order
//                                             per worker
//
// Stream is the one session handle: serve::AlignService::open() returns the
// same type (serve::ServiceStream is an alias) for a session on the
// service's shared pool.  Only the finish hook differs — a private pool is
// stopped, a service session is unregistered.
//
// submit() carves incoming reads into batch_size batches and blocks once
// queue_depth batches are waiting, so at most
// (queue_depth + workers) × batch_size reads (plus their SAM records) are
// resident regardless of input size — feed it from io::FastqStream and a
// whole flow-cell streams through a fixed footprint.  Workers run the
// existing batch stages (driver.h) over chunks; completed batches pass
// through a reorder buffer so records reach the sink in read order.  Output
// is byte-identical to align_reads() for any chunking, queue depth and
// worker count (tests/test_stream_api.cpp).
//
// Paired mode (options.paired): submit() takes mates adjacent (R1, R2, R1,
// R2, ...).  The session first buffers a calibration prefix (the first
// options.pe.stat_pairs pairs), aligns it single-end on the producer
// thread to estimate the insert-size distribution, then releases the
// prefix and everything after it to the workers, which score pairs and run
// mate rescue per batch against that fixed prior.  Because the prior
// depends only on submission order — never on chunking, batching or thread
// count — paired output keeps the same determinism guarantees as
// single-end.  batch_size must be even so mates never split across
// batches, and the ordered writer keeps each pair's records adjacent.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "align/driver.h"
#include "align/sam_sink.h"
#include "align/session.h"
#include "align/status.h"

namespace mem2::serve {
class AlignService;
}

namespace mem2::align {

/// One in-flight streaming session.  Move-only; created by Aligner::open()
/// or serve::AlignService::open().  Not thread-safe: one producer thread
/// drives submit()/finish() (the session's pool supplies the parallelism).
/// A default-constructed handle, or one whose open failed, has ok() ==
/// false and reports that Status from every call.
class Stream {
 public:
  Stream();  // inert handle: ok() == false
  Stream(Stream&&) noexcept;
  /// Finishes the session this handle held, if any, before taking `other`.
  Stream& operator=(Stream&&) noexcept;
  /// Implicitly finishes; call finish() explicitly to observe errors.
  ~Stream();

  /// status().ok(): the session opened and has not failed.
  bool ok() const;

  /// Enqueue a chunk of reads (any size — batches are carved internally).
  /// Blocks when the pipeline is full (back-pressure).  Returns the sticky
  /// session status: once an error occurs, every later call reports it.
  Status submit(std::vector<seq::Read> chunk);

  /// Zero-copy variant: full batches are enqueued as views into the
  /// caller's memory, so the reads must stay alive and unmodified until
  /// finish() returns.  Only a trailing partial batch is copied (staged
  /// until more reads arrive).  Used by Aligner::align().
  Status submit(std::span<const seq::Read> chunk);

  /// Flush the final partial batch, drain the pipeline, flush the sink and
  /// hand the session back to its owner (a private pool is joined; a
  /// service session releases its admission reservation and folds its
  /// stats into the service aggregates).  Idempotent; returns the final
  /// session status.
  Status finish();

  /// Cooperatively cancel the session: the sticky status becomes kCancelled,
  /// a submit() blocked on back-pressure returns immediately, queued batches
  /// are discarded, and the in-flight batch aborts at its next stage
  /// boundary — so the sink is left at a batch boundary (the SAM written so
  /// far is a byte-identical prefix of the full run).  Safe from any thread,
  /// idempotent; call finish() afterwards as usual.  A service session's
  /// siblings on the shared pool are unaffected.
  void cancel();

  /// Current session status (sticky first error).
  Status status() const;

  /// Aggregated driver stats across all workers; complete after finish().
  const DriverStats& stats() const;

  /// Paired mode: the session's insert-size distribution, estimated once
  /// from the first options.pe.stat_pairs pairs in submission order (or at
  /// finish() for shorter inputs).  Zero-valued (all classes failed) until
  /// calibration has run; stable afterwards.
  const pair::InsertStats& pair_stats() const;

  /// Observability snapshot: batches/records processed so far, queue-depth
  /// high-water mark and batch-latency quantiles.  Thread-safe; callable
  /// mid-stream.
  StreamMetrics metrics() const;

 private:
  friend class Aligner;
  friend class serve::AlignService;
  /// Runs once, when the finished core leaves its pool.
  using FinishHook = std::function<void(SessionCore& core, bool ok)>;
  Stream(std::shared_ptr<SessionCore> core, FinishHook on_finish);
  explicit Stream(Status open_error);

  FinishHook on_finish_;  // may own the pool: declared before the core
  std::shared_ptr<SessionCore> core_;  // null when the open failed
  Status err_;  // the open error (core_ null)
  bool finished_ = false;
};

/// A validated (index, options) session factory.  Construction never
/// throws: check ok()/status() before use; open()/align() on a failed
/// Aligner return streams/statuses carrying the construction error.
class Aligner {
 public:
  Aligner(const index::Mem2Index& index, DriverOptions options);

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  const DriverOptions& options() const { return options_; }
  const index::Mem2Index& index() const { return index_; }

  /// The @PG-bearing SAM header this session emits.
  std::string sam_header() const;

  /// Open a streaming session writing to `sink`.  Writes the header
  /// immediately, then starts a private pool of options.threads workers.
  /// The sink must outlive the stream.
  Stream open(SamSink& sink) const;

  /// One-shot convenience: open -> submit(reads) -> finish.
  Status align(const std::vector<seq::Read>& reads, SamSink& sink,
               DriverStats* stats = nullptr) const;

 private:
  const index::Mem2Index& index_;
  DriverOptions options_;
  Status status_;
};

}  // namespace mem2::align
