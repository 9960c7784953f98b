// AlignService implementation: admission (fail-fast or bounded FIFO
// queueing), the batch-progress watchdog and graceful shutdown on top of
// one shared align::SessionPool (see align_service.h for the design).
//
// Locking: the pool's mutex is also the service's admission lock, so the
// live list the pool schedules from is the one admission counts.  All
// deadline waits go through the injected util::Clock so the admission/
// watchdog/shutdown paths are testable with a FakeClock.
#include "serve/align_service.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <sstream>
#include <thread>

#include "align/session.h"
#include "util/trace.h"

namespace mem2::serve {

align::Status validate_serve_options(const ServeOptions& options) {
  if (options.workers < 0)
    return align::Status::invalid("serve: workers must be >= 0 (0 = auto)");
  if (options.max_streams < 1)
    return align::Status::invalid("serve: max_streams must be >= 1");
  if (options.max_inflight_batches < 1)
    return align::Status::invalid("serve: max_inflight_batches must be >= 1");
  if (options.admission_timeout_ms < 0)
    return align::Status::invalid(
        "serve: admission_timeout_ms must be >= 0 (0 = fail fast)");
  if (options.max_pending_opens < 0)
    return align::Status::invalid("serve: max_pending_opens must be >= 0");
  if (options.batch_stall_ms < 0)
    return align::Status::invalid(
        "serve: batch_stall_ms must be >= 0 (0 = watchdog off)");
  return align::Status();
}

std::string ServiceMetrics::summary() const {
  std::ostringstream os;
  os << "streams active=" << active_streams << " peak=" << peak_streams
     << " pending=" << pending_opens << " opened=" << streams_opened
     << " rejected=" << streams_rejected << " queued=" << streams_queued
     << " timed_out=" << streams_timed_out
     << " cancelled=" << streams_cancelled
     << " completed=" << streams_completed << " failed=" << streams_failed
     << " | reads=" << reads << " records=" << merged.records
     << " batches=" << merged.batches
     << " write_retries=" << merged.write_retries
     << " bsw_pairs=" << counters.bsw_pairs
     << " smems=" << counters.smems_found;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                " | batch p50=%.1fms p99=%.1fms qwait p50=%.1fms p99=%.1fms",
                merged.p50() * 1e3, merged.p99() * 1e3,
                merged.queue_wait.p50() * 1e3, merged.queue_wait.p99() * 1e3);
  os << buf;
  if (admission_wait.count() > 0) {
    std::snprintf(buf, sizeof buf, " admission p50=%.1fms p99=%.1fms",
                  admission_wait_p50() * 1e3, admission_wait_p99() * 1e3);
    os << buf;
  }
  return os.str();
}

struct AlignService::Impl {
  Impl(const index::Mem2Index& index, const ServeOptions& options, int workers)
      : index(index),
        opts(options),
        clock(options.clock ? options.clock : &util::Clock::real()),
        pool(workers) {}

  const index::Mem2Index& index;
  const ServeOptions opts;
  util::Clock* const clock;
  align::SessionPool pool;
  std::mutex& mu = pool.mu();  // guards everything below and the live list

  int reserved_batches = 0;
  bool shutdown = false;   // destructor: watchdog exits, opens refused
  bool admitting = true;   // shutdown(): new opens rejected, pool keeps going

  // Bounded FIFO admission queue: tickets in arrival order.  A waiter may
  // admit itself only when its ticket is at the front *and* capacity is
  // available; unregister()/timeouts notify admit_cv so the line advances.
  std::deque<std::uint64_t> open_queue;
  std::uint64_t next_ticket = 0;
  std::condition_variable admit_cv;

  // Admission counters + aggregates folded in as sessions retire.
  ServiceMetrics retired;

  std::thread watchdog;
  std::condition_variable watch_cv;  // wakes the watchdog early on shutdown

  const std::vector<std::shared_ptr<align::SessionCore>>& live() const {
    return pool.live_locked();
  }

  bool admissible_locked(int queue_depth) const {
    return static_cast<int>(live().size()) < opts.max_streams &&
           reserved_batches + queue_depth <= opts.max_inflight_batches;
  }

  bool all_idle_locked() const {
    for (const auto& core : live())
      if (!core->idle_locked()) return false;
    return true;
  }

  /// Batch-progress watchdog: cancels (kDeadlineExceeded) any session whose
  /// in-flight batch has gone batch_stall_ms without a stage-boundary
  /// heartbeat.  Sessions with nothing running are never monitored, so an
  /// idle client is not a stalled one; siblings of a cancelled session are
  /// untouched and their output stays byte-identical.
  void watchdog_main() {
    const auto stall = std::chrono::milliseconds(opts.batch_stall_ms);
    const auto poll = std::max<std::chrono::nanoseconds>(
        std::chrono::milliseconds(1), stall / 4);
    std::unique_lock<std::mutex> lk(mu);
    while (!shutdown) {
      const auto now = clock->now();
      for (const auto& core : live()) {
        align::CancelToken& token = core->cancel_token();
        if (core->in_flight_locked() > 0 && !token.cancelled() &&
            now - token.last_beat() >= stall) {
          ++retired.streams_cancelled;
          util::trace_instant("watchdog-fire", core->trace_id());
          core->cancel(
              align::Status::deadline_exceeded(
                  "watchdog: batch made no progress for " +
                  std::to_string(opts.batch_stall_ms) + "ms (batch_stall_ms)")
                  .with_context("watchdog"));
        }
      }
      clock->wait_until(watch_cv, lk, now + poll);
    }
  }

  /// A stream's finish hook: remove the finished session from the pool,
  /// release its reservation (waking queued opens) and fold its stats into
  /// the aggregates.
  void unregister(align::SessionCore& core, bool ok) {
    {
      std::lock_guard<std::mutex> lk(mu);
      pool.remove_locked(core);
      reserved_batches -= core.options().queue_depth;
      const align::DriverStats& s = core.stats();  // stable after finalize()
      retired.reads += s.reads;
      retired.counters += s.counters;
      retired.merged += core.metrics_snapshot();
      ++(ok ? retired.streams_completed : retired.streams_failed);
    }
    // Capacity freed: the front queued open (if any) can admit itself, and
    // shutdown() watches the live count shrink on the same cv.
    admit_cv.notify_all();
  }
};

AlignService::AlignService(const index::Mem2Index& index, ServeOptions options)
    : options_(options) {
  status_ = validate_serve_options(options_);
  if (!status_.ok()) return;
  int workers = options_.workers;
  if (workers == 0)
    workers = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  impl_ = std::make_shared<Impl>(index, options_, workers);
  if (options_.batch_stall_ms > 0)
    impl_->watchdog = std::thread([im = impl_.get()] { im->watchdog_main(); });
}

AlignService::~AlignService() {
  if (!impl_) return;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->shutdown = true;
    impl_->admitting = false;
    for (const auto& core : impl_->live())
      core->fail(align::Status::internal(
          "AlignService destroyed before stream finish()"));
  }
  impl_->admit_cv.notify_all();  // queued opens abandon with an error
  impl_->watch_cv.notify_all();
  if (impl_->watchdog.joinable()) impl_->watchdog.join();
  impl_->pool.stop();
  // Outstanding handles keep impl_ alive via their finish hook and observe
  // the failure; their queues were drained by the pool before it exited.
}

ServiceStream AlignService::open(const align::DriverOptions& options,
                                 align::SamSink& sink) {
  if (!status_.ok()) return ServiceStream(status_);
  if (align::Status st = align::validate_session(impl_->index, options);
      !st.ok())
    return ServiceStream(st);

  Impl& im = *impl_;
  const int qd = options.queue_depth;
  std::shared_ptr<align::SessionCore> core;
  {
    std::unique_lock<std::mutex> lk(im.mu);
    if (im.shutdown || !im.admitting)
      return ServiceStream(
          align::Status::invalid("open() on a shut-down AlignService"));
    // Immediate admission only jumps an *empty* line: with waiters queued,
    // a new arrival goes to the back so admission stays strictly FIFO.
    if (!(im.admissible_locked(qd) && im.open_queue.empty())) {
      if (im.opts.admission_timeout_ms <= 0) {
        // Fail fast (queueing disabled).  The message says what would have
        // helped: capacity frees when a stream finishes, or the caller can
        // opt into bounded waiting.
        ++im.retired.streams_rejected;
        const std::size_t n_live = im.live().size();
        if (static_cast<int>(n_live) >= im.opts.max_streams)
          return ServiceStream(align::Status::resource_exhausted(
              "admission denied: " + std::to_string(n_live) + "/" +
              std::to_string(im.opts.max_streams) +
              " streams already open; enable admission queueing "
              "(admission_timeout_ms) or retry after a stream finishes"));
        return ServiceStream(align::Status::resource_exhausted(
            "admission denied: in-flight batch budget " +
            std::to_string(im.opts.max_inflight_batches) +
            " would be exceeded (" + std::to_string(im.reserved_batches) +
            " reserved + " + std::to_string(qd) +
            " requested); enable admission queueing "
            "(admission_timeout_ms) or retry after a stream finishes"));
      }
      if (static_cast<int>(im.open_queue.size()) >= im.opts.max_pending_opens) {
        ++im.retired.streams_rejected;
        return ServiceStream(align::Status::resource_exhausted(
            "admission queue full: " + std::to_string(im.open_queue.size()) +
            "/" + std::to_string(im.opts.max_pending_opens) +
            " opens already waiting; retry after a stream finishes"));
      }
      const std::uint64_t ticket = im.next_ticket++;
      im.open_queue.push_back(ticket);
      ++im.retired.streams_queued;
      // pid 0: the stream has no trace id until the core is admitted.
      util::TraceSpan wait_span("admission-wait", 0);
      const auto start = im.clock->now();
      const auto deadline =
          start + std::chrono::milliseconds(im.opts.admission_timeout_ms);
      while (!(im.open_queue.front() == ticket && im.admissible_locked(qd)) &&
             im.admitting && !im.shutdown && im.clock->now() < deadline)
        im.clock->wait_until(im.admit_cv, lk, deadline);
      const bool admitted = im.open_queue.front() == ticket &&
                            im.admissible_locked(qd) && im.admitting &&
                            !im.shutdown;
      im.open_queue.erase(
          std::find(im.open_queue.begin(), im.open_queue.end(), ticket));
      wait_span.finish();
      const double waited =
          std::chrono::duration<double>(im.clock->now() - start).count();
      im.retired.admission_wait.record(waited);
      if (!admitted) {
        // Whether we timed out or the line moved on without us, the next
        // waiter may now be admissible.
        im.admit_cv.notify_all();
        ++im.retired.streams_rejected;
        if (im.shutdown || !im.admitting)
          return ServiceStream(align::Status::resource_exhausted(
              "admission abandoned: service shutting down"));
        ++im.retired.streams_timed_out;
        return ServiceStream(align::Status::resource_exhausted(
            "admission timed out after " +
            std::to_string(im.opts.admission_timeout_ms) +
            "ms waiting for capacity (" + std::to_string(im.live().size()) +
            "/" + std::to_string(im.opts.max_streams) + " streams, " +
            std::to_string(im.reserved_batches) + "/" +
            std::to_string(im.opts.max_inflight_batches) +
            " batches reserved); retry after a stream finishes"));
      }
      // Admitted from the queue; let the new front re-check capacity.
      im.admit_cv.notify_all();
    }
    im.reserved_batches += qd;
    core = std::make_shared<align::SessionCore>(im.index, options, sink,
                                                im.pool, im.clock);
    im.pool.add_locked(core);
    ++im.retired.streams_opened;
    im.retired.peak_streams = std::max(im.retired.peak_streams,
                                       static_cast<int>(im.live().size()));
  }
  try {
    sink.write_header(align::sam_header_for(im.index, options));
  } catch (const std::exception& e) {
    core->fail(align::Status::from_exception(e).with_context("sam-header"));
  } catch (...) {
    core->fail(align::Status::internal("unknown error writing SAM header")
                   .with_context("sam-header"));
  }
  return ServiceStream(std::move(core),
                       [impl = impl_](align::SessionCore& c, bool ok) {
                         impl->unregister(c, ok);
                       });
}

align::Status AlignService::shutdown(std::chrono::milliseconds grace) {
  if (!impl_) return status_;
  Impl& im = *impl_;
  std::unique_lock<std::mutex> lk(im.mu);
  im.admitting = false;
  im.admit_cv.notify_all();  // queued opens abandon with kResourceExhausted

  // Phase 1: wait up to `grace` for clients to finish their streams
  // (finish() -> unregister() notifies admit_cv as the live set shrinks).
  const auto deadline = im.clock->now() + grace;
  while (!im.live().empty() && im.clock->now() < deadline)
    im.clock->wait_until(im.admit_cv, lk, deadline);
  if (im.live().empty()) return align::Status();

  // Phase 2: grace expired — cancel the stragglers.  Their handles report
  // kCancelled; their in-flight batches abort at the next stage boundary.
  std::size_t cancelled = 0;
  for (const auto& core : im.live()) {
    if (!core->cancel_token().cancelled()) {
      ++im.retired.streams_cancelled;
      ++cancelled;
    }
    core->cancel(align::Status::cancelled("cancelled by service shutdown")
                     .with_context("shutdown"));
  }

  // Phase 3: wait for the cancelled sessions' queues to drain so the sinks
  // sit at batch boundaries.  Cancellation guarantees progress (workers
  // discard queued batches of a failed session), so this terminates; the
  // short re-arm keeps a FakeClock from parking us forever.
  while (!im.all_idle_locked())
    im.clock->wait_until(im.admit_cv, lk,
                         im.clock->now() + std::chrono::milliseconds(2));
  return align::Status::deadline_exceeded(
      "shutdown grace expired; cancelled " + std::to_string(cancelled) +
      " live stream(s)");
}

ServiceMetrics AlignService::metrics() const {
  ServiceMetrics m;
  if (!impl_) return m;
  std::lock_guard<std::mutex> lk(impl_->mu);
  m = impl_->retired;
  m.active_streams = static_cast<int>(impl_->live().size());
  m.pending_opens = static_cast<int>(impl_->open_queue.size());
  for (const auto& core : impl_->live()) {
    // Live running totals: records/batches/counters move as batches
    // complete; a session's read count lands when it finishes.
    m.counters += core->stats_snapshot().counters;
    m.merged += core->metrics_snapshot();
  }
  return m;
}

}  // namespace mem2::serve
