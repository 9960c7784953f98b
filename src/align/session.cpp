// SessionPool and SessionCore: the worker loop and the queueing/
// calibration/reassembly engine of every streaming session (see session.h).
//
// Concurrency design:
//   - The producer carves reads into batch_size batches and enqueues them;
//     the queue holds at most queue_depth batches, so the producer blocks
//     instead of buffering unbounded input.
//   - A pool worker pops one batch, aligns it with its own
//     BatchWorkspace, then inserts the flattened records into a reorder
//     buffer keyed by batch sequence number.  Whichever worker completes
//     the next-in-order batch drains the buffer to the sink under emit_mu_,
//     so records always reach the sink in read order.
//   - Errors are sticky: the first failure is recorded, wakes any blocked
//     producer, and suppresses all further sink writes.  Workers keep
//     draining the queue after a failure so back-pressure never deadlocks,
//     and the ordered writer stops at the first missing batch, leaving the
//     sink at a batch boundary.  Failure is per-session: siblings sharing
//     the pool (serve::AlignService) never observe it.
//
// Locking: the pool's mutex guards its live list and every one of its
// cores' queues.  Lock order is pool mu -> core state_mu -> token mutex (a
// leaf); emit locks are per-core and never nest with the pool mutex.
// Batch processing itself runs with no lock held.
#include "align/session.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "pair/pairing.h"
#include "util/common.h"
#include "util/fault_injector.h"
#include "util/retry.h"
#include "util/trace.h"
#include "util/tsc.h"

namespace mem2::align {

namespace {
/// Process-unique stream ids for trace attribution; 0 is reserved for
/// non-stream (process-scope) work.
std::atomic<std::uint32_t> g_next_trace_id{1};
}  // namespace

StreamMetrics& StreamMetrics::operator+=(const StreamMetrics& o) {
  batches += o.batches;
  records += o.records;
  write_retries += o.write_retries;
  queue_hwm = std::max(queue_hwm, o.queue_hwm);
  batch_latency += o.batch_latency;
  queue_wait += o.queue_wait;
  for (std::size_t s = 0; s < kStages; ++s) stage_seconds[s] += o.stage_seconds[s];
  return *this;
}

Status validate_session(const index::Mem2Index& index,
                        const DriverOptions& options) {
  if (Status st = validate_driver_options(options); !st.ok()) return st;
  // Index capability checks, surfaced at session setup instead of from a
  // worker thread mid-stream.
  if (options.mode == Mode::kBatch) {
    if (!index.has_cp32())
      return Status::invalid("batch driver needs the CP32 index");
    if (!index.has_flat_sa())
      return Status::invalid("batch driver needs the flat SA");
  } else if (!index.has_cp128()) {
    return Status::invalid("baseline driver needs the CP128 index");
  }
  return Status();
}

SessionPool::SessionPool(int workers) {
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w)
    threads_.emplace_back([this] { worker_main(); });
}

SessionPool::~SessionPool() { stop(); }

void SessionPool::add_locked(std::shared_ptr<SessionCore> core) {
  live_.push_back(std::move(core));
}

void SessionPool::remove_locked(const SessionCore& core) {
  std::erase_if(live_, [&](const auto& c) { return c.get() == &core; });
}

void SessionPool::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_)
    if (t.joinable()) t.join();
}

bool SessionPool::has_work_locked() const {
  for (const auto& core : live_)
    if (core->has_work_locked()) return true;
  return false;
}

std::shared_ptr<SessionCore> SessionPool::pick_locked() {
  const std::size_t n = live_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (cursor_ + k) % n;
    if (live_[i]->has_work_locked()) {
      cursor_ = (i + 1) % n;
      return live_[i];
    }
  }
  return nullptr;
}

void SessionPool::worker_main() {
  BatchWorkspace workspace;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] { return stopping_ || has_work_locked(); });
    auto core = pick_locked();
    if (!core) break;  // stopping, and every queue is drained
    auto item = core->pop_locked();
    lk.unlock();
    core->process(std::move(item), workspace);
    core.reset();  // drop the ref before re-locking (finish may remove it)
    lk.lock();
  }
}

SessionCore::SessionCore(const index::Mem2Index& index, DriverOptions options,
                         SamSink& sink, SessionPool& pool, util::Clock* clock)
    : index_(index),
      trace_id_(g_next_trace_id.fetch_add(1, std::memory_order_relaxed)),
      options_(std::move(options)),
      worker_options_(options_),
      sink_(sink),
      pool_(pool),
      clock_(clock ? clock : &util::Clock::real()),
      cancel_token_(clock_) {
  // With several workers available the parallelism comes from concurrent
  // batches: each batch runs serially inside.  With one worker, behave
  // exactly like the one-shot driver.
  if (pool.size() > 1) worker_options_.threads = 1;
}

void SessionCore::fail(Status st) {
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (status_.ok()) status_ = std::move(st);
  }
  failed_.store(true, std::memory_order_release);
  q_not_full_.notify_all();
}

void SessionCore::cancel(Status reason) {
  // Order matters: the sticky status must be set before the token fires so
  // a checkpoint-aborted worker that calls fail(from_exception) can never
  // overwrite the cancel reason with the generic cancelled_error mapping.
  fail(reason);
  cancel_token_.cancel(std::move(reason));
  util::trace_instant("cancel", trace_id_);
}

Status SessionCore::snapshot_status() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  return status_;
}

DriverStats SessionCore::stats_snapshot() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  return stats_;
}

StreamMetrics SessionCore::metrics_snapshot() const {
  StreamMetrics m;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    m = metrics_;
  }
  m.queue_hwm = queue_hwm_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(emit_mu_);
    m.records = records_written_;
  }
  return m;
}

Status SessionCore::enqueue(SessionWorkItem item) {
  std::unique_lock<std::mutex> lk(pool_.mu());
  q_not_full_.wait(lk, [&] {
    return static_cast<int>(queue_.size()) < options_.queue_depth ||
           failed_.load(std::memory_order_acquire);
  });
  if (failed_.load(std::memory_order_acquire)) return snapshot_status();
  item.seq = next_seq_++;
  item.enqueued = clock_->now();
  item.enqueued_tsc = util::tsc_now();
  queue_.push_back(std::move(item));
  if (queue_.size() > queue_hwm_.load(std::memory_order_relaxed))
    queue_hwm_.store(queue_.size(), std::memory_order_relaxed);
  lk.unlock();
  pool_.work_cv().notify_one();
  return Status();
}

Status SessionCore::enqueue_owned(std::vector<seq::Read> reads) {
  SessionWorkItem item;
  item.owned = std::move(reads);
  item.reads = item.owned;
  return enqueue(std::move(item));
}

Status SessionCore::ingest(std::vector<seq::Read>&& chunk) {
  const auto batch = static_cast<std::size_t>(options_.batch_size);
  if (staging_.capacity() < batch) staging_.reserve(batch);
  for (auto& r : chunk) {
    staging_.push_back(std::move(r));
    if (staging_.size() == batch) {
      std::vector<seq::Read> full;
      full.reserve(batch);
      full.swap(staging_);
      if (Status st = enqueue_owned(std::move(full)); !st.ok()) return st;
    }
  }
  return Status();
}

Status SessionCore::run_calibration() {
  try {
    const std::size_t n_pairs = std::min<std::size_t>(
        static_cast<std::size_t>(options_.pe.stat_pairs), calib_.size() / 2);
    if (n_pairs > 0) {
      DriverOptions copt = options_;
      copt.paired = false;
      BatchWorkspace cws;
      std::vector<std::vector<AlnReg>> regs;
      collect_regions(index_, std::span(calib_.data(), 2 * n_pairs), copt, cws,
                      regs);
      std::vector<pair::InsertSample> samples;
      samples.reserve(n_pairs);
      for (std::size_t p = 0; p < n_pairs; ++p) {
        pair::InsertSample s;
        if (pair::pair_sample(options_.mem, options_.pe, index_.l_pac(),
                              regs[2 * p], regs[2 * p + 1], &s))
          samples.push_back(s);
      }
      pe_stats_ = pair::estimate_insert_stats(samples, options_.pe);
    }
  } catch (const std::exception& e) {
    fail(Status::from_exception(e).with_context(
        "calibration", calib_.empty() ? std::string() : calib_.front().name));
    return snapshot_status();
  }
  pe_ready_ = true;
  std::vector<seq::Read> buffered;
  buffered.swap(calib_);
  return ingest(std::move(buffered));
}

Status SessionCore::submit_owned(std::vector<seq::Read> chunk) {
  // `failed_` is set (release) only after `status_` is written under
  // state_mu_, so it is the lock-free guard for the sticky error.
  if (failed_.load(std::memory_order_acquire)) return snapshot_status();

  reads_submitted_ += chunk.size();
  if (options_.paired && !pe_ready_) {
    // Buffer until the calibration prefix is complete; nothing reaches the
    // workers before the insert-size prior is fixed.
    for (auto& r : chunk) calib_.push_back(std::move(r));
    if (calib_.size() >= 2 * static_cast<std::size_t>(options_.pe.stat_pairs))
      return run_calibration();
    return Status();
  }
  return ingest(std::move(chunk));
}

Status SessionCore::submit_view(std::span<const seq::Read> chunk) {
  if (failed_.load(std::memory_order_acquire)) return snapshot_status();

  reads_submitted_ += chunk.size();
  if (options_.paired && !pe_ready_) {
    // Calibration buffers by copy; zero-copy resumes once the prior is set.
    calib_.insert(calib_.end(), chunk.begin(), chunk.end());
    if (calib_.size() >= 2 * static_cast<std::size_t>(options_.pe.stat_pairs))
      return run_calibration();
    return Status();
  }
  const auto batch = static_cast<std::size_t>(options_.batch_size);

  // Top up a partially staged batch first (copying) to preserve order.
  while (!staging_.empty() && !chunk.empty()) {
    staging_.push_back(chunk.front());
    chunk = chunk.subspan(1);
    if (staging_.size() == batch) {
      std::vector<seq::Read> full;
      full.reserve(batch);
      full.swap(staging_);
      if (Status st = enqueue_owned(std::move(full)); !st.ok()) return st;
    }
  }
  // Full batches go in as views of the caller's memory — no copy.
  while (chunk.size() >= batch) {
    SessionWorkItem item;
    item.reads = chunk.first(batch);
    chunk = chunk.subspan(batch);
    if (Status st = enqueue(std::move(item)); !st.ok()) return st;
  }
  // Stage the tail (< batch_size) until more reads arrive or close().
  if (!chunk.empty()) {
    if (staging_.capacity() < batch) staging_.reserve(batch);
    staging_.insert(staging_.end(), chunk.begin(), chunk.end());
  }
  return Status();
}

void SessionCore::close() {
  if (options_.paired && !failed_.load(std::memory_order_acquire)) {
    if (reads_submitted_ % 2 != 0)
      fail(Status::invalid(
          "paired input requires an even number of reads (adjacent R1/R2 mates)"));
    else if (!pe_ready_)
      run_calibration();  // short input: calibrate on what we have
  }
  if (!failed_.load(std::memory_order_acquire) && !staging_.empty())
    enqueue_owned(std::move(staging_));
  staging_.clear();
  calib_.clear();

  {
    std::lock_guard<std::mutex> lk(pool_.mu());
    closed_ = true;
  }
  pool_.work_cv().notify_all();
}

void SessionCore::wait_drained() {
  std::unique_lock<std::mutex> lk(pool_.mu());
  drained_cv_.wait(lk, [&] { return queue_.empty() && in_flight_ == 0; });
}

void SessionCore::finalize() {
  stats_.reads += reads_submitted_;
  if (!failed_.load(std::memory_order_acquire)) {
    try {
      sink_.flush();
    } catch (const std::exception& e) {
      fail(Status::from_exception(e).with_context("sam-flush"));
    } catch (...) {
      fail(Status::internal("unknown error flushing SAM output")
               .with_context("sam-flush"));
    }
  }
}

SessionWorkItem SessionCore::pop_locked() {
  SessionWorkItem item = std::move(queue_.front());
  queue_.pop_front();
  ++in_flight_;
  cancel_token_.beat();  // the watchdog's "work started" heartbeat
  q_not_full_.notify_one();
  return item;
}

void SessionCore::retire_locked() {
  --in_flight_;
  if (queue_.empty() && in_flight_ == 0) drained_cv_.notify_all();
}

void SessionCore::process(SessionWorkItem item, BatchWorkspace& workspace) {
  // All spans this batch emits (including those from OpenMP threads the
  // pipeline re-seeds) land in this stream's Chrome lane.
  util::TraceStreamScope trace_scope(trace_id_);
  const double queue_wait =
      std::chrono::duration<double>(clock_->now() - item.enqueued).count();
  util::trace_interval("queue-wait", item.enqueued_tsc, util::tsc_now(),
                       trace_id_);
  if (!failed_.load(std::memory_order_acquire)) {
    util::TraceSpan batch_span("batch");
    const std::string first_read =
        item.reads.empty() ? std::string() : item.reads.front().name;
    std::vector<io::SamRecord> flat;
    DriverStats batch_stats;
    bool aligned = false;
    try {
      if (util::fault_point("align.worker"))
        throw invariant_error("injected fault: align.worker");
      if (util::fault_point("align.worker.stall")) {
        // Models a wedged batch: block until the session is cancelled (by
        // Stream::cancel(), the serve watchdog, or shutdown), then abort
        // cooperatively — the stall stays cancellable, never un-joinable.
        cancel_token_.wait_cancelled();
        throw cancelled_error("injected stall: align.worker.stall");
      }
      std::vector<std::vector<io::SamRecord>> per_read;
      align_chunk(index_, item.reads, worker_options_,
                  options_.paired ? &pe_stats_ : nullptr, workspace, per_read,
                  &batch_stats, &cancel_token_);

      std::size_t total = 0;
      for (const auto& v : per_read) total += v.size();
      flat.reserve(total);
      for (auto& v : per_read)
        for (auto& rec : v) flat.push_back(std::move(rec));
      aligned = true;
    } catch (const std::exception& e) {
      fail(Status::from_exception(e).with_context(
          "align-worker batch " + std::to_string(item.seq), first_read));
    } catch (...) {
      fail(Status::internal("unknown error in alignment worker")
               .with_context("align-worker batch " + std::to_string(item.seq),
                             first_read));
    }

    std::uint64_t write_retries = 0;
    if (aligned) {
      try {
        // Ordered emit: park the batch, then drain every consecutive
        // ready batch starting at next_emit_.  A failed batch never parks,
        // so output stays at a batch boundary behind the failure point.
        std::lock_guard<std::mutex> lk(emit_mu_);
        pending_.emplace(item.seq, std::move(flat));
        for (auto it = pending_.find(next_emit_); it != pending_.end();
             it = pending_.find(next_emit_)) {
          if (!failed_.load(std::memory_order_acquire)) {
            const std::size_t n = it->second.size();
            // Transient write failures (io_error only) are re-driven with
            // bounded backoff when the policy and the sink allow it; the
            // sink rewrites its retained batch buffer, so a retried batch
            // reaches the output exactly once.  Exhausted retries rethrow
            // the last io_error into the sam-emit failure path below.
            util::RetryPolicy policy = options_.sink_retry;
            if (!sink_.can_retry_writes()) policy.max_attempts = 1;
            auto& sink = sink_;
            auto& records = it->second;
            util::TraceSpan write_span("sink-write");
            const int attempts = util::with_retry(
                policy,
                [&](int attempt) {
                  if (attempt == 1)
                    sink.write_records(std::move(records));
                  else {
                    util::trace_instant("sink-retry", trace_id_);
                    sink.retry_write();
                  }
                },
                [](const std::exception& e) {
                  return dynamic_cast<const io_error*>(&e) != nullptr;
                });
            write_span.finish();
            write_retries += static_cast<std::uint64_t>(attempts - 1);
            records_written_ += n;
          }
          pending_.erase(it);
          ++next_emit_;
        }
      } catch (const std::exception& e) {
        fail(Status::from_exception(e).with_context("sam-emit", first_read));
      } catch (...) {
        fail(Status::internal("unknown error writing SAM output")
                 .with_context("sam-emit", first_read));
      }
    }

    const double latency =
        std::chrono::duration<double>(clock_->now() - item.enqueued).count();
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      stats_ += batch_stats;
      ++metrics_.batches;
      metrics_.write_retries += write_retries;
      metrics_.batch_latency.record(latency);
      metrics_.queue_wait.record(queue_wait);
      for (std::size_t s = 0; s < StreamMetrics::kStages; ++s) {
        const double sec = batch_stats.stages.seconds[s];
        if (sec > 0) metrics_.stage_seconds[s].record(sec);
      }
    }
  }

  std::lock_guard<std::mutex> lk(pool_.mu());
  retire_locked();
}

}  // namespace mem2::align
