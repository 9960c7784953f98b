// Streaming session front door: the one session handle (Stream) over a
// SessionCore on a SessionPool (session.h, where the concurrency design
// lives), and the Aligner that opens a Stream on a private pool.
// serve::AlignService opens the same Stream on its shared pool.
//
// Output is byte-identical to the one-shot path because batch results are
// independent of chunking (batch-size and thread-count invariance of the
// drivers, enforced by tests/test_pipeline.cpp).
#include "align/aligner.h"

#include <memory>
#include <utility>

#include "align/session.h"

namespace mem2::align {

namespace {
Status empty_handle() { return Status::invalid("empty Stream handle"); }
}  // namespace

Stream::Stream() : err_(empty_handle()) {}
Stream::Stream(std::shared_ptr<SessionCore> core, FinishHook on_finish)
    : on_finish_(std::move(on_finish)), core_(std::move(core)) {}
Stream::Stream(Status open_error) : err_(std::move(open_error)) {}
Stream::Stream(Stream&& other) noexcept { *this = std::move(other); }

Stream& Stream::operator=(Stream&& other) noexcept {
  if (this != &other) {
    if (core_ && !finished_) finish();
    core_ = std::move(other.core_);
    on_finish_ = std::move(other.on_finish_);
    err_ = std::exchange(other.err_, empty_handle());
    finished_ = other.finished_;
  }
  return *this;
}

Stream::~Stream() {
  if (core_ && !finished_) finish();
}

bool Stream::ok() const { return status().ok(); }

Status Stream::status() const {
  return core_ ? core_->snapshot_status() : err_;
}

Status Stream::submit(std::vector<seq::Read> chunk) {
  if (!core_) return err_;
  if (finished_) return Status::invalid("submit() after finish()");
  return core_->submit_owned(std::move(chunk));
}

Status Stream::submit(std::span<const seq::Read> chunk) {
  if (!core_) return err_;
  if (finished_) return Status::invalid("submit() after finish()");
  return core_->submit_view(chunk);
}

Status Stream::finish() {
  if (!core_) return err_;
  if (finished_) return core_->snapshot_status();
  finished_ = true;

  core_->close();
  core_->wait_drained();  // the pool drains this session's queue
  core_->finalize();
  const Status final = core_->snapshot_status();
  // Out of the pool before the handle lets go of the core.
  on_finish_(*core_, final.ok());
  return final;
}

void Stream::cancel() {
  if (!core_) return;
  core_->cancel(
      Status::cancelled("stream cancelled by caller").with_context("cancel"));
}

const DriverStats& Stream::stats() const {
  static const DriverStats empty;
  return core_ ? core_->stats() : empty;
}

const pair::InsertStats& Stream::pair_stats() const {
  static const pair::InsertStats empty;
  return core_ ? core_->pair_stats() : empty;
}

StreamMetrics Stream::metrics() const {
  return core_ ? core_->metrics_snapshot() : StreamMetrics{};
}

Aligner::Aligner(const index::Mem2Index& index, DriverOptions options)
    : index_(index), options_(options) {
  status_ = validate_session(index_, options_);
}

std::string Aligner::sam_header() const { return sam_header_for(index_, options_); }

Stream Aligner::open(SamSink& sink) const {
  if (!status_.ok()) return Stream(status_);
  sink.write_header(sam_header());
  auto pool = std::make_shared<SessionPool>(options_.threads);
  auto core = std::make_shared<SessionCore>(index_, options_, sink, *pool);
  {
    std::lock_guard<std::mutex> lk(pool->mu());
    pool->add_locked(core);
  }
  return Stream(std::move(core), [pool](SessionCore& c, bool) {
    {
      std::lock_guard<std::mutex> lk(pool->mu());
      pool->remove_locked(c);
    }
    pool->stop();
  });
}

Status Aligner::align(const std::vector<seq::Read>& reads, SamSink& sink,
                      DriverStats* stats) const {
  Stream stream = open(sink);
  // Zero-copy: `reads` outlives finish() below, so views are safe.
  const Status submitted = stream.submit(std::span<const seq::Read>(reads));
  const Status finished = stream.finish();
  if (stats) *stats += stream.stats();
  return submitted.ok() ? finished : submitted;
}

}  // namespace mem2::align
