// Deadlines, cancellation and graceful degradation (ISSUE: resilience
// layer).  Everything time-dependent runs on an injected util::FakeClock /
// FakeSleeper, so these tests assert deadline behavior deterministically:
// no real sleeps decide an outcome, only explicit advance() calls.
//
//   - util::with_retry: bounded attempts, geometric capped backoff,
//     non-transient errors rethrow immediately.
//   - Stream::cancel(): a submit() blocked on back-pressure unblocks, the
//     in-flight batch aborts at a stage boundary, and the SAM written so
//     far is a byte-identical prefix of the full run at a batch boundary.
//   - Admission queueing: FIFO order, bounded queue, deadline timeouts and
//     queue-wait metrics.
//   - The serve watchdog cancels exactly the stalled session
//     (kDeadlineExceeded) while siblings stay byte-identical to solo.
//   - Transient sam.write faults are absorbed by the sink retry policy
//     (byte-identical output); exhausted retries surface kIoError.
//   - AlignService::shutdown(grace): drains, then cancels stragglers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "align/aligner.h"
#include "seq/genome_sim.h"
#include "seq/read_sim.h"
#include "serve/align_service.h"
#include "util/clock.h"
#include "util/fault_injector.h"
#include "util/retry.h"

namespace mem2 {
namespace {

using align::ErrorCode;
using std::chrono::milliseconds;

struct ResilienceFixture {
  index::Mem2Index index;
  std::vector<std::vector<seq::Read>> sets;  // 4 distinct SE read sets

  ResilienceFixture() {
    seq::GenomeConfig g;
    g.seed = 20260808;
    g.contig_lengths = {50000};
    g.repeat_fraction = 0.2;
    index = index::Mem2Index::build(seq::simulate_genome(g));
    for (unsigned s = 0; s < 4; ++s) {
      seq::ReadSimConfig r;
      r.seed = 700 + s;
      r.num_reads = 120;
      r.read_length = 101;
      r.name_prefix = "res" + std::to_string(s) + "_";
      sets.push_back(seq::simulate_reads(index.ref(), r));
    }
  }
};

const ResilienceFixture& fx() {
  static ResilienceFixture f;
  return f;
}

struct ArmedFault {
  explicit ArmedFault(const std::string& spec) {
    EXPECT_TRUE(util::FaultInjector::instance().arm(spec)) << spec;
  }
  ~ArmedFault() { util::FaultInjector::instance().disarm(); }
};

align::DriverOptions stream_options(int batch = 32, int queue_depth = 4) {
  align::DriverOptions opt;
  opt.mode = align::Mode::kBatch;
  opt.batch_size = batch;
  opt.queue_depth = queue_depth;
  opt.threads = 1;
  return opt;
}

std::string solo_sam(const std::vector<seq::Read>& reads,
                     const align::DriverOptions& opt) {
  std::ostringstream os;
  align::OstreamSamSink sink(os);
  const align::Aligner aligner(fx().index, opt);
  EXPECT_TRUE(aligner.ok()) << aligner.status().to_string();
  EXPECT_TRUE(aligner.align(reads, sink).ok());
  return os.str();
}

/// Submit `reads` in `chunk`-sized pieces; returns the first non-ok submit
/// status, or the finish status.  Works for both stream flavors.
template <class StreamT>
align::Status drive(StreamT& stream, const std::vector<seq::Read>& reads,
                    std::size_t chunk) {
  for (std::size_t i = 0; i < reads.size(); i += chunk) {
    const std::size_t end = std::min(reads.size(), i + chunk);
    std::vector<seq::Read> piece(reads.begin() + static_cast<std::ptrdiff_t>(i),
                                 reads.begin() + static_cast<std::ptrdiff_t>(end));
    if (auto st = stream.submit(std::move(piece)); !st.ok()) return st;
  }
  return stream.finish();
}

/// Bounded real-time poll for cross-thread conditions the FakeClock cannot
/// drive (e.g. "the injected stall has engaged").  Never decides a deadline
/// outcome — only sequencing.
template <class Pred>
bool poll_for(Pred&& pred, int timeout_ms = 10000) {
  for (int i = 0; i < timeout_ms && !pred(); ++i)
    std::this_thread::sleep_for(milliseconds(1));
  return pred();
}

// ---------------------------------------------------------------------------
// util::with_retry

struct Transient {
  int fail_first;  // throw io_error on the first N attempts
  int calls = 0;
  void operator()(int) {
    if (++calls <= fail_first) throw io_error("transient");
  }
};

bool is_io(const std::exception& e) {
  return dynamic_cast<const io_error*>(&e) != nullptr;
}

TEST(Retry, FirstAttemptSuccessDoesNotSleep) {
  util::FakeSleeper sleeper;
  util::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.sleeper = &sleeper;
  Transient op{0};
  EXPECT_EQ(util::with_retry(policy, op, is_io), 1);
  EXPECT_TRUE(sleeper.slept().empty());
}

TEST(Retry, GeometricBackoffUntilRecovery) {
  util::FakeSleeper sleeper;
  util::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = milliseconds(2);
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = milliseconds(100);
  policy.sleeper = &sleeper;
  Transient op{2};  // attempts 1 and 2 fail, 3 succeeds
  EXPECT_EQ(util::with_retry(policy, op, is_io), 3);
  const auto slept = sleeper.slept();
  ASSERT_EQ(slept.size(), 2u);
  EXPECT_EQ(slept[0], milliseconds(2));
  EXPECT_EQ(slept[1], milliseconds(4));
}

TEST(Retry, BackoffIsCappedAtMax) {
  util::FakeSleeper sleeper;
  util::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = milliseconds(40);
  policy.backoff_multiplier = 4.0;
  policy.max_backoff = milliseconds(100);
  policy.sleeper = &sleeper;
  Transient op{10};
  EXPECT_THROW(util::with_retry(policy, op, is_io), io_error);
  const auto slept = sleeper.slept();
  ASSERT_EQ(slept.size(), 3u);  // attempts 1-3 failed and backed off; 4 threw
  EXPECT_EQ(slept[0], milliseconds(40));
  EXPECT_EQ(slept[1], milliseconds(100));  // 160 capped
  EXPECT_EQ(slept[2], milliseconds(100));
}

TEST(Retry, FirstSleepIsClampedWhenInitialExceedsMax) {
  // Regression: the first sleep used initial_backoff unclamped, so a
  // policy with initial_backoff > max_backoff overslept its own cap once.
  util::FakeSleeper sleeper;
  util::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = milliseconds(500);
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = milliseconds(100);
  policy.sleeper = &sleeper;
  Transient op{10};
  EXPECT_THROW(util::with_retry(policy, op, is_io), io_error);
  const auto slept = sleeper.slept();
  ASSERT_EQ(slept.size(), 3u);
  EXPECT_EQ(slept[0], milliseconds(100));  // clamped before the first sleep
  EXPECT_EQ(slept[1], milliseconds(100));
  EXPECT_EQ(slept[2], milliseconds(100));
}

TEST(Retry, NonTransientErrorRethrowsImmediately) {
  util::FakeSleeper sleeper;
  util::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.sleeper = &sleeper;
  int calls = 0;
  EXPECT_THROW(util::with_retry(
                   policy,
                   [&](int) {
                     ++calls;
                     throw invariant_error("permanent");
                   },
                   is_io),
               invariant_error);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(sleeper.slept().empty());
}

TEST(Retry, DefaultPolicyIsSingleAttempt) {
  util::RetryPolicy policy;  // max_attempts = 1: today's fail-stop behavior
  EXPECT_FALSE(policy.enabled());
  int calls = 0;
  EXPECT_THROW(util::with_retry(
                   policy,
                   [&](int) {
                     ++calls;
                     throw io_error("x");
                   },
                   is_io),
               io_error);
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------------
// Status taxonomy for the new codes

TEST(Resilience, DeadlineAndCancelledStatusCodes) {
  const auto dl = align::Status::deadline_exceeded("too slow");
  EXPECT_EQ(dl.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(dl.to_string(), "[deadline-exceeded]: too slow");
  const auto ca = align::Status::cancelled("stop");
  EXPECT_EQ(ca.code(), ErrorCode::kCancelled);
  EXPECT_EQ(ca.to_string(), "[cancelled]: stop");
  // cancelled_error maps onto kCancelled, round-trip through throw_status.
  const auto mapped =
      align::Status::from_exception(cancelled_error("batch cancelled"));
  EXPECT_EQ(mapped.code(), ErrorCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation (Aligner stream, private pool)

TEST(Resilience, CancelUnblocksSubmitAndLeavesBatchBoundaryPrefix) {
  // queue_depth=1, one worker, third batch wedges on the injected stall:
  // batches 1-2 emit, the producer blocks on back-pressure, cancel() must
  // unblock it and leave the SAM a byte-identical prefix of the solo run.
  const auto opt = stream_options(32, 1);
  const std::string full = solo_sam(fx().sets[0], opt);

  ArmedFault fault("align.worker.stall:3");
  std::ostringstream os;
  align::OstreamSamSink sink(os);
  const align::Aligner aligner(fx().index, opt);
  ASSERT_TRUE(aligner.ok());
  align::Stream stream = aligner.open(sink);

  align::Status client_st;
  std::thread client(
      [&] { client_st = drive(stream, fx().sets[0], 30); });

  // Batch 3 has engaged the stall (batches 1-2 are already emitted: one
  // worker processes in order).
  ASSERT_TRUE(poll_for([] {
    return util::FaultInjector::instance().hits("align.worker.stall") >= 3;
  }));
  stream.cancel();
  client.join();  // must return: cancel() wakes the blocked producer

  EXPECT_EQ(client_st.code(), ErrorCode::kCancelled);
  EXPECT_EQ(stream.finish().code(), ErrorCode::kCancelled);
  EXPECT_NE(stream.status().message().find("cancelled by caller"),
            std::string::npos);

  const std::string prefix = os.str();
  EXPECT_EQ(sink.records_written(), 64u);  // exactly batches 1 and 2
  ASSERT_LT(prefix.size(), full.size());
  EXPECT_EQ(full.compare(0, prefix.size(), prefix), 0)
      << "cancelled output is not a byte-identical prefix";
}

TEST(Resilience, ServiceStreamCancelIsIsolatedFromSiblings) {
  const auto opt = stream_options();
  const std::string expected = solo_sam(fx().sets[1], opt);

  serve::ServeOptions sopt;
  sopt.workers = 2;
  serve::AlignService service(fx().index, sopt);
  ASSERT_TRUE(service.ok());

  ArmedFault fault("align.worker.stall:1");
  std::ostringstream victim_out, sibling_out;
  align::OstreamSamSink victim_sink(victim_out), sibling_sink(sibling_out);
  serve::ServiceStream victim = service.open(opt, victim_sink);
  ASSERT_TRUE(victim.ok());

  align::Status victim_st;
  std::thread victim_client(
      [&] { victim_st = drive(victim, fx().sets[0], 25); });
  ASSERT_TRUE(poll_for([] {
    return util::FaultInjector::instance().hits("align.worker.stall") >= 1;
  }));

  // A sibling opened and driven while the victim is wedged is untouched.
  serve::ServiceStream sibling = service.open(opt, sibling_sink);
  ASSERT_TRUE(sibling.ok());
  EXPECT_TRUE(drive(sibling, fx().sets[1], 17).ok());
  EXPECT_EQ(sibling_out.str(), expected);

  victim.cancel();
  victim_client.join();
  EXPECT_EQ(victim_st.code(), ErrorCode::kCancelled);
  EXPECT_EQ(victim.finish().code(), ErrorCode::kCancelled);
  const auto m = service.metrics();
  EXPECT_EQ(m.streams_completed, 1u);
  EXPECT_EQ(m.streams_failed, 1u);
}

// ---------------------------------------------------------------------------
// Admission queueing (FIFO, bounded, deadline on a FakeClock)

TEST(Resilience, AdmissionQueueIsFifoBoundedAndTimesOut) {
  util::FakeClock clock;
  serve::ServeOptions sopt;
  sopt.workers = 1;
  sopt.max_streams = 1;
  sopt.admission_timeout_ms = 500;
  sopt.max_pending_opens = 2;
  sopt.clock = &clock;
  serve::AlignService service(fx().index, sopt);
  ASSERT_TRUE(service.ok());

  const auto opt = stream_options();
  align::CollectSamSink sa, sb, sc, sd;
  serve::ServiceStream a = service.open(opt, sa);
  ASSERT_TRUE(a.ok());

  // B then C queue behind the capacity held by A (strict FIFO).
  serve::ServiceStream b, c;
  std::atomic<bool> b_done{false}, c_done{false};
  std::thread tb([&] {
    b = service.open(opt, sb);
    b_done.store(true);
  });
  ASSERT_TRUE(poll_for([&] { return service.metrics().pending_opens == 1; }));
  std::thread tc([&] {
    c = service.open(opt, sc);
    c_done.store(true);
  });
  ASSERT_TRUE(poll_for([&] { return service.metrics().pending_opens == 2; }));

  // The queue is bounded: a third waiter is refused fast, not enqueued.
  serve::ServiceStream d = service.open(opt, sd);
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(d.status().message().find("admission queue full"),
            std::string::npos);

  // Capacity frees -> B (the front of the line) is admitted; C keeps
  // waiting.  No fake-time has passed, so nothing may time out.
  EXPECT_TRUE(drive(a, fx().sets[0], 40).ok());
  ASSERT_TRUE(poll_for([&] { return b_done.load(); }));
  tb.join();
  EXPECT_TRUE(b.ok()) << b.status().to_string();
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(c_done.load()) << "C overtook B or timed out on real time";

  // Virtual time passes the deadline -> C times out with the documented
  // retry guidance.
  clock.advance(milliseconds(600));
  ASSERT_TRUE(poll_for([&] { return c_done.load(); }));
  tc.join();
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(c.status().message().find("admission timed out after 500ms"),
            std::string::npos);
  EXPECT_NE(c.status().message().find("retry after a stream finishes"),
            std::string::npos);

  EXPECT_TRUE(drive(b, fx().sets[1], 40).ok());
  const auto m = service.metrics();
  EXPECT_EQ(m.streams_opened, 2u);
  EXPECT_EQ(m.streams_queued, 2u);
  EXPECT_EQ(m.streams_timed_out, 1u);
  EXPECT_EQ(m.streams_rejected, 2u);  // D (queue full) + C (timeout)
  EXPECT_EQ(m.pending_opens, 0);
  ASSERT_EQ(m.admission_wait.count(), 2u);  // B and C went via queue
  EXPECT_GE(m.admission_wait_p99(), m.admission_wait_p50());
  EXPECT_NE(m.summary().find("timed_out=1"), std::string::npos);
}

TEST(Resilience, FailFastAdmissionMessageMentionsQueueing) {
  serve::ServeOptions sopt;
  sopt.workers = 1;
  sopt.max_streams = 1;  // admission_timeout_ms stays 0: fail-fast
  serve::AlignService service(fx().index, sopt);
  align::CollectSamSink s1, s2;
  const auto opt = stream_options();
  serve::ServiceStream a = service.open(opt, s1);
  ASSERT_TRUE(a.ok());
  serve::ServiceStream b = service.open(opt, s2);
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_NE(b.status().message().find("admission_timeout_ms"),
            std::string::npos);
  EXPECT_NE(b.status().message().find("retry after a stream finishes"),
            std::string::npos);
  EXPECT_TRUE(a.finish().ok());
}

// ---------------------------------------------------------------------------
// Watchdog

TEST(Resilience, WatchdogCancelsExactlyTheStalledSession) {
  util::FakeClock clock;
  serve::ServeOptions sopt;
  sopt.workers = 2;
  sopt.batch_stall_ms = 500;
  sopt.clock = &clock;
  serve::AlignService service(fx().index, sopt);
  ASSERT_TRUE(service.ok());

  const auto opt = stream_options();
  ArmedFault fault("align.worker.stall:1");

  // The victim wedges on its first batch; its producer eventually parks on
  // back-pressure.
  std::ostringstream victim_out;
  align::OstreamSamSink victim_sink(victim_out);
  serve::ServiceStream victim = service.open(opt, victim_sink);
  ASSERT_TRUE(victim.ok());
  align::Status victim_st;
  std::thread victim_client(
      [&] { victim_st = drive(victim, fx().sets[0], 20); });
  ASSERT_TRUE(poll_for([] {
    return util::FaultInjector::instance().hits("align.worker.stall") >= 1;
  }));

  // Three siblings run to completion while the victim is wedged.  Virtual
  // time is frozen, so the watchdog cannot misfire on anyone.
  std::string expected[3];
  std::ostringstream sib_out[3];
  std::vector<std::unique_ptr<align::OstreamSamSink>> sib_sinks;
  std::vector<serve::ServiceStream> sibs;
  for (int s = 0; s < 3; ++s) {
    expected[s] = solo_sam(fx().sets[static_cast<std::size_t>(s) + 1], opt);
    sib_sinks.push_back(std::make_unique<align::OstreamSamSink>(sib_out[s]));
    sibs.push_back(service.open(opt, *sib_sinks.back()));
    ASSERT_TRUE(sibs.back().ok());
  }
  {
    std::vector<std::thread> clients;
    for (int s = 0; s < 3; ++s)
      clients.emplace_back([&, s] {
        EXPECT_TRUE(drive(sibs[static_cast<std::size_t>(s)],
                          fx().sets[static_cast<std::size_t>(s) + 1],
                          9 + 4 * static_cast<std::size_t>(s))
                        .ok());
      });
    for (auto& cth : clients) cth.join();
  }
  for (int s = 0; s < 3; ++s)
    EXPECT_EQ(sib_out[s].str(), expected[s]) << "sibling " << s;
  EXPECT_EQ(victim.status().code(), ErrorCode::kOk)
      << "watchdog fired with no virtual time elapsed";

  // Now the stall exceeds batch_stall_ms in virtual time: the watchdog must
  // cancel the victim — and only the victim — with kDeadlineExceeded.
  clock.advance(milliseconds(600));
  victim_client.join();
  EXPECT_EQ(victim_st.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_NE(victim_st.message().find("watchdog"), std::string::npos);
  EXPECT_EQ(victim.finish().code(), ErrorCode::kDeadlineExceeded);

  const auto m = service.metrics();
  EXPECT_EQ(m.streams_cancelled, 1u);
  EXPECT_EQ(m.streams_completed, 3u);
  EXPECT_EQ(m.streams_failed, 1u);
}

// ---------------------------------------------------------------------------
// Transient sink-write retry

TEST(Resilience, TransientSamWriteIsAbsorbedByRetry) {
  const auto base = stream_options();
  const std::string expected = solo_sam(fx().sets[0], base);

  util::FakeSleeper sleeper;
  align::DriverOptions opt = base;
  opt.sink_retry.max_attempts = 3;
  opt.sink_retry.initial_backoff = milliseconds(1);
  opt.sink_retry.backoff_multiplier = 2.0;
  opt.sink_retry.sleeper = &sleeper;

  // Write passes 2 and 3 fail, pass 4 succeeds: the second batch needs two
  // retries and the output must still be byte-identical.
  ArmedFault fault("sam.write:2-3");
  std::ostringstream os;
  align::OstreamSamSink sink(os);
  const align::Aligner aligner(fx().index, opt);
  ASSERT_TRUE(aligner.ok());
  align::Stream stream = aligner.open(sink);
  EXPECT_TRUE(drive(stream, fx().sets[0], 30).ok())
      << stream.status().to_string();

  EXPECT_EQ(os.str(), expected)
      << "retried batch did not reach the output exactly once";
  EXPECT_EQ(stream.metrics().write_retries, 2u);
  const auto slept = sleeper.slept();
  ASSERT_EQ(slept.size(), 2u);
  EXPECT_EQ(slept[0], milliseconds(1));
  EXPECT_EQ(slept[1], milliseconds(2));
}

TEST(Resilience, ExhaustedWriteRetriesSurfaceIoError) {
  align::DriverOptions opt = stream_options();
  opt.sink_retry.max_attempts = 3;
  opt.sink_retry.initial_backoff = milliseconds(0);

  // Passes 2..9 all fail: batch 2's three attempts (passes 2, 3, 4) are
  // exhausted and the stream fails with the last io_error, sink left at the
  // batch-1 boundary.
  const std::string full = solo_sam(fx().sets[0], stream_options());
  ArmedFault fault("sam.write:2-9");
  std::ostringstream os;
  align::OstreamSamSink sink(os);
  const align::Aligner aligner(fx().index, opt);
  ASSERT_TRUE(aligner.ok());
  align::Stream stream = aligner.open(sink);
  const auto st = drive(stream, fx().sets[0], 30);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kIoError);
  EXPECT_EQ(st.stage(), "sam-emit");

  EXPECT_EQ(sink.records_written(), 32u);  // batch 1 only
  const std::string prefix = os.str();
  EXPECT_EQ(full.compare(0, prefix.size(), prefix), 0);
}

TEST(Resilience, RetryPolicyIsValidated) {
  align::DriverOptions opt = stream_options();
  opt.sink_retry.max_attempts = 0;
  EXPECT_FALSE(align::validate_driver_options(opt).ok());
  opt = stream_options();
  opt.sink_retry.backoff_multiplier = 0.5;
  EXPECT_FALSE(align::validate_driver_options(opt).ok());
  opt = stream_options();
  opt.sink_retry.initial_backoff = milliseconds(-1);
  EXPECT_FALSE(align::validate_driver_options(opt).ok());
}

// ---------------------------------------------------------------------------
// Graceful shutdown

TEST(Resilience, ShutdownDrainsThenCancelsStragglers) {
  // A clean service shuts down ok() and refuses new opens.
  {
    serve::ServeOptions sopt;
    sopt.workers = 1;
    serve::AlignService service(fx().index, sopt);
    align::CollectSamSink sink;
    serve::ServiceStream s = service.open(stream_options(), sink);
    EXPECT_TRUE(drive(s, fx().sets[0], 40).ok());
    EXPECT_TRUE(service.shutdown(milliseconds(0)).ok());
    align::CollectSamSink sink2;
    serve::ServiceStream late = service.open(stream_options(), sink2);
    EXPECT_FALSE(late.ok());
    EXPECT_EQ(late.status().code(), ErrorCode::kInvalidArgument);
  }

  // A wedged straggler: zero grace -> shutdown cancels it, reports
  // kDeadlineExceeded, and never deadlocks (the join below is the proof).
  serve::ServeOptions sopt;
  sopt.workers = 1;
  serve::AlignService service(fx().index, sopt);
  ArmedFault fault("align.worker.stall:1");
  align::CollectSamSink sink;
  serve::ServiceStream victim = service.open(stream_options(32, 1), sink);
  ASSERT_TRUE(victim.ok());
  align::Status victim_st;
  std::thread client([&] { victim_st = drive(victim, fx().sets[0], 20); });
  ASSERT_TRUE(poll_for([] {
    return util::FaultInjector::instance().hits("align.worker.stall") >= 1;
  }));

  const auto st = service.shutdown(milliseconds(0));
  EXPECT_EQ(st.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_NE(st.message().find("cancelled 1"), std::string::npos);
  client.join();
  EXPECT_EQ(victim_st.code(), ErrorCode::kCancelled);
  EXPECT_NE(victim_st.message().find("service shutdown"), std::string::npos);
  EXPECT_EQ(victim.finish().code(), ErrorCode::kCancelled);
  EXPECT_EQ(service.metrics().streams_cancelled, 1u);
}

TEST(Resilience, ServeOptionValidationForResilienceKnobs) {
  serve::ServeOptions bad;
  bad.admission_timeout_ms = -1;
  EXPECT_FALSE(serve::validate_serve_options(bad).ok());
  bad = serve::ServeOptions{};
  bad.max_pending_opens = -1;
  EXPECT_FALSE(serve::validate_serve_options(bad).ok());
  bad = serve::ServeOptions{};
  bad.batch_stall_ms = -1;
  EXPECT_FALSE(serve::validate_serve_options(bad).ok());
  EXPECT_TRUE(serve::validate_serve_options(serve::ServeOptions{}).ok());
}

}  // namespace
}  // namespace mem2
