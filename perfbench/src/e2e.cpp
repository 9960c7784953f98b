// The timed (untraced) runs: end-to-end metrics and output gates.
//
// Pipeline workloads (se151_l3, pe101_l3, se101_dram): after set-up, one
// captured nproc cycle over the read pool fixes the reference SAM text
// (accuracy is scored on it).  Then 1-worker and nproc Stream segments
// alternate (ABBA order), each feeding the pool's FASTQ text over and over
// for an eighth of --seconds; throughputs are the best windowed rates (see
// best()), and every segment's SAM must equal the reference text repeated.
// serve4_open: a closed-loop warm-up, then an open-loop run at a constant
// offered rate over nproc sessions of one AlignService, then solo 1-worker
// Stream runs: over the head of every session's pool for the single-thread
// throughput, and side by side over each whole pool to gate the sessions'
// SAM digests.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <istream>
#include <limits>
#include <thread>

#include "bench.h"
#include "io/fastq.h"
#include "open_loop.h"
#include "sam_digest.h"
#include "stats.h"

namespace perfbench {

using namespace mem2;
using Clock = std::chrono::steady_clock;

namespace {

/// Set-up repetitions: kSetupReps, but past kMinSetupReps only while the
/// repetitions so far took under kSetupBudgetS (a DRAM-sized index load
/// takes seconds).
constexpr int kSetupReps = 9;
constexpr int kMinSetupReps = 3;
constexpr double kSetupBudgetS = 5;
constexpr int kSegments = 8;  // alternating 1-worker / nproc segments, ABBA order
constexpr int kSoloReps = 5;  // serve: timed rounds of the solo runs
constexpr int kBaselineSample = 256;
/// Output sanity floor: a pipeline that places fewer primaries at their
/// true origin than this is broken, whatever its speed.
constexpr double kMinCorrectFrac = 0.5;
/// serve4_open: chunk_p99_ms is the least of the p99s of this many blocks
/// of consecutive chunks, and each block carries at least kMinServeChunks
/// chunks, so its p99 has >= 10 samples beyond it.
constexpr std::size_t kServeLatencyBlocks = 3;
constexpr std::uint64_t kMinServeChunks = 1050;
constexpr int kNprocWindow = 4;  // cycles per nproc throughput window

double secs(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

/// Throughput of every run of `w` consecutive cycles (sliding), from the
/// cycles' own rates.
std::vector<double> window_rates(const std::vector<double>& cycle_rates, int w) {
  std::vector<double> out;
  for (std::size_t end = static_cast<std::size_t>(w); end <= cycle_rates.size(); ++end) {
    double t = 0;
    for (std::size_t i = end - static_cast<std::size_t>(w); i < end; ++i) t += 1 / cycle_rates[i];
    out.push_back(w / t);
  }
  return out;
}

/// The fastest steady-state window.  Co-tenant interference on a shared
/// host only ever slows a window down, so the fastest one is the least
/// disturbed estimate of the program's own speed; the median is recorded
/// beside it.
double best(const std::vector<double>& rates) {
  return rates.empty() ? 0 : *std::max_element(rates.begin(), rates.end());
}

/// The least-disturbed block's latency: interference only ever adds to it.
double least(const std::vector<double>& latencies) {
  return latencies.empty() ? 0 : *std::min_element(latencies.begin(), latencies.end());
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole ? static_cast<double>(part) / static_cast<double>(whole) : 0;
}

/// Body lines of a collected run, '\n'-terminated.
std::string body_text(const align::CollectSamSink& sink) {
  std::string out;
  for (const auto& rec : sink.records()) {
    out += rec.to_line();
    out += '\n';
  }
  return out;
}

void add_noise(Report& rec, const NoiseSample& n) {
  rec.add("run.cpu_s", n.cpu_s, "s");
  rec.add("run.invol_csw", n.invol_csw, "count");
  rec.add("run.steal_ticks", n.steal_ticks, "count");
}

/// Streams one read pool's FASTQ text chunk by chunk, rewinding at its end.
class FastqCycler {
 public:
  explicit FastqCycler(std::string_view text) : text_(text) { rewind(); }
  /// Next chunk of up to n reads; sets `wrapped` when the pool restarted.
  void next(std::vector<seq::Read>& out, std::size_t n, bool* wrapped = nullptr) {
    if (wrapped) *wrapped = false;
    if (fq_->next_chunk(out, n) == 0) {
      rewind();
      fq_->next_chunk(out, n);
      if (wrapped) *wrapped = true;
    }
  }

 private:
  void rewind() {
    fq_.reset();
    buf_ = std::make_unique<TextBuf>(text_);
    in_ = std::make_unique<std::istream>(buf_.get());
    fq_ = std::make_unique<io::FastqStream>(*in_);
  }
  std::string_view text_;
  std::unique_ptr<TextBuf> buf_;
  std::unique_ptr<std::istream> in_;
  std::unique_ptr<io::FastqStream> fq_;
};

/// Set-up, several times: index load plus `construct` (the Aligner or the
/// AlignService); returns every repetition's seconds and keeps the last
/// index.
template <class Construct>
std::vector<double> timed_setup(const std::string& path,
                                std::unique_ptr<index::Mem2Index>& index,
                                Construct&& construct) {
  std::vector<double> setup;
  double total = 0;
  for (int i = 0; i < kSetupReps && (i < kMinSetupReps || total < kSetupBudgetS); ++i) {
    construct(nullptr);  // release the previous front door before its index
    index.reset();
    const auto t0 = Clock::now();
    index = load_bench_index(path);
    construct(index.get());
    setup.push_back(secs(Clock::now() - t0));
    total += setup.back();
  }
  return setup;
}

/// setup_s is the median repetition; the extremes go to the run record.
void add_setup(RunResult& r, const std::vector<double>& setup) {
  r.metrics.add("setup_s", median(setup), "s");
  r.record.add("setup_s.min", *std::min_element(setup.begin(), setup.end()), "s");
  r.record.add("setup_s.max", *std::max_element(setup.begin(), setup.end()), "s");
}

RunResult run_pipeline(const RunOptions& o, const HostInfo& host) {
  RunResult r;
  const Workload& w = *o.workload;
  std::unique_ptr<index::Mem2Index> index;
  const std::vector<double> setup =
      timed_setup(index_path(o.index_dir, w.genome_len), index, [&](index::Mem2Index* idx) {
        if (!idx) return;
        const align::Aligner probe(*idx, pipeline_options(w, host.nproc));
        if (!probe.ok()) throw std::runtime_error(probe.status().to_string());
      });

  const auto reads = make_reads(w, index->ref(), o.seed, 0, w.pool_reads);
  const std::string fastq = to_fastq(reads);
  const align::Aligner a1(*index, pipeline_options(w, 1));
  const align::Aligner an(*index, pipeline_options(w, host.nproc));

  // Reference cycle (also the warm-up), retried while sessions fail.
  std::string ref_text;
  SegmentOut ref;
  const auto account = [&](const SegmentOut& s) {
    r.attempted += 1 + s.chunks;
    if (!s.ok) {
      r.failed += 1 + (s.chunks - s.chunks_done);
      std::fprintf(stderr, "[perfbench] session failed: %s\n", s.error.c_str());
    }
    return s.ok;
  };
  const NoiseSample noise0 = noise_now();
  for (int attempt = 0; attempt < 3 && !ref.ok; ++attempt) {
    ref_text.clear();
    ref = run_segment(an, fastq, kPassChunk, 0, &ref_text);
    account(ref);
  }
  if (!ref.ok) throw std::runtime_error("no session succeeded");
  const std::string_view header(ref_text.data(), ref.header_bytes);
  const std::string_view body = std::string_view(ref_text).substr(ref.header_bytes);
  const std::vector<std::size_t> ends = chunk_ends(body, kPassChunk);

  // Windowed throughput: an nproc window spans kNprocWindow cycles, so the
  // ordered writer's burst release averages out; a 1-worker cycle is long
  // enough alone.
  // Chunk latency: p50 over every nproc chunk; p99 per nproc segment, and
  // the metric is the least-disturbed segment's (see least()).
  std::vector<double> rps1, rpsn, chunk_ms, segment_p99;
  for (int seg = 0; seg < kSegments; ++seg) {
    const bool one = (seg + 1) % 4 < 2;  // 1, n, n, 1, 1, n, n, 1
    const SegmentOut s =
        run_segment(one ? a1 : an, fastq, kPassChunk, o.seconds / kSegments, nullptr);
    if (!account(s)) continue;
    r.gate(s.digest == cycled_digest(header, body, ends, s.chunks),
           "SAM text differs from the reference (1-worker vs nproc byte identity)");
    const auto windows = window_rates(s.cycle_reads_per_s, one ? 1 : kNprocWindow);
    (one ? rps1 : rpsn).insert((one ? rps1 : rpsn).end(), windows.begin(), windows.end());
    if (one) continue;
    chunk_ms.insert(chunk_ms.end(), s.chunk_ms.begin(), s.chunk_ms.end());
    segment_p99.push_back(percentile(s.chunk_ms, 99));
  }
  const NoiseSample noise = noise_now() - noise0;
  r.gate(!rps1.empty() && !rpsn.empty(), "no steady-state window completed");
  for (const auto* v : {&rps1, &rpsn}) {
    std::fprintf(stderr, "[perfbench] %s window reads/s:", v == &rps1 ? "1-worker" : "nproc");
    for (double x : *v) std::fprintf(stderr, " %.0f", x);
    std::fprintf(stderr, "\n");
  }

  // Accuracy against the simulator's truth, on the reference text.
  const Accuracy acc = score_sam_text(body, w.kind == Kind::kPaired);
  r.gate(acc.primaries == reads.size(), "reference cycle lost primary records");
  r.gate(acc.fraction() >= kMinCorrectFrac, "correct_frac below the sanity floor");

  // The paper's identical-output property on a fixed sample: the batch
  // pipeline's SAM bodies equal the read-at-a-time baseline driver's, and
  // the timed sessions' text starts with exactly those bodies.
  if (w.kind == Kind::kSingle) {
    const std::vector<seq::Read> sample(reads.begin(), reads.begin() + kBaselineSample);
    align::DriverOptions base = pipeline_options(w, 1);
    base.mode = align::Mode::kBaseline;
    align::CollectSamSink sink_base, sink_batch;
    const align::Status sb = align::Aligner(*index, base).align(sample, sink_base);
    const align::Status sk = a1.align(sample, sink_batch);
    r.gate(sb.ok() && sk.ok(), "baseline sample run failed");
    const std::string batch_body = body_text(sink_batch);
    r.gate(body_text(sink_base) == batch_body,
           "batch SAM differs from the Mode::kBaseline driver on the sample");
    r.gate(body.substr(0, batch_body.size()) == batch_body,
           "timed session SAM does not start with the sample's SAM");
  }

  Report& m = r.metrics;
  m.add("reads_per_s", best(rpsn), "reads/s");
  m.add("reads_per_s_1t", best(rps1), "reads/s");
  add_setup(r, setup);
  m.add("peak_rss_mib", peak_rss_mib(), "MiB");
  m.add("correct_frac", acc.fraction(), "fraction");
  m.add("chunk_p50_ms", percentile(chunk_ms, 50), "ms");
  m.add("chunk_p99_ms", least(segment_p99), "ms");

  Report& rec = r.record;
  rec.add("failed_frac", share(r.failed, r.attempted), "fraction");
  rec.add("pool_reads", static_cast<double>(reads.size()), "reads");
  rec.add("windows_1t", static_cast<double>(rps1.size()), "count");
  rec.add("windows_nproc", static_cast<double>(rpsn.size()), "count");
  rec.add("reads_per_s_median", median(rpsn), "reads/s");
  rec.add("reads_per_s_1t_median", median(rps1), "reads/s");
  rec.add("chunk_samples", static_cast<double>(chunk_ms.size()), "count");
  rec.add("chunk_p99_ms.whole_run", percentile(chunk_ms, 99), "ms");
  add_noise(rec, noise);
  return r;
}

RunResult run_serve(const RunOptions& o, const HostInfo& host) {
  RunResult r;
  const Workload& w = *o.workload;
  const int sessions = host.nproc;
  serve::ServeOptions so;
  so.workers = host.nproc;
  so.max_streams = sessions;
  std::unique_ptr<index::Mem2Index> index;
  std::unique_ptr<serve::AlignService> service;
  const std::vector<double> setup =
      timed_setup(index_path(o.index_dir, w.genome_len), index, [&](index::Mem2Index* idx) {
        service.reset();
        if (!idx) return;
        service = std::make_unique<serve::AlignService>(*idx, so);
        if (!service->ok()) throw std::runtime_error(service->status().to_string());
      });

  std::vector<std::string> fastq, fastq_head;
  for (int s = 0; s < sessions; ++s) {
    auto reads = make_reads(w, index->ref(), o.seed, s, w.pool_reads);
    fastq.push_back(to_fastq(reads));
    reads.resize(static_cast<std::size_t>(kServeSoloReads));
    fastq_head.push_back(to_fastq(reads));
  }

  const double rate = kServeReadsPerSec;
  const double window_s =
      std::max(kServeWindowShare * o.seconds,
               (kServeLatencyBlocks * kMinServeChunks + 0.5) * kServeBatch / rate);
  const ServeOut out = run_open_loop(service.get(), w, fastq, rate, window_s, host.nproc);
  r.attempted = out.sessions + out.chunks;
  r.failed = out.sessions_failed + out.chunks_failed;

  // Single-thread throughput: solo 1-worker Stream runs over the head of
  // every session's pool, kSoloReps rounds; each session's fastest round
  // counts (see best()).
  align::DriverOptions solo_opt = pipeline_options(w, 1);
  solo_opt.batch_size = kServeBatch;
  const align::Aligner solo(*index, solo_opt);
  std::vector<double> solo_s(fastq_head.size(), std::numeric_limits<double>::infinity());
  double solo_reads = 0;
  for (int rep = 0; rep < kSoloReps; ++rep) {
    for (std::size_t s = 0; s < fastq_head.size(); ++s) {
      const SegmentOut one = run_segment(solo, fastq_head[s], kServeBatch, 0, nullptr);
      r.gate(one.ok, "solo run failed: " + one.error);
      solo_s[s] = std::min(solo_s[s], one.seconds);
      if (rep == 0) solo_reads += static_cast<double>(one.reads);
    }
  }
  double solo_seconds = 0;
  for (const double x : solo_s) solo_seconds += x;

  // Gate: a session's SAM must equal a solo 1-worker Stream run of its
  // whole pool, cycled over the chunks it submitted.  The solo runs share
  // nothing, so they run side by side, one thread each.
  std::vector<std::string> text(fastq.size());
  std::vector<SegmentOut> gate_run(fastq.size());
  {
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < fastq.size(); ++s)
      threads.emplace_back(
          [&, s] { gate_run[s] = run_segment(solo, fastq[s], kServeBatch, 0, &text[s]); });
    for (auto& t : threads) t.join();
  }
  double correct = 0;
  for (std::size_t s = 0; s < fastq.size(); ++s) {
    r.gate(gate_run[s].ok, "solo gate run failed: " + gate_run[s].error);
    const std::string_view header(text[s].data(), gate_run[s].header_bytes);
    const std::string_view body = std::string_view(text[s]).substr(gate_run[s].header_bytes);
    if (s == 0) correct = score_sam_text(body, false).fraction();
    if (!out.session_ok[s]) continue;  // already counted as failed
    r.gate(cycled_digest(header, body, chunk_ends(body, kServeBatch), out.session_chunks[s]) ==
               out.session_digest[s],
           "serve session " + std::to_string(s) + " SAM differs from its solo Stream run");
  }

  // Latency samples: failed chunks count as missing any limit — they enter
  // at the longest latency this run could observe.
  std::vector<double> lat = out.latency_ms;
  for (double& x : lat) x = std::min(x, 1e3 * out.window_s);
  // Tail latency per block of consecutive due times; the metric is the
  // least-disturbed block, like best() for throughput.
  const std::vector<double> p99_blocks = block_percentiles(lat, 99, kServeLatencyBlocks);

  Report& m = r.metrics;
  m.add("reads_per_s", out.window_s > 0 ? static_cast<double>(out.reads_done) / out.window_s : 0,
        "reads/s");
  m.add("reads_per_s_1t", solo_reads / solo_seconds, "reads/s");
  add_setup(r, setup);
  m.add("peak_rss_mib", peak_rss_mib(), "MiB");
  m.add("correct_frac", correct, "fraction");
  m.add("chunk_p50_ms", percentile(lat, 50), "ms");
  m.add("chunk_p99_ms", least(p99_blocks), "ms");
  r.gate(correct >= kMinCorrectFrac, "correct_frac below the sanity floor");

  Report& rec = r.record;
  rec.add("failed_frac", share(r.failed, r.attempted), "fraction");
  rec.add("offered_reads_per_s", rate, "reads/s");
  rec.add("chunk_samples", static_cast<double>(lat.size()), "count");
  for (std::size_t b = 0; b < p99_blocks.size(); ++b)
    rec.add("chunk_p99_ms.block" + std::to_string(b), p99_blocks[b], "ms");
  rec.add("chunk_p99_ms.whole_run", percentile(lat, 99), "ms");
  rec.add("serve.generator_lag_ms_p99", percentile(out.lag_ms, 99), "ms");
  rec.add("align.worker_util", out.worker_util, "fraction");
  add_noise(rec, out.noise);
  return r;
}

}  // namespace

// ------------------------------------------------------------ shared pieces

std::unique_ptr<index::Mem2Index> load_bench_index(const std::string& path) {
  if (!std::filesystem::exists(path))
    throw std::runtime_error("benchmark index " + path +
                             " is missing; build it first (run.py builds it "
                             "before any measured run)");
  return std::make_unique<index::Mem2Index>(index::load_index(path));
}

align::DriverOptions pipeline_options(const Workload& w, int threads) {
  align::DriverOptions d;
  d.mode = align::Mode::kBatch;
  d.threads = threads;
  d.paired = w.kind == Kind::kPaired;
  return d;
}

SegmentOut run_segment(const align::Aligner& aligner, std::string_view fastq,
                       std::size_t chunk_reads, double budget_s, std::string* capture) {
  SegmentOut out;
  HashingStream sam(capture);
  ChunkClockSink sink(sam, chunk_reads);
  std::vector<Clock::time_point> submitted;
  std::vector<std::uint64_t> cycle_end_chunk;  // last chunk index of each cycle
  FastqCycler cycler(fastq);
  const NoiseSample n0 = noise_now();
  const auto t0 = Clock::now();
  try {
    align::Stream stream = aligner.open(sink);
    std::vector<seq::Read> chunk;
    align::Status st = stream.status();
    while (st.ok()) {
      bool wrapped = false;
      cycler.next(chunk, chunk_reads, &wrapped);
      if (wrapped) {  // a whole cycle has been submitted
        cycle_end_chunk.push_back(submitted.size() - 1);
        if (secs(Clock::now() - t0) >= budget_s) break;
      }
      submitted.push_back(Clock::now());
      out.reads += chunk.size();
      st = stream.submit(std::move(chunk));
      chunk = {};
    }
    const align::Status fin = stream.finish();
    out.ok = st.ok() && fin.ok();
    if (!out.ok) out.error = (st.ok() ? fin : st).to_string();
    out.pair_stats = stream.pair_stats();
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  out.seconds = secs(Clock::now() - t0);
  out.noise = noise_now() - n0;
  out.digest = sam.digest();
  out.header_bytes = sink.header_bytes();
  out.cycles = cycle_end_chunk.size();
  out.chunks = submitted.size();
  const auto& done = sink.done();
  out.chunks_done = std::min<std::uint64_t>(done.size(), submitted.size());
  for (std::size_t c = 0; c < out.chunks_done; ++c)
    out.chunk_ms.push_back(to_ms(done[c] - submitted[c]));
  const double cycle_reads = out.cycles ? static_cast<double>(out.reads) / out.cycles : 0;
  auto prev = t0;
  for (const auto end : cycle_end_chunk) {
    if (end >= out.chunks_done) break;
    out.cycle_reads_per_s.push_back(cycle_reads / secs(done[end] - prev));
    prev = done[end];
  }
  return out;
}

/// Closed-loop warm-up of the service before the timed open loop: one
/// session per pool, fed round-robin as fast as submit() accepts for
/// `seconds`, then finished.  It takes the service's first-use costs
/// (worker workspaces, first touch of the freshly loaded index) out of the
/// timed window; a start-up stall there used to back the queues up for
/// 0.6 s.  Returns the number of sessions that failed.
std::uint64_t warm_up_service(serve::AlignService* service, const align::DriverOptions& opt,
                              const std::vector<std::string>& fastq, double seconds) {
  std::vector<std::unique_ptr<HashingStream>> sams;
  std::vector<std::unique_ptr<align::OstreamSamSink>> sinks;
  std::vector<serve::ServiceStream> streams;
  std::vector<FastqCycler> cyclers;
  for (const auto& text : fastq) {
    sams.push_back(std::make_unique<HashingStream>());
    sinks.push_back(std::make_unique<align::OstreamSamSink>(*sams.back()));
    cyclers.emplace_back(text);
    streams.push_back(service->open(opt, *sinks.back()));
  }
  std::vector<bool> ok(fastq.size(), true);
  std::vector<seq::Read> chunk;
  for (const auto t0 = Clock::now(); secs(Clock::now() - t0) < seconds;) {
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (!ok[s]) continue;
      cyclers[s].next(chunk, kServeBatch);
      ok[s] = streams[s].ok() && streams[s].submit(std::move(chunk)).ok();
      chunk = {};
    }
  }
  std::uint64_t failed = 0;
  for (std::size_t s = 0; s < streams.size(); ++s)
    failed += !(streams[s].finish().ok() && ok[s]);
  return failed;
}

ServeOut run_open_loop(serve::AlignService* service, const Workload& w,
                       const std::vector<std::string>& fastq, double rate,
                       double window_s, int workers) {
  ServeOut out;
  const auto sessions = static_cast<std::uint64_t>(fastq.size());
  const auto period =
      std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 * kServeBatch / rate));
  const auto n_total = static_cast<std::uint64_t>(window_s * rate / kServeBatch);

  align::DriverOptions opt = pipeline_options(w, 1);
  opt.batch_size = kServeBatch;
  out.sessions = 2 * sessions;  // warm-up and timed sessions
  out.sessions_failed = warm_up_service(service, opt, fastq, kServeWarmupS);

  std::vector<std::unique_ptr<HashingStream>> sams;
  std::vector<std::unique_ptr<ChunkClockSink>> sinks;
  std::vector<serve::ServiceStream> streams;
  std::vector<FastqCycler> cyclers;
  out.session_ok.assign(sessions, true);
  for (std::uint64_t s = 0; s < sessions; ++s) {
    sams.push_back(std::make_unique<HashingStream>());
    sinks.push_back(std::make_unique<ChunkClockSink>(*sams.back(), kServeBatch));
    cyclers.emplace_back(fastq[s]);
    const auto t0 = Clock::now();
    streams.push_back(service->open(opt, *sinks.back()));
    out.open_ms.push_back(1e3 * secs(Clock::now() - t0));
    if (!streams.back().ok()) out.session_ok[s] = false;
  }

  util::Clock& clock = util::Clock::real();
  OpenLoopSchedule sched(clock, util::Sleeper::real(), period);
  std::vector<seq::Read> chunk;
  const NoiseSample n0 = noise_now();
  sched.start();
  for (std::uint64_t j = 0; j < n_total; ++j) {
    const std::uint64_t s = j % sessions;
    cyclers[s].next(chunk, kServeBatch);
    const auto offered = sched.offer(j);
    const align::Status st = streams[s].submit(std::move(chunk));
    chunk = {};
    out.submit_block_ms.push_back(to_ms(clock.now() - offered));
    if (!st.ok()) out.session_ok[s] = false;
  }
  for (std::uint64_t s = 0; s < sessions; ++s)
    if (!streams[s].finish().ok()) out.session_ok[s] = false;
  out.noise = noise_now() - n0;

  // Per-chunk accounting: chunk j went to session j % S as its (j / S)-th.
  // Every chunk of a failed session counts as failed.
  auto last_done = sched.start_time();
  std::vector<std::vector<double>> per_session(sessions);
  out.chunks = n_total;
  for (std::uint64_t j = 0; j < n_total; ++j) {
    const std::uint64_t s = j % sessions, k = j / sessions;
    out.lag_ms.push_back(sched.lag_ms(j));
    const auto& done = sinks[s]->done();
    if (!out.session_ok[s] || k >= done.size()) {
      ++out.chunks_failed;
      out.latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    out.latency_ms.push_back(sched.latency_ms(j, done[k]));
    out.in_service_ms.push_back(to_ms(done[k] - sched.offered_at(j)));
    per_session[s].push_back(out.latency_ms.back());
    last_done = std::max(last_done, done[k]);
  }
  out.window_s = secs(last_done - sched.start_time());
  double lo = std::numeric_limits<double>::infinity(), hi = 0;
  for (std::uint64_t s = 0; s < sessions; ++s) {
    out.session_digest.push_back(sams[s]->digest());
    out.session_chunks.push_back(n_total / sessions + (s < n_total % sessions));
    if (!out.session_ok[s]) {
      ++out.sessions_failed;
      continue;
    }
    out.reads_done += sinks[s]->reads_done();
    const double med = median(per_session[s]);
    lo = std::min(lo, med);
    hi = std::max(hi, med);
  }
  out.fairness_spread = lo > 0 && std::isfinite(lo) ? hi / lo : 0;
  out.worker_util = out.window_s > 0 ? out.noise.cpu_s / (out.window_s * workers) : 0;
  return out;
}

void build_index(std::int64_t genome_len, const std::string& path) {
  index::IndexBuildOptions bo;
  bo.threads = host_info().nproc;
  const auto index = index::Mem2Index::build(
      seq::simulate_genome(genome_config(genome_len)), bo);
  const std::string tmp = path + ".tmp";
  index::save_index(tmp, index);
  std::filesystem::rename(tmp, path);
}

RunResult run_timed(const RunOptions& options) {
  const HostInfo host = host_info();
  return options.workload->kind == Kind::kServe ? run_serve(options, host)
                                                : run_pipeline(options, host);
}

}  // namespace perfbench
