// mem2_cli — a bwa-mem2-style command-line aligner on the library API.
//
//   mem2_cli index [-t N] <ref.fasta> <out.m2i>
//   mem2_cli mem [options] <index.m2i> <reads.fastq>   (SAM on stdout)
//   mem2_cli simulate <out.fasta> <length> [seed]
//   mem2_cli wgsim <ref.fasta> <out.fastq> <n> <len> [seed]
//
// `mem` streams: reads are pulled from the FASTQ in batch-size chunks and
// fed to an Aligner session, so peak resident reads/records are bounded by
// the session's queue — the input file never needs to fit in memory.
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include "align/aligner.h"
#include "align/status.h"
#include "serve/align_service.h"
#include "io/fasta.h"
#include "io/fastq.h"
#include "seq/genome_sim.h"
#include "seq/read_sim.h"
#include "util/big_alloc.h"
#include "util/cpu_features.h"
#include "util/fault_injector.h"
#include "util/metrics.h"
#include "util/perf_counters.h"
#include "util/timer.h"
#include "util/trace.h"

using namespace mem2;

namespace {

int usage() {
  std::cerr <<
      "usage:\n"
      "  mem2_cli index [-t N] <ref.fasta> <out.m2i>\n"
      "      -t N              suffix-array build threads (default: all\n"
      "                        cores; the index is identical for any N);\n"
      "                        prints per-phase progress and peak RSS\n"
      "  mem2_cli mem [options] <index.m2i> <reads.fq> [mates.fq]\n"
      "      -t N              pipeline worker threads (default 1)\n"
      "      -b N              reads per batch (default 512)\n"
      "      --baseline        original read-at-a-time driver\n"
      "      -p                paired interleaved input (single FASTQ)\n"
      "                        (two FASTQ files imply paired mode)\n"
      "      -k N              min seed length\n"
      "      -T N              min output score\n"
      "      --ingest strict|skip\n"
      "                        damaged-FASTQ policy: fail fast (default) or\n"
      "                        resync at the next '@' header and report counts\n"
      "      --fault site[:nth]\n"
      "                        arm the fault injector (testing; also MEM2_FAULT)\n"
      "      --trace FILE      write a Chrome trace (Perfetto-loadable) of the\n"
      "                        run's pipeline spans at exit\n"
      "      --metrics-out FILE\n"
      "                        write a Prometheus text metrics snapshot at exit\n"
      "  mem2_cli serve [options] <index.m2i> <stream>...\n"
      "      each <stream> is out.sam=reads.fq[,mates.fq][,skip] — one\n"
      "      client session per spec, all multiplexed over one index and\n"
      "      one shared worker pool (two FASTQs imply paired mode; a\n"
      "      trailing ,skip selects the resync ingest policy)\n"
      "      -w N              pooled worker threads (default: all cores)\n"
      "      -b N              reads per batch (default 512)\n"
      "      --max-streams N   admission: max concurrent sessions (default 8)\n"
      "      --max-inflight N  admission: global in-flight batch budget\n"
      "                        (default 64)\n"
      "      --admission-timeout-ms N\n"
      "                        queue over-capacity opens FIFO for up to N ms\n"
      "                        instead of failing fast (default 0: fail fast)\n"
      "      --max-pending N   bound on queued opens (default 16)\n"
      "      --batch-stall-ms N\n"
      "                        watchdog: cancel a session whose in-flight\n"
      "                        batch makes no progress for N ms (default 0:\n"
      "                        off); cancelled sessions exit with code 7\n"
      "      --shutdown-grace-ms N\n"
      "                        on SIGINT/SIGTERM, wait N ms for streams to\n"
      "                        drain before cancelling them (default 5000)\n"
      "      --cancel-after-ms N\n"
      "                        cancel every stream after N ms (testing the\n"
      "                        exit-8 contract; default 0: off)\n"
      "      --metrics-interval S\n"
      "                        print a service metrics snapshot to stderr\n"
      "                        every S seconds (default: off)\n"
      "      --trace FILE      write a Chrome trace of every stream's pipeline\n"
      "                        (pid = stream, tid = worker) at exit\n"
      "      --metrics-out FILE\n"
      "                        write a Prometheus text metrics snapshot,\n"
      "                        rewritten every --metrics-interval tick and at\n"
      "                        exit\n"
      "  mem2_cli simulate <out.fasta> <length> [seed]\n"
      "  mem2_cli wgsim <ref.fasta> <out.fastq> <n_reads> <read_len> [seed]\n"
      "  mem2_cli wgsim-pe <ref.fasta> <out1.fastq> <out2.fastq> <n_pairs>"
      " <read_len> [insert_mean] [insert_std] [seed]\n"
      "exit codes: 2 usage/invalid argument, 3 I/O error, 4 data corruption,"
      " 5 internal error, 6 resource exhausted (admission denied),"
      " 7 deadline exceeded (watchdog), 8 cancelled\n";
  return 2;
}

/// Exit code contract (documented in README "Failure modes & exit codes").
int exit_code(align::ErrorCode code) {
  switch (code) {
    case align::ErrorCode::kOk: return 0;
    case align::ErrorCode::kInvalidArgument: return 2;
    case align::ErrorCode::kIoError: return 3;
    case align::ErrorCode::kDataCorruption: return 4;
    case align::ErrorCode::kInternal: return 5;
    case align::ErrorCode::kResourceExhausted: return 6;
    case align::ErrorCode::kDeadlineExceeded: return 7;
    case align::ErrorCode::kCancelled: return 8;
  }
  return 5;
}

/// Set by the SIGINT/SIGTERM handler; cmd_serve's clients stop submitting
/// at their next chunk boundary and finish cleanly (valid SAM, exit 0).
std::atomic<int> g_signal{0};

extern "C" void handle_shutdown_signal(int sig) {
  g_signal.store(sig, std::memory_order_release);
}

int fail(const align::Status& st) {
  std::cerr << "mem2: error: " << st.to_string() << '\n';
  return exit_code(st.code());
}

/// strtoll with full-consumption and range checks: "12x", "", overflow and
/// an empty string all fail instead of silently truncating like atoi.
bool parse_i64(const char* s, long long& out) {
  if (!s || !*s) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  out = v;
  return true;
}

/// Parse an integer argument for `flag`, requiring min <= value <= max
/// (pass INT_MAX for int-typed destinations so huge values error instead
/// of truncating); prints a usage error naming the flag on garbage
/// (e.g. `-t foo`).
bool parse_arg(const char* flag, const char* s, long long min, long long max,
               long long& out) {
  if (!parse_i64(s, out) || out < min || out > max) {
    std::cerr << "mem2_cli: invalid value for " << flag << ": '"
              << (s ? s : "") << "' (integer in [" << min << ", " << max
              << "] expected)\n";
    return false;
  }
  return true;
}

// ------------------------------------------------------------ observability

std::string stage_label(util::Stage s) {
  return "stage=\"" + std::string(util::stage_name(s)) + "\"";
}

/// Registry id for the snapshot counter — the one CLI-owned metric that
/// rides through MetricsRegistry exposition rather than PromWriter.
int snapshot_counter_id() {
  static const int id = util::MetricsRegistry::global().counter(
      "mem2_metrics_snapshots_total", "Prometheus snapshot files written");
  return id;
}

/// Families every run exposes: the full SwCounters table, per-span-name
/// exact aggregates from the tracer (empty unless --trace enabled it),
/// ring-drop accounting, and hardware counters when the container allows
/// perf_event_open (silently absent otherwise).
void write_common_obs(util::PromWriter& w, const util::SwCounters& c,
                      const util::PerfSample* hw) {
  util::write_sw_counters(w, c);
  const auto& tracer = util::Tracer::instance();
  for (const auto& agg : tracer.aggregate()) {
    const std::string label = "span=\"" + agg.name + "\"";
    w.counter("mem2_span_seconds_total", "Total seconds inside trace spans",
              agg.seconds(), label);
    w.counter("mem2_span_count_total", "Trace span invocations",
              static_cast<double>(agg.count), label);
  }
  w.counter("mem2_trace_recorded_spans_total", "Trace events recorded",
            static_cast<double>(tracer.recorded()));
  w.counter("mem2_trace_dropped_spans_total",
            "Trace events overwritten by ring wraparound",
            static_cast<double>(tracer.dropped()));
  if (hw != nullptr && hw->valid) {
    w.counter("mem2_hw_instructions_total",
              "Retired instructions (perf_event, whole process)",
              static_cast<double>(hw->instructions));
    w.counter("mem2_hw_cycles_total", "CPU cycles (perf_event, whole process)",
              static_cast<double>(hw->cycles));
    w.counter("mem2_hw_cache_references_total",
              "Cache references (perf_event, whole process)",
              static_cast<double>(hw->cache_references));
    w.counter("mem2_hw_cache_misses_total",
              "Cache misses (perf_event, whole process)",
              static_cast<double>(hw->cache_misses));
  }
}

/// Rewrite `path` atomically (tmp + rename) so a concurrent reader never
/// sees a torn snapshot.  The writer callback fills the PromWriter view;
/// registry-managed metrics are appended after it.
template <typename Fn>
bool write_prom_file(const std::string& path, Fn&& fill) {
  util::MetricsRegistry::global().add(snapshot_counter_id());
  const std::string tmp = path + ".tmp";
  std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  {
    util::PromWriter w(os);
    fill(w);
  }
  util::MetricsRegistry::global().write_prometheus(os);
  os.flush();
  if (!os) return false;
  os.close();
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

bool write_serve_metrics(const std::string& path,
                         const serve::ServiceMetrics& m,
                         const util::PerfSample* hw, double wall) {
  return write_prom_file(path, [&](util::PromWriter& w) {
    w.gauge("mem2_streams_active", "Live sessions", m.active_streams);
    w.gauge("mem2_streams_peak", "Peak concurrent sessions", m.peak_streams);
    w.gauge("mem2_pending_opens", "Opens waiting in the admission queue",
            m.pending_opens);
    w.gauge("mem2_wall_seconds", "Wall time since serve start", wall);
    w.counter("mem2_streams_opened_total", "Sessions admitted",
              static_cast<double>(m.streams_opened));
    w.counter("mem2_streams_rejected_total", "Admission denials",
              static_cast<double>(m.streams_rejected));
    w.counter("mem2_streams_queued_total",
              "Opens that waited in the admission queue",
              static_cast<double>(m.streams_queued));
    w.counter("mem2_streams_timed_out_total",
              "Queued opens that hit the admission deadline",
              static_cast<double>(m.streams_timed_out));
    w.counter("mem2_streams_cancelled_total",
              "Watchdog / shutdown cancellations",
              static_cast<double>(m.streams_cancelled));
    w.counter("mem2_streams_completed_total", "Sessions finished ok",
              static_cast<double>(m.streams_completed));
    w.counter("mem2_streams_failed_total",
              "Sessions finished with a sticky error",
              static_cast<double>(m.streams_failed));
    w.counter("mem2_reads_total", "Reads aligned",
              static_cast<double>(m.reads));
    w.counter("mem2_records_total", "SAM records written",
              static_cast<double>(m.records));
    w.counter("mem2_batches_total", "Batches processed",
              static_cast<double>(m.batches));
    w.counter("mem2_sink_write_retries_total",
              "Transient sink write retries absorbed",
              static_cast<double>(m.write_retries));
    w.histogram("mem2_admission_wait_seconds",
                "Admission queue wait per queued open", m.admission_wait);
    w.histogram("mem2_batch_latency_seconds",
                "Batch latency, enqueue to reassembled sink write",
                m.batch_latency);
    w.histogram("mem2_queue_wait_seconds",
                "Batch queue wait, enqueue to worker pickup", m.queue_wait);
    for (std::size_t s = 0; s < m.stage_seconds.size(); ++s)
      if (m.stage_seconds[s].count() > 0)
        w.histogram("mem2_stage_seconds",
                    "Per-batch pipeline stage seconds", m.stage_seconds[s],
                    stage_label(static_cast<util::Stage>(s)));
    write_common_obs(w, m.counters, hw);
  });
}

bool write_mem_metrics(const std::string& path, const align::StreamMetrics& sm,
                       const util::SwCounters& c, std::uint64_t reads,
                       const util::PerfSample* hw, double wall) {
  return write_prom_file(path, [&](util::PromWriter& w) {
    w.gauge("mem2_wall_seconds", "Wall time of the run", wall);
    w.gauge("mem2_queue_hwm", "Session queue high-water mark", sm.queue_hwm);
    w.counter("mem2_reads_total", "Reads aligned",
              static_cast<double>(reads));
    w.counter("mem2_records_total", "SAM records written",
              static_cast<double>(sm.records));
    w.counter("mem2_batches_total", "Batches processed",
              static_cast<double>(sm.batches));
    w.counter("mem2_sink_write_retries_total",
              "Transient sink write retries absorbed",
              static_cast<double>(sm.write_retries));
    w.histogram("mem2_batch_latency_seconds",
                "Batch latency, enqueue to reassembled sink write",
                sm.batch_latency);
    w.histogram("mem2_queue_wait_seconds",
                "Batch queue wait, enqueue to worker pickup", sm.queue_wait);
    for (std::size_t s = 0; s < sm.stage_seconds.size(); ++s)
      if (sm.stage_seconds[s].count() > 0)
        w.histogram("mem2_stage_seconds",
                    "Per-batch pipeline stage seconds", sm.stage_seconds[s],
                    stage_label(static_cast<util::Stage>(s)));
    write_common_obs(w, c, hw);
  });
}

/// Finish the tracer at end of run: disable, dump the Chrome JSON, report.
void finish_trace(const std::string& path) {
  auto& tracer = util::Tracer::instance();
  tracer.disable();
  if (!tracer.write_chrome_trace_file(path)) {
    std::cerr << "[mem2] warning: cannot write trace file " << path << '\n';
    return;
  }
  std::cerr << "[mem2] trace: " << tracer.recorded() << " event(s) ("
            << tracer.dropped() << " dropped) -> " << path << '\n';
}

int cmd_index(int argc, char** argv) {
  index::IndexBuildOptions bopt;
  long long v = 0;
  int i = 0;
  for (; i < argc && argv[i][0] == '-'; ++i) {
    if (!std::strcmp(argv[i], "-t") && i + 1 < argc) {
      if (!parse_arg("-t", argv[++i], 1, INT_MAX, v)) return usage();
      bopt.threads = static_cast<int>(v);
    } else {
      return usage();
    }
  }
  if (argc - i != 2) return usage();
  std::cerr << "[mem2] loading " << argv[i] << "...\n";
  auto ref = io::load_reference(argv[i]);
  std::cerr << "[mem2] building index over " << ref.length() << " bp...\n";
  bopt.progress = [](const char* phase, double seconds) {
    std::cerr << "[mem2]   " << phase << ": " << seconds << "s (rss "
              << util::current_rss_bytes() / (1 << 20) << " MiB)\n";
  };
  util::Timer t;
  const auto index = index::Mem2Index::build(std::move(ref), bopt);
  std::cerr << "[mem2] built in " << t.seconds() << "s ("
            << index.memory_bytes() / (1 << 20) << " MiB resident, peak rss "
            << util::peak_rss_bytes() / (1 << 20) << " MiB); writing "
            << argv[i + 1] << '\n';
  index::save_index(argv[i + 1], index);
  return 0;
}

int cmd_mem(int argc, char** argv) {
  align::DriverOptions opt;
  bool interleaved = false;
  io::FastqPolicy ingest = io::FastqPolicy::kStrict;
  std::string trace_path, metrics_path;
  long long v = 0;
  int i = 0;
  for (; i < argc && argv[i][0] == '-'; ++i) {
    if (!std::strcmp(argv[i], "-t") && i + 1 < argc) {
      if (!parse_arg("-t", argv[++i], 1, INT_MAX, v)) return usage();
      opt.threads = static_cast<int>(v);
    } else if (!std::strcmp(argv[i], "-b") && i + 1 < argc) {
      if (!parse_arg("-b", argv[++i], 1, INT_MAX, v)) return usage();
      opt.batch_size = static_cast<int>(v);
    } else if (!std::strcmp(argv[i], "--baseline")) {
      opt.mode = align::Mode::kBaseline;
    } else if (!std::strcmp(argv[i], "-p")) {
      interleaved = true;
    } else if (!std::strcmp(argv[i], "-k") && i + 1 < argc) {
      if (!parse_arg("-k", argv[++i], 1, INT_MAX, v)) return usage();
      opt.mem.seeding.min_seed_len = static_cast<int>(v);
    } else if (!std::strcmp(argv[i], "-T") && i + 1 < argc) {
      if (!parse_arg("-T", argv[++i], 0, INT_MAX, v)) return usage();
      opt.mem.min_out_score = static_cast<int>(v);
    } else if (!std::strcmp(argv[i], "--ingest") && i + 1 < argc) {
      const std::string p = argv[++i];
      if (p == "strict") {
        ingest = io::FastqPolicy::kStrict;
      } else if (p == "skip") {
        ingest = io::FastqPolicy::kSkip;
      } else {
        std::cerr << "mem2_cli: --ingest expects 'strict' or 'skip', got '"
                  << p << "'\n";
        return usage();
      }
    } else if (!std::strcmp(argv[i], "--fault") && i + 1 < argc) {
      if (!util::FaultInjector::instance().arm(argv[++i])) {
        std::cerr << "mem2_cli: invalid --fault spec '" << argv[i]
                  << "' (expected site[:nth])\n";
        return usage();
      }
    } else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--metrics-out") && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      std::cerr << "mem2_cli: unknown option " << argv[i] << '\n';
      return usage();
    }
  }
  const int n_pos = argc - i;
  if (n_pos != 2 && n_pos != 3) return usage();
  const bool two_files = n_pos == 3;
  opt.paired = two_files || interleaved;
  if (opt.paired && opt.batch_size % 2 != 0) {
    ++opt.batch_size;
    std::cerr << "[mem2] paired mode needs an even batch size; using -b "
              << opt.batch_size << '\n';
  }

  std::cerr << "[mem2] loading index " << argv[i] << "...\n";
  const auto index = index::load_index(argv[i]);

  const align::Aligner aligner(index, opt);
  if (!aligner.ok()) return fail(aligner.status());

  std::cerr << "[mem2] streaming " << argv[i + 1]
            << (two_files ? std::string(" + ") + argv[i + 2] : std::string())
            << " (" << (opt.mode == align::Mode::kBaseline ? "baseline" : "batch")
            << (opt.paired ? ", paired" : "") << ", " << opt.effective_workers()
            << " worker(s), batch " << opt.batch_size << ")...\n";

  // Hardware counters must open (inherit=1) before the session spawns its
  // worker pool so the whole process is covered; tracing must be enabled
  // before the first span fires.
  std::unique_ptr<util::PerfCounters> perf;
  if (!metrics_path.empty()) {
    perf = std::make_unique<util::PerfCounters>(/*inherit=*/true);
    perf->start();
  }
  if (!trace_path.empty()) util::Tracer::instance().enable();

  util::Timer t;
  align::OstreamSamSink sink(std::cout);
  align::Stream stream = aligner.open(sink);

  // One batch is staged here, at most queue_depth + workers batches are in
  // flight inside the session: memory stays O(queue_depth × batch_size).
  align::Status submit_st;
  const auto submit = [&](std::vector<seq::Read>&& chunk) {
    submit_st = stream.submit(std::move(chunk));
    return submit_st.ok();
  };
  std::uint64_t records_skipped = 0, pairs_dropped = 0;
  std::vector<seq::Read> chunk;
  if (opt.paired) {
    auto paired = two_files
                      ? io::PairedFastqStream(argv[i + 1], argv[i + 2], ingest)
                      : io::PairedFastqStream(argv[i + 1], ingest);
    const auto pairs_per_chunk = static_cast<std::size_t>(opt.batch_size) / 2;
    while (paired.next_chunk(chunk, pairs_per_chunk) > 0) {
      if (!submit(std::move(chunk))) return fail(submit_st);
      chunk = {};
    }
    records_skipped = paired.records_skipped();
    pairs_dropped = paired.pairs_dropped();
  } else {
    io::FastqStream fastq(argv[i + 1], ingest);
    while (fastq.next_chunk(chunk, static_cast<std::size_t>(opt.batch_size)) > 0) {
      if (!submit(std::move(chunk))) return fail(submit_st);
      chunk = {};
    }
    records_skipped = fastq.records_skipped();
  }
  if (const auto st = stream.finish(); !st.ok()) return fail(st);
  if (ingest == io::FastqPolicy::kSkip && (records_skipped || pairs_dropped)) {
    std::cerr << "[mem2] ingest: skipped " << records_skipped
              << " damaged record(s)";
    if (opt.paired) std::cerr << ", dropped " << pairs_dropped << " pair(s)";
    std::cerr << '\n';
  }

  std::cerr << "[mem2] " << stream.stats().reads << " reads -> "
            << sink.records_written() << " records in " << t.seconds() << "s\n";
  if (opt.paired) {
    const auto& c = stream.stats().counters;
    std::cerr << "[mem2] insert stats: " << stream.pair_stats().summary() << '\n'
              << "[mem2] proper_pairs=" << c.pe_proper_pairs
              << " rescued_pairs=" << c.pe_rescued_pairs
              << " rescue_windows=" << c.pe_rescue_windows
              << " rescue_jobs=" << c.pe_rescue_jobs
              << " rescue_hits=" << c.pe_rescue_hits << '\n';
  }
  if (!trace_path.empty()) finish_trace(trace_path);
  if (!metrics_path.empty()) {
    util::PerfSample hw;
    if (perf) hw = perf->stop();
    if (!write_mem_metrics(metrics_path, stream.metrics(),
                           stream.stats().counters, stream.stats().reads,
                           hw.valid ? &hw : nullptr, t.seconds()))
      std::cerr << "[mem2] warning: cannot write metrics file " << metrics_path
                << '\n';
    else
      std::cerr << "[mem2] metrics -> " << metrics_path << '\n';
  }
  return 0;
}

/// One `out.sam=reads.fq[,mates.fq][,skip]` client spec.
struct StreamSpec {
  std::string out;
  std::string fq1, fq2;  // fq2 empty for single-end
  io::FastqPolicy ingest = io::FastqPolicy::kStrict;
};

bool parse_stream_spec(const std::string& arg, StreamSpec& spec) {
  const auto eq = arg.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == arg.size()) return false;
  spec.out = arg.substr(0, eq);
  std::vector<std::string> parts;
  for (std::size_t pos = eq + 1; pos <= arg.size();) {
    const auto comma = arg.find(',', pos);
    const auto end = comma == std::string::npos ? arg.size() : comma;
    parts.push_back(arg.substr(pos, end - pos));
    pos = end + 1;
  }
  if (!parts.empty() && parts.back() == "skip") {
    spec.ingest = io::FastqPolicy::kSkip;
    parts.pop_back();
  }
  if (parts.empty() || parts.size() > 2 || parts[0].empty()) return false;
  spec.fq1 = parts[0];
  if (parts.size() == 2) {
    if (parts[1].empty()) return false;
    spec.fq2 = parts[1];
  }
  return true;
}

/// Drive one client session: stream the FASTQ(s) through the service in
/// batch-size chunks, then finish.  Runs on its own thread.
align::Status run_client(serve::ServiceStream& stream, const StreamSpec& spec,
                         const align::DriverOptions& opt) {
  align::Status st;
  const auto submit = [&](std::vector<seq::Read>&& chunk) {
    st = stream.submit(std::move(chunk));
    return st.ok();
  };
  // SIGINT/SIGTERM: stop submitting at the next chunk boundary and fall
  // through to finish(), which drains and flushes — the SAM written is a
  // valid prefix and the process exits 0.
  const auto interrupted = [] {
    return g_signal.load(std::memory_order_acquire) != 0;
  };
  try {
    std::vector<seq::Read> chunk;
    if (!spec.fq2.empty()) {
      io::PairedFastqStream paired(spec.fq1, spec.fq2, spec.ingest);
      const auto per_chunk = static_cast<std::size_t>(opt.batch_size) / 2;
      while (!interrupted() && paired.next_chunk(chunk, per_chunk) > 0) {
        if (!submit(std::move(chunk))) return st;
        chunk = {};
      }
    } else {
      io::FastqStream fastq(spec.fq1, spec.ingest);
      while (!interrupted() &&
             fastq.next_chunk(chunk, static_cast<std::size_t>(opt.batch_size)) > 0) {
        if (!submit(std::move(chunk))) return st;
        chunk = {};
      }
    }
  } catch (const std::exception& e) {
    // Ingest failure (unreadable/damaged FASTQ under strict policy): this
    // client dies; the service and its siblings are untouched.
    stream.finish();
    return align::Status::from_exception(e).with_context("ingest");
  }
  return stream.finish();
}

int cmd_serve(int argc, char** argv) {
  serve::ServeOptions sopt;
  int batch_size = 512;
  std::string trace_path, metrics_path;
  long long metrics_interval = 0;
  long long shutdown_grace_ms = 5000;
  long long cancel_after_ms = 0;
  long long v = 0;
  int i = 0;
  for (; i < argc && argv[i][0] == '-'; ++i) {
    if (!std::strcmp(argv[i], "-w") && i + 1 < argc) {
      if (!parse_arg("-w", argv[++i], 0, INT_MAX, v)) return usage();
      sopt.workers = static_cast<int>(v);
    } else if (!std::strcmp(argv[i], "-b") && i + 1 < argc) {
      if (!parse_arg("-b", argv[++i], 1, INT_MAX, v)) return usage();
      batch_size = static_cast<int>(v);
    } else if (!std::strcmp(argv[i], "--max-streams") && i + 1 < argc) {
      if (!parse_arg("--max-streams", argv[++i], 1, INT_MAX, v)) return usage();
      sopt.max_streams = static_cast<int>(v);
    } else if (!std::strcmp(argv[i], "--max-inflight") && i + 1 < argc) {
      if (!parse_arg("--max-inflight", argv[++i], 1, INT_MAX, v)) return usage();
      sopt.max_inflight_batches = static_cast<int>(v);
    } else if (!std::strcmp(argv[i], "--admission-timeout-ms") && i + 1 < argc) {
      if (!parse_arg("--admission-timeout-ms", argv[++i], 0, INT_MAX, v))
        return usage();
      sopt.admission_timeout_ms = static_cast<int>(v);
    } else if (!std::strcmp(argv[i], "--max-pending") && i + 1 < argc) {
      if (!parse_arg("--max-pending", argv[++i], 0, INT_MAX, v)) return usage();
      sopt.max_pending_opens = static_cast<int>(v);
    } else if (!std::strcmp(argv[i], "--batch-stall-ms") && i + 1 < argc) {
      if (!parse_arg("--batch-stall-ms", argv[++i], 0, INT_MAX, v))
        return usage();
      sopt.batch_stall_ms = static_cast<int>(v);
    } else if (!std::strcmp(argv[i], "--shutdown-grace-ms") && i + 1 < argc) {
      if (!parse_arg("--shutdown-grace-ms", argv[++i], 0, INT_MAX, v))
        return usage();
      shutdown_grace_ms = v;
    } else if (!std::strcmp(argv[i], "--cancel-after-ms") && i + 1 < argc) {
      if (!parse_arg("--cancel-after-ms", argv[++i], 0, INT_MAX, v))
        return usage();
      cancel_after_ms = v;
    } else if (!std::strcmp(argv[i], "--metrics-interval") && i + 1 < argc) {
      if (!parse_arg("--metrics-interval", argv[++i], 1, 3600, v))
        return usage();
      metrics_interval = v;
    } else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--metrics-out") && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      std::cerr << "mem2_cli: unknown option " << argv[i] << '\n';
      return usage();
    }
  }
  if (argc - i < 2) return usage();
  std::vector<StreamSpec> specs;
  for (int s = i + 1; s < argc; ++s) {
    StreamSpec spec;
    if (!parse_stream_spec(argv[s], spec)) {
      std::cerr << "mem2_cli: bad stream spec '" << argv[s]
                << "' (expected out.sam=reads.fq[,mates.fq][,skip])\n";
      return usage();
    }
    specs.push_back(std::move(spec));
  }

  std::cerr << "[mem2] loading index " << argv[i] << "...\n";
  const auto index = index::load_index(argv[i]);
  // Open hw counters (inherit=1) and enable tracing before the service
  // spawns its pool: threads created after this point are covered.
  std::unique_ptr<util::PerfCounters> perf;
  if (!metrics_path.empty()) {
    perf = std::make_unique<util::PerfCounters>(/*inherit=*/true);
    perf->start();
  }
  if (!trace_path.empty()) util::Tracer::instance().enable();
  serve::AlignService service(index, sopt);
  if (!service.ok()) return fail(service.status());
  std::cerr << "[mem2] serving " << specs.size() << " stream(s), "
            << (sopt.workers ? std::to_string(sopt.workers) : "auto")
            << " pooled worker(s), max " << sopt.max_streams << " streams / "
            << sopt.max_inflight_batches << " in-flight batches\n";

  // Output files and per-stream options are prepared up front so file
  // errors surface before any alignment work; the streams themselves are
  // opened inside each client thread — that way a queued open (with
  // --admission-timeout-ms) is admitted when an earlier stream finishes
  // instead of waiting on sessions that cannot start yet.
  std::vector<std::ofstream> outs;
  outs.reserve(specs.size());  // sinks hold references: no reallocation
  std::vector<std::unique_ptr<align::OstreamSamSink>> sinks;
  std::vector<align::DriverOptions> opts;
  for (const StreamSpec& spec : specs) {
    align::DriverOptions opt;
    opt.batch_size = batch_size;
    opt.paired = !spec.fq2.empty();
    if (opt.paired && opt.batch_size % 2 != 0) ++opt.batch_size;
    outs.emplace_back(spec.out, std::ios::binary);
    if (!outs.back())
      return fail(align::Status::io("cannot open output file: " + spec.out));
    sinks.push_back(std::make_unique<align::OstreamSamSink>(outs.back()));
    opts.push_back(opt);
  }
  std::vector<std::unique_ptr<serve::ServiceStream>> streams(specs.size());
  std::mutex streams_mu;  // guards slot assignment vs the cancel hook

  util::Timer t;
  std::atomic<bool> done{false};
  std::thread reporter;
  if (metrics_interval > 0) {
    reporter = std::thread([&] {
      while (!done.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::seconds(metrics_interval));
        if (done.load(std::memory_order_acquire)) break;
        const serve::ServiceMetrics m = service.metrics();
        std::cerr << "[mem2] " << m.summary() << '\n';
        // Live exposition: rewrite the snapshot each tick so a scraper
        // tailing the file sees fresh data (hw counters land at exit).
        if (!metrics_path.empty() &&
            !write_serve_metrics(metrics_path, m, nullptr, t.seconds()))
          std::cerr << "[mem2] warning: cannot write metrics file "
                    << metrics_path << '\n';
      }
    });
  }

  // Graceful SIGINT/SIGTERM: clients see g_signal and stop at a chunk
  // boundary; this watcher additionally runs service shutdown so a client
  // wedged in back-pressure is cancelled after the grace period instead of
  // hanging the process.
  std::signal(SIGINT, handle_shutdown_signal);
  std::signal(SIGTERM, handle_shutdown_signal);
  std::thread sigwatch([&] {
    while (!done.load(std::memory_order_acquire) &&
           g_signal.load(std::memory_order_acquire) == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (done.load(std::memory_order_acquire)) return;
    const int sig = g_signal.load(std::memory_order_acquire);
    std::cerr << "[mem2] caught signal " << sig << "; draining (grace "
              << shutdown_grace_ms << "ms)...\n";
    const align::Status st =
        service.shutdown(std::chrono::milliseconds(shutdown_grace_ms));
    if (!st.ok())
      std::cerr << "[mem2] shutdown: " << st.to_string() << '\n';
  });

  // Test hook for the exit-8 contract: cancel every stream after a delay.
  std::thread canceller;
  if (cancel_after_ms > 0)
    canceller = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(cancel_after_ms));
      if (done.load(std::memory_order_acquire)) return;
      std::lock_guard<std::mutex> lk(streams_mu);
      for (auto& stream : streams)
        if (stream) stream->cancel();
    });

  std::vector<align::Status> results(specs.size());
  std::vector<std::thread> clients;
  clients.reserve(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s)
    clients.emplace_back([&, s] {
      auto stream = std::make_unique<serve::ServiceStream>(
          service.open(opts[s], *sinks[s]));
      serve::ServiceStream* raw = nullptr;
      {
        std::lock_guard<std::mutex> lk(streams_mu);
        raw = (streams[s] = std::move(stream)).get();
      }
      if (!raw->ok()) {
        results[s] = raw->status();
        return;
      }
      results[s] = run_client(*raw, specs[s], opts[s]);
    });
  for (auto& c : clients) c.join();
  done.store(true, std::memory_order_release);
  if (reporter.joinable()) reporter.join();
  if (sigwatch.joinable()) sigwatch.join();
  if (canceller.joinable()) canceller.join();

  align::Status first_error;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const auto& st = results[s];
    if (st.ok()) {
      std::cerr << "[mem2] stream '" << specs[s].out << "': "
                << streams[s]->stats().reads << " reads -> "
                << streams[s]->metrics().records << " records (queue hwm "
                << streams[s]->metrics().queue_hwm << ")\n";
    } else {
      std::cerr << "[mem2] stream '" << specs[s].out
                << "' failed: " << st.to_string() << '\n';
      if (first_error.ok()) first_error = st;
    }
  }
  std::cerr << "[mem2] " << service.metrics().summary() << " | wall "
            << t.seconds() << "s\n";
  if (!trace_path.empty()) finish_trace(trace_path);
  if (!metrics_path.empty()) {
    util::PerfSample hw;
    if (perf) hw = perf->stop();
    if (!write_serve_metrics(metrics_path, service.metrics(),
                             hw.valid ? &hw : nullptr, t.seconds()))
      std::cerr << "[mem2] warning: cannot write metrics file " << metrics_path
                << '\n';
    else
      std::cerr << "[mem2] metrics -> " << metrics_path << '\n';
  }
  if (!first_error.ok()) return exit_code(first_error.code());
  return 0;
}

int cmd_simulate(int argc, char** argv) {
  if (argc < 2) return usage();
  long long v = 0;
  seq::GenomeConfig cfg;
  if (!parse_arg("<length>", argv[1], 1, LLONG_MAX, v)) return usage();
  cfg.contig_lengths = {v};
  if (argc > 2) {
    if (!parse_arg("[seed]", argv[2], 0, LLONG_MAX, v)) return usage();
    cfg.seed = static_cast<std::uint64_t>(v);
  }
  const auto ref = seq::simulate_genome(cfg);
  io::save_reference(argv[0], ref);
  std::cerr << "[mem2] wrote " << ref.length() << " bp to " << argv[0] << '\n';
  return 0;
}

int cmd_wgsim(int argc, char** argv) {
  if (argc < 4) return usage();
  long long v = 0;
  const auto ref = io::load_reference(argv[0]);
  seq::ReadSimConfig cfg;
  if (!parse_arg("<n_reads>", argv[2], 1, LLONG_MAX, v)) return usage();
  cfg.num_reads = v;
  if (!parse_arg("<read_len>", argv[3], 1, INT_MAX, v)) return usage();
  cfg.read_length = static_cast<int>(v);
  if (argc > 4) {
    if (!parse_arg("[seed]", argv[4], 0, LLONG_MAX, v)) return usage();
    cfg.seed = static_cast<std::uint64_t>(v);
  }
  io::write_fastq_file(argv[1], seq::simulate_reads(ref, cfg));
  std::cerr << "[mem2] wrote " << cfg.num_reads << " x " << cfg.read_length
            << " bp reads to " << argv[1] << '\n';
  return 0;
}

int cmd_wgsim_pe(int argc, char** argv) {
  if (argc < 5) return usage();
  long long v = 0;
  const auto ref = io::load_reference(argv[0]);
  seq::PairSimConfig cfg;
  if (!parse_arg("<n_pairs>", argv[3], 1, LLONG_MAX, v)) return usage();
  cfg.num_pairs = v;
  if (!parse_arg("<read_len>", argv[4], 1, INT_MAX, v)) return usage();
  cfg.read_length = static_cast<int>(v);
  if (argc > 5) {
    if (!parse_arg("[insert_mean]", argv[5], 1, INT_MAX, v)) return usage();
    cfg.insert_mean = static_cast<double>(v);
  }
  if (argc > 6) {
    if (!parse_arg("[insert_std]", argv[6], 0, INT_MAX, v)) return usage();
    cfg.insert_std = static_cast<double>(v);
  }
  if (argc > 7) {
    if (!parse_arg("[seed]", argv[7], 0, LLONG_MAX, v)) return usage();
    cfg.seed = static_cast<std::uint64_t>(v);
  }
  const auto pairs = seq::simulate_pairs(ref, cfg);
  std::vector<seq::Read> r1, r2;
  r1.reserve(pairs.size() / 2);
  r2.reserve(pairs.size() / 2);
  for (std::size_t p = 0; p + 1 < pairs.size(); p += 2) {
    r1.push_back(pairs[p]);
    r2.push_back(pairs[p + 1]);
  }
  io::write_fastq_file(argv[1], r1);
  io::write_fastq_file(argv[2], r2);
  std::cerr << "[mem2] wrote " << cfg.num_pairs << " x 2 x " << cfg.read_length
            << " bp pairs (insert " << cfg.insert_mean << " +/- "
            << cfg.insert_std << ") to " << argv[1] << " / " << argv[2] << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    // Resolve the ISA cap eagerly so a bad MEM2_FORCE_ISA value fails here
    // as a usage error (exit 2) instead of mid-alignment on a worker thread.
    util::dispatch_isa();
    if (cmd == "index") return cmd_index(argc - 2, argv + 2);
    if (cmd == "mem") return cmd_mem(argc - 2, argv + 2);
    if (cmd == "serve") return cmd_serve(argc - 2, argv + 2);
    if (cmd == "simulate") return cmd_simulate(argc - 2, argv + 2);
    if (cmd == "wgsim") return cmd_wgsim(argc - 2, argv + 2);
    if (cmd == "wgsim-pe") return cmd_wgsim_pe(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    // Every escaping exception maps onto the Status taxonomy and from
    // there onto the documented exit codes (2/3/4/5).
    return fail(align::Status::from_exception(e));
  }
  return usage();
}
