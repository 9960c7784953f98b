// mem2_cli — a bwa-mem2-style command-line aligner on the library API.
//
//   mem2_cli index [-t N] <ref.fasta> <out.m2i>
//   mem2_cli mem [options] <index.m2i> <reads.fastq> [mates.fastq]
//   mem2_cli serve [options] <index.m2i> <out.sam=reads.fq[,mates.fq]>...
//   mem2_cli simulate | wgsim | wgsim-pe ...   (test data)
//
// Each subcommand's flags are one Flag table, parsed by parse_flags() and
// printed by usage().  `mem` and `serve` share their common flags, the
// FASTQ client loop, the observability scope and the metrics writer.
// Reads stream in batch-size chunks, so memory is bounded by the session's
// queue — the input file never needs to fit in memory.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

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

/// Parse an integer argument for `flag`, requiring min <= value <= max
/// (pass INT_MAX for int-typed destinations so huge values error instead
/// of truncating).  Garbage ("12x", "", overflow) and out-of-range values
/// print a usage error naming the flag.
bool parse_arg(const char* flag, const char* s, long long min, long long max,
               long long& out) {
  errno = 0;
  char* end = nullptr;
  out = s != nullptr ? std::strtoll(s, &end, 10) : 0;
  if (s == nullptr || *s == '\0' || errno == ERANGE || *end != '\0' ||
      out < min || out > max) {
    std::cerr << "mem2_cli: invalid value for " << flag << ": '"
              << (s ? s : "") << "' (integer in [" << min << ", " << max
              << "] expected)\n";
    return false;
  }
  return true;
}

// ------------------------------------------------------------ option table

/// One command-line flag.  `parse` gets its value (null for a presence
/// flag: empty metavar) and returns false after an error naming the flag.
/// `help` ends with the default: the destination's value at table build.
struct Flag {
  std::string name, metavar, help;
  std::function<bool(const char*)> parse;
};
using FlagTable = std::vector<Flag>;

/// Integer in [min, max] into `dst`; `zero` names what a 0 default means.
template <typename T>
Flag int_flag(const char* name, std::string help, T& dst, long long min,
              long long max = INT_MAX, const char* zero = nullptr) {
  help += " (default " +
          (zero != nullptr && dst == 0 ? zero : std::to_string(dst)) + ")";
  return {name, "N", std::move(help), [name, &dst, min, max](const char* s) {
            long long v = 0;
            if (!parse_arg(name, s, min, max, v)) return false;
            dst = static_cast<T>(v);
            return true;
          }};
}

Flag string_flag(const char* name, std::string help, std::string& dst) {
  return {name, "FILE", std::move(help), [&dst](const char* s) {
            dst = s;
            return true;
          }};
}

/// Presence flag: stores `value` into `dst`.
template <typename T>
Flag set_flag(const char* name, std::string help, T& dst, T value) {
  return {name, "", std::move(help), [&dst, value](const char*) {
            dst = value;
            return true;
          }};
}

/// One word of `choices` into `dst`, e.g. `--ingest strict|skip`.
template <typename T>
Flag enum_flag(const char* name, std::string help, T& dst,
               std::vector<std::pair<std::string, T>> choices) {
  std::string metavar;
  for (const auto& [word, value] : choices) {
    metavar += (metavar.empty() ? "" : "|") + word;
    if (value == dst) help += " (default " + word + ")";
  }
  return {name, metavar, std::move(help),
          [name, metavar, &dst, choices](const char* s) {
            for (const auto& [word, value] : choices)
              if (word == s) {
                dst = value;
                return true;
              }
            std::cerr << "mem2_cli: " << name << " expects " << metavar
                      << ", got '" << s << "'\n";
            return false;
          }};
}

/// Consume the leading flags of argv against `table`.  Returns the index
/// of the first positional argument, or -1 after a usage error naming the
/// flag.
int parse_flags(const FlagTable& table, int argc, char** argv) {
  int i = 0;
  for (; i < argc && argv[i][0] == '-'; ++i) {
    const std::string arg = argv[i];
    const auto f = std::find_if(table.begin(), table.end(),
                                [&](const Flag& f) { return f.name == arg; });
    if (f == table.end() || (!f->metavar.empty() && i + 1 >= argc)) {
      std::cerr << "mem2_cli: "
                << (f == table.end() ? "unknown option " : "missing value for ")
                << arg << '\n';
      return -1;
    }
    if (!f->parse(f->metavar.empty() ? nullptr : argv[++i])) return -1;
  }
  return i;
}

/// One usage entry per flag, help word-wrapped into columns 24..79.
void print_flags(const FlagTable& table) {
  for (const Flag& f : table) {
    std::string line = "      " + f.name + (f.metavar.empty() ? "" : " ");
    line += f.metavar;
    std::istringstream words(f.help);
    for (std::string w; words >> w; line += ' ' + w) {
      if (line.size() < 23) {
        line.resize(23, ' ');
      } else if (line.size() + 1 + w.size() > 79) {
        std::cerr << line << '\n';
        line.assign(23, ' ');
      }
    }
    std::cerr << line << '\n';
  }
}

FlagTable index_flags(index::IndexBuildOptions& build) {
  return {int_flag("-t", "suffix-array build threads (same index for any N)",
                   build.threads, 1, INT_MAX, "all cores")};
}

/// Options `mem` and `serve` share, declared once in add_run_flags().
struct RunArgs {
  int batch_size = align::DriverOptions{}.batch_size;
  std::string trace_path, metrics_path;
};

void add_run_flags(FlagTable& table, RunArgs& run) {
  table.insert(
      table.end(),
      {int_flag("-b", "reads per batch; paired mode rounds odd N up to even",
                run.batch_size, 1),
       string_flag("--trace", "write a Chrome trace (Perfetto-loadable) of "
                   "the pipeline spans at exit; serve: pid = stream",
                   run.trace_path),
       string_flag("--metrics-out", "write a Prometheus text metrics "
                   "snapshot at exit and every --metrics-interval tick",
                   run.metrics_path)});
}

struct MemArgs {
  align::DriverOptions opt;
  RunArgs run;
  bool interleaved = false;
  io::FastqPolicy ingest = io::FastqPolicy::kStrict;
};

FlagTable mem_flags(MemArgs& a) {
  FlagTable table = {
      int_flag("-t", "pipeline worker threads", a.opt.threads, 1),
      set_flag("--baseline", "original read-at-a-time driver", a.opt.mode,
               align::Mode::kBaseline),
      set_flag("-p", "paired interleaved input (single FASTQ); two FASTQ "
               "files imply paired mode", a.interleaved, true),
      int_flag("-k", "min seed length", a.opt.mem.seeding.min_seed_len, 1),
      int_flag("-T", "min output score", a.opt.mem.min_out_score, 0),
      enum_flag("--ingest", "damaged-FASTQ policy: fail fast, or resync at "
                "the next '@' and report counts", a.ingest,
                {{"strict", io::FastqPolicy::kStrict},
                 {"skip", io::FastqPolicy::kSkip}}),
      {"--fault", "site[:nth[-mth]]",
       "arm the fault injector (testing; also MEM2_FAULT)",
       [](const char* spec) {
         if (util::FaultInjector::instance().arm(spec)) return true;
         std::cerr << "mem2_cli: invalid --fault spec '" << spec << "'\n";
         return false;
       }},
  };
  add_run_flags(table, a.run);
  return table;
}

struct ServeArgs {
  serve::ServeOptions sopt;
  RunArgs run;
  long long metrics_interval = 0;
  long long shutdown_grace_ms = 5000;
  long long cancel_after_ms = 0;
};

FlagTable serve_flags(ServeArgs& a) {
  serve::ServeOptions& s = a.sopt;
  FlagTable table = {
      int_flag("-w", "pooled worker threads", s.workers, 0, INT_MAX,
               "all cores"),
      int_flag("--max-streams", "admission: max concurrent sessions",
               s.max_streams, 1),
      int_flag("--max-inflight", "admission: global in-flight batch budget",
               s.max_inflight_batches, 1),
      int_flag("--admission-timeout-ms", "queue over-capacity opens FIFO for "
               "up to N ms", s.admission_timeout_ms, 0, INT_MAX,
               "0: fail fast"),
      int_flag("--max-pending", "bound on queued opens", s.max_pending_opens,
               0),
      int_flag("--batch-stall-ms", "watchdog: cancel (exit 7) a session "
               "whose batch makes no progress for N ms", s.batch_stall_ms, 0,
               INT_MAX, "0: off"),
      int_flag("--shutdown-grace-ms", "on SIGINT/SIGTERM, wait N ms for "
               "streams to drain, then cancel them", a.shutdown_grace_ms, 0),
      int_flag("--cancel-after-ms", "cancel every stream after N ms, to test "
               "exit 8", a.cancel_after_ms, 0, INT_MAX, "0: off"),
      int_flag("--metrics-interval", "print a service metrics snapshot to "
               "stderr every N seconds", a.metrics_interval, 1, 3600, "off"),
  };
  add_run_flags(table, a.run);
  return table;
}

int usage() {
  index::IndexBuildOptions build;
  MemArgs mem;
  ServeArgs serve;
  std::cerr << "usage:\n"
               "  mem2_cli index [-t N] <ref.fasta> <out.m2i>\n"
               "      prints per-phase progress and peak RSS\n";
  print_flags(index_flags(build));
  std::cerr << "  mem2_cli mem [options] <index.m2i> <reads.fq> [mates.fq]\n";
  print_flags(mem_flags(mem));
  std::cerr << "  mem2_cli serve [options] <index.m2i> <stream>...\n"
               "      each <stream> is out.sam=reads.fq[,mates.fq][,skip]: one\n"
               "      session per spec over one index and worker pool (two\n"
               "      FASTQs imply paired mode; ,skip selects --ingest skip)\n";
  print_flags(serve_flags(serve));
  std::cerr <<
      "  mem2_cli simulate <out.fasta> <length> [seed]\n"
      "  mem2_cli wgsim <ref.fasta> <out.fastq> <n_reads> <read_len> [seed]\n"
      "  mem2_cli wgsim-pe <ref.fasta> <out1.fastq> <out2.fastq> <n_pairs>"
      " <read_len> [insert_mean] [insert_std] [seed]\n"
      "exit codes: 2 usage/invalid argument, 3 I/O error, 4 data corruption,"
      " 5 internal error, 6 resource exhausted (admission denied),"
      " 7 deadline exceeded (watchdog), 8 cancelled\n";
  return 2;
}

/// Paired batches hold whole pairs, so an odd -b rounds up to even; INT_MAX
/// has no even successor in range and is a usage error.
bool even_batch_size(int& batch_size) {
  if (batch_size % 2 == 0) return true;
  if (batch_size == INT_MAX) {
    std::cerr << "mem2_cli: invalid value for -b: '" << batch_size
              << "' (paired mode needs an even batch size)\n";
    return false;
  }
  ++batch_size;
  std::cerr << "[mem2] paired mode needs an even batch size; using -b "
            << batch_size << '\n';
  return true;
}

// ------------------------------------------------------------ client loop

/// One client's input: a FASTQ, two mate FASTQs, or one interleaved paired
/// FASTQ.
struct ReadSource {
  std::string fq1, fq2;  // fq2 set only for two mate files
  bool interleaved = false;
  io::FastqPolicy ingest = io::FastqPolicy::kStrict;
  bool paired() const { return interleaved || !fq2.empty(); }
};

struct IngestResult {
  align::Status status;  // the first failed submit(), else ok
  std::uint64_t records_skipped = 0, pairs_dropped = 0;  // kSkip only
};

/// Stream `src` into `stream` (an Aligner or a service session) in
/// batch_size-read chunks until the input ends, a submit fails or `stop()`
/// turns true.  One chunk is staged here; the session bounds the rest.
/// Unreadable or (under kStrict) damaged FASTQ throws.
IngestResult stream_reads(align::Stream& stream, const ReadSource& src,
                          int batch_size, bool (*stop)()) {
  IngestResult r;
  std::vector<seq::Read> chunk;
  const auto pump = [&](auto& fastq, std::size_t per_chunk) {
    while (!stop() && fastq.next_chunk(chunk, per_chunk) > 0) {
      r.status = stream.submit(std::move(chunk));
      if (!r.status.ok()) break;
      chunk = {};
    }
    r.records_skipped = fastq.records_skipped();
  };
  const auto n = static_cast<std::size_t>(batch_size);
  if (src.paired()) {
    auto fastq = src.fq2.empty()
                     ? io::PairedFastqStream(src.fq1, src.ingest)
                     : io::PairedFastqStream(src.fq1, src.fq2, src.ingest);
    pump(fastq, n / 2);
    r.pairs_dropped = fastq.pairs_dropped();
  } else {
    io::FastqStream fastq(src.fq1, src.ingest);
    pump(fastq, n);
  }
  return r;
}

void report_ingest(const ReadSource& src, const IngestResult& r) {
  if (r.records_skipped == 0 && r.pairs_dropped == 0) return;
  std::cerr << "[mem2] " << src.fq1 << " ingest: skipped " << r.records_skipped
            << " damaged record(s)";
  if (src.paired()) std::cerr << ", dropped " << r.pairs_dropped << " pair(s)";
  std::cerr << '\n';
}

// ------------------------------------------------------------ observability

/// What one metrics file reports: merged stream metrics and run totals,
/// plus, for `serve`, the service's admission and stream-count families.
struct MetricsSnapshot {
  align::StreamMetrics stream;
  util::SwCounters counters;
  std::uint64_t reads = 0;
  double wall = 0;
  const serve::ServiceMetrics* service = nullptr;
};

MetricsSnapshot service_snapshot(const serve::ServiceMetrics& m, double wall) {
  return {m.merged, m.counters, m.reads, wall, &m};
}

/// Snapshot files written by this process.  Atomic: write_metrics runs on
/// the main thread and on serve's --metrics-interval timer thread.
std::atomic<std::uint64_t> g_metrics_snapshots{0};

void count(util::PromWriter& w, std::string_view name, std::string_view help,
           std::uint64_t n) {
  w.counter(name, help, static_cast<double>(n));
}

/// The one Prometheus writer: the stream families, the full SwCounters
/// table, per-span-name tracer aggregates (empty unless --trace enabled
/// it), ring-drop accounting, hardware counters when the container allows
/// perfevent_open, the service families, then the snapshot count.
/// `path` is rewritten atomically (tmp + rename), so a reader
/// never sees a torn file; failure warns on stderr.
bool write_metrics(const std::string& path, const MetricsSnapshot& s,
                   const util::PerfSample* hw) {
  const std::uint64_t snapshots = ++g_metrics_snapshots;
  const std::string tmp = path + ".tmp";
  std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
  {
    util::PromWriter w(os);
    const align::StreamMetrics& m = s.stream;
    w.gauge("mem2_wall_seconds", "Wall time of the run", s.wall);
    w.gauge("mem2_queue_hwm", "Deepest session queue high-water mark",
            static_cast<double>(m.queue_hwm));
    count(w, "mem2_reads_total", "Reads aligned", s.reads);
    count(w, "mem2_records_total", "SAM records written", m.records);
    count(w, "mem2_batches_total", "Batches processed", m.batches);
    count(w, "mem2_sink_write_retries_total",
          "Transient sink write retries absorbed", m.write_retries);
    w.histogram("mem2_batch_latency_seconds",
                "Batch latency, enqueue to reassembled sink write",
                m.batch_latency);
    w.histogram("mem2_queue_wait_seconds",
                "Batch queue wait, enqueue to worker pickup", m.queue_wait);
    for (std::size_t i = 0; i < m.stage_seconds.size(); ++i) {
      const auto stage = static_cast<util::Stage>(i);
      if (m.stage_seconds[i].count() > 0)
        w.histogram("mem2_stage_seconds", "Per-batch pipeline stage seconds",
                    m.stage_seconds[i],
                    "stage=\"" + std::string(util::stage_name(stage)) + "\"");
    }
    util::write_sw_counters(w, s.counters);
    const auto& tracer = util::Tracer::instance();
    for (const auto& agg : tracer.aggregate()) {
      const std::string label = "span=\"" + agg.name + "\"";
      w.counter("mem2_span_seconds_total", "Total seconds inside trace spans",
                agg.seconds(), label);
      w.counter("mem2_span_count_total", "Trace span invocations",
                static_cast<double>(agg.count), label);
    }
    count(w, "mem2_trace_recorded_spans_total", "Trace events recorded",
          tracer.recorded());
    count(w, "mem2_trace_dropped_spans_total",
          "Trace events overwritten by ring wraparound", tracer.dropped());
    if (hw != nullptr && hw->valid) {
      count(w, "mem2_hw_instructions_total",
            "Retired instructions (perfevent, whole process)",
            hw->instructions);
      count(w, "mem2_hw_cycles_total", "CPU cycles (perfevent, whole process)",
            hw->cycles);
      count(w, "mem2_hw_cache_references_total",
            "Cache references (perfevent, whole process)",
            hw->cache_references);
      count(w, "mem2_hw_cache_misses_total",
            "Cache misses (perfevent, whole process)", hw->cache_misses);
    }
    if (const serve::ServiceMetrics* sm = s.service) {
      w.gauge("mem2_streams_active", "Live sessions", sm->active_streams);
      w.gauge("mem2_streams_peak", "Peak concurrent sessions",
              sm->peak_streams);
      w.gauge("mem2_pending_opens", "Opens waiting in the admission queue",
              sm->pending_opens);
      count(w, "mem2_streams_opened_total", "Sessions admitted",
            sm->streams_opened);
      count(w, "mem2_streams_rejected_total", "Admission denials",
            sm->streams_rejected);
      count(w, "mem2_streams_queued_total",
            "Opens that waited in the admission queue", sm->streams_queued);
      count(w, "mem2_streams_timed_out_total",
            "Queued opens that hit the admission deadline",
            sm->streams_timed_out);
      count(w, "mem2_streams_cancelled_total",
            "Watchdog / shutdown cancellations", sm->streams_cancelled);
      count(w, "mem2_streams_completed_total", "Sessions finished ok",
            sm->streams_completed);
      count(w, "mem2_streams_failed_total",
            "Sessions finished with a sticky error", sm->streams_failed);
      w.histogram("mem2_admission_wait_seconds",
                  "Admission queue wait per queued open", sm->admission_wait);
    }
    count(w, "mem2_metrics_snapshots_total", "Prometheus snapshot files written",
          snapshots);
  }
  os.close();
  if (os && std::rename(tmp.c_str(), path.c_str()) == 0) return true;
  std::cerr << "[mem2] warning: cannot write metrics file " << path << '\n';
  return false;
}

/// One run's --trace / --metrics-out scope.  Construct it before the worker
/// pool spawns: the hardware counters (inherit=1) cover only threads
/// created after they open, and tracing must be on before the first span.
struct RunObservability {
  explicit RunObservability(const RunArgs& args) : run(args) {
    if (!run.metrics_path.empty()) {
      perf = std::make_unique<util::PerfCounters>(/*inherit=*/true);
      perf->start();
    }
    if (!run.trace_path.empty()) util::Tracer::instance().enable();
  }

  /// End of run: the Chrome trace, then the final metrics file with the
  /// hardware counters.
  void finish(const MetricsSnapshot& s) {
    if (!run.trace_path.empty()) {
      auto& tracer = util::Tracer::instance();
      tracer.disable();
      if (tracer.write_chrome_trace_file(run.trace_path))
        std::cerr << "[mem2] trace: " << tracer.recorded() << " event(s) ("
                  << tracer.dropped() << " dropped) -> " << run.trace_path
                  << '\n';
      else
        std::cerr << "[mem2] warning: cannot write trace file "
                  << run.trace_path << '\n';
    }
    if (!perf) return;
    const util::PerfSample hw = perf->stop();
    if (write_metrics(run.metrics_path, s, &hw))
      std::cerr << "[mem2] metrics -> " << run.metrics_path << '\n';
  }

  RunArgs run;
  std::unique_ptr<util::PerfCounters> perf;
};

// ------------------------------------------------------------- subcommands

int cmd_index(int argc, char** argv) {
  index::IndexBuildOptions bopt;
  const int i = parse_flags(index_flags(bopt), argc, argv);
  if (i < 0 || argc - i != 2) return usage();
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
  MemArgs a;
  const int i = parse_flags(mem_flags(a), argc, argv);
  if (i < 0 || argc - i < 2 || argc - i > 3) return usage();
  const ReadSource src{argv[i + 1], argc - i == 3 ? argv[i + 2] : "",
                       a.interleaved, a.ingest};
  align::DriverOptions& opt = a.opt;
  opt.paired = src.paired();
  opt.batch_size = a.run.batch_size;
  if (opt.paired && !even_batch_size(opt.batch_size)) return usage();

  std::cerr << "[mem2] loading index " << argv[i] << "...\n";
  const auto index = index::load_index(argv[i]);

  const align::Aligner aligner(index, opt);
  if (!aligner.ok()) return fail(aligner.status());

  std::cerr << "[mem2] streaming " << src.fq1
            << (src.fq2.empty() ? "" : " + " + src.fq2) << " ("
            << (opt.mode == align::Mode::kBaseline ? "baseline" : "batch")
            << (opt.paired ? ", paired" : "") << ", " << opt.threads
            << " worker(s), batch " << opt.batch_size << ")...\n";

  RunObservability obs(a.run);
  util::Timer t;
  align::OstreamSamSink sink(std::cout);
  align::Stream stream = aligner.open(sink);
  const IngestResult in =
      stream_reads(stream, src, opt.batch_size, [] { return false; });
  if (!in.status.ok()) return fail(in.status);
  if (const auto st = stream.finish(); !st.ok()) return fail(st);
  report_ingest(src, in);

  const align::DriverStats& stats = stream.stats();
  std::cerr << "[mem2] " << stats.reads << " reads -> "
            << sink.records_written() << " records in " << t.seconds() << "s\n";
  if (opt.paired) {
    const auto& c = stats.counters;
    std::cerr << "[mem2] insert stats: " << stream.pair_stats().summary() << '\n'
              << "[mem2] proper_pairs=" << c.pe_proper_pairs
              << " rescued_pairs=" << c.pe_rescued_pairs
              << " rescue_windows=" << c.pe_rescue_windows
              << " rescue_jobs=" << c.pe_rescue_jobs
              << " rescue_hits=" << c.pe_rescue_hits << '\n';
  }
  obs.finish({stream.metrics(), stats.counters, stats.reads, t.seconds(), {}});
  return 0;
}

/// One `out.sam=reads.fq[,mates.fq][,skip]` client spec.
struct StreamSpec {
  std::string out;
  ReadSource in;
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
    spec.in.ingest = io::FastqPolicy::kSkip;
    parts.pop_back();
  }
  if (parts.empty() || parts.size() > 2 || parts[0].empty()) return false;
  spec.in.fq1 = parts[0];
  if (parts.size() == 2) {
    if (parts[1].empty()) return false;
    spec.in.fq2 = parts[1];
  }
  return true;
}

/// Drive one client session on its own thread.  SIGINT/SIGTERM stops
/// submitting at the next chunk boundary and falls through to finish(),
/// which drains and flushes — the SAM written is a valid prefix and the
/// process exits 0.  An ingest failure kills this client only; the service
/// and its siblings are untouched.
align::Status run_client(align::Stream& stream, const ReadSource& src,
                         int batch_size) {
  try {
    const IngestResult in = stream_reads(stream, src, batch_size, [] {
      return g_signal.load(std::memory_order_acquire) != 0;
    });
    if (!in.status.ok()) return in.status;
    report_ingest(src, in);
  } catch (const std::exception& e) {
    stream.finish();
    return align::Status::from_exception(e).with_context("ingest");
  }
  return stream.finish();
}

/// One serve client.  Its output file opens up front, so file errors
/// surface before any alignment work; its stream opens on the client's own
/// thread, so a queued open (with --admission-timeout-ms) is admitted when
/// an earlier stream finishes instead of waiting on ones that cannot start.
struct Client {
  StreamSpec spec;
  std::ofstream out;
  std::unique_ptr<align::OstreamSamSink> sink;
  align::DriverOptions opt;
  std::unique_ptr<serve::ServiceStream> stream;  // guarded by streams_mu
  align::Status result;
};

int cmd_serve(int argc, char** argv) {
  ServeArgs a;
  const int i = parse_flags(serve_flags(a), argc, argv);
  if (i < 0 || argc - i < 2) return usage();
  // Sized once: each sink references its client's `out`.
  std::vector<Client> clients(static_cast<std::size_t>(argc - i - 1));
  bool any_paired = false;
  for (std::size_t s = 0; s < clients.size(); ++s) {
    const char* arg = argv[i + 1 + static_cast<int>(s)];
    if (!parse_stream_spec(arg, clients[s].spec)) {
      std::cerr << "mem2_cli: bad stream spec '" << arg
                << "' (expected out.sam=reads.fq[,mates.fq][,skip])\n";
      return usage();
    }
    any_paired |= clients[s].spec.in.paired();
  }
  int paired_batch = a.run.batch_size;
  if (any_paired && !even_batch_size(paired_batch)) return usage();

  std::cerr << "[mem2] loading index " << argv[i] << "...\n";
  const auto index = index::load_index(argv[i]);
  RunObservability obs(a.run);
  const serve::ServeOptions& sopt = a.sopt;
  serve::AlignService service(index, sopt);
  if (!service.ok()) return fail(service.status());
  std::cerr << "[mem2] serving " << clients.size() << " stream(s), "
            << (sopt.workers ? std::to_string(sopt.workers) : "auto")
            << " pooled worker(s), max " << sopt.max_streams << " streams / "
            << sopt.max_inflight_batches << " in-flight batches\n";
  for (Client& c : clients) {
    c.opt.paired = c.spec.in.paired();
    c.opt.batch_size = c.opt.paired ? paired_batch : a.run.batch_size;
    c.out.open(c.spec.out, std::ios::binary);
    if (!c.out)
      return fail(align::Status::io("cannot open output file: " + c.spec.out));
    c.sink = std::make_unique<align::OstreamSamSink>(c.out);
  }
  std::mutex streams_mu;  // guards Client::stream vs the cancel hook

  // Ready once the clients finish.  The timer threads wait on their own
  // copy of it, so they wake then instead of at the end of their period.
  util::Timer t;
  std::promise<void> clients_done;
  const std::shared_future<void> done = clients_done.get_future().share();
  const auto ready = std::future_status::ready;
  std::vector<std::thread> timers;
  if (a.metrics_interval > 0)
    timers.emplace_back([&, done] {
      const std::chrono::seconds period(a.metrics_interval);
      while (done.wait_for(period) != ready) {
        const serve::ServiceMetrics m = service.metrics();
        std::cerr << "[mem2] " << m.summary() << '\n';
        // Live exposition: rewrite the snapshot each tick so a scraper
        // tailing the file sees fresh data (hw counters land at exit).
        if (!a.run.metrics_path.empty())
          write_metrics(a.run.metrics_path, service_snapshot(m, t.seconds()),
                        nullptr);
      }
    });

  // Graceful SIGINT/SIGTERM: clients see g_signal and stop at a chunk
  // boundary; this watcher additionally runs service shutdown so a client
  // wedged in back-pressure is cancelled after the grace period instead of
  // hanging the process.
  std::signal(SIGINT, handle_shutdown_signal);
  std::signal(SIGTERM, handle_shutdown_signal);
  timers.emplace_back([&, done] {
    while (g_signal.load(std::memory_order_acquire) == 0)
      if (done.wait_for(std::chrono::milliseconds(20)) == ready) return;
    std::cerr << "[mem2] caught signal " << g_signal.load()
              << "; draining (grace " << a.shutdown_grace_ms << "ms)...\n";
    const align::Status st =
        service.shutdown(std::chrono::milliseconds(a.shutdown_grace_ms));
    if (!st.ok()) std::cerr << "[mem2] shutdown: " << st.to_string() << '\n';
  });

  // Test hook for the exit-8 contract: cancel every stream after a delay.
  if (a.cancel_after_ms > 0)
    timers.emplace_back([&, done] {
      const std::chrono::milliseconds delay(a.cancel_after_ms);
      if (done.wait_for(delay) == ready) return;
      std::lock_guard<std::mutex> lk(streams_mu);
      for (Client& c : clients)
        if (c.stream) c.stream->cancel();
    });

  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (Client& client : clients)
    threads.emplace_back([&, c = &client] {
      auto stream = std::make_unique<serve::ServiceStream>(
          service.open(c->opt, *c->sink));
      serve::ServiceStream* raw = stream.get();
      {
        std::lock_guard<std::mutex> lk(streams_mu);
        c->stream = std::move(stream);
      }
      c->result = raw->ok() ? run_client(*raw, c->spec.in, c->opt.batch_size)
                            : raw->status();
    });
  for (auto& thread : threads) thread.join();
  clients_done.set_value();
  for (auto& timer : timers) timer.join();

  align::Status first_error;
  for (const Client& c : clients) {
    if (c.result.ok()) {
      const align::StreamMetrics m = c.stream->metrics();
      std::cerr << "[mem2] stream '" << c.spec.out << "': "
                << c.stream->stats().reads << " reads -> " << m.records
                << " records (queue hwm " << m.queue_hwm << ")\n";
    } else {
      std::cerr << "[mem2] stream '" << c.spec.out
                << "' failed: " << c.result.to_string() << '\n';
      if (first_error.ok()) first_error = c.result;
    }
  }
  const serve::ServiceMetrics m = service.metrics();
  std::cerr << "[mem2] " << m.summary() << " | wall " << t.seconds() << "s\n";
  obs.finish(service_snapshot(m, t.seconds()));
  return exit_code(first_error.code());
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
