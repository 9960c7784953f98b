// Benchmark entry points: the untimed-input, timed end-to-end run and the
// traced per-layer replay, plus the pieces both share.
#pragma once

#include <cstdint>
#include <memory>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "align/aligner.h"
#include "host.h"
#include "index/mem2_index.h"
#include "report.h"
#include "serve/align_service.h"
#include "workloads.h"

namespace perfbench {

struct RunOptions {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string index_dir;
  std::string trace_out;  // traced run: where the span JSON goes ("" = nowhere)
};

RunResult run_timed(const RunOptions& options);
RunResult run_traced(const RunOptions& options);

/// Build the benchmark genome's index and save it to `path` (written to a
/// temporary name first, so an interrupted build leaves no index behind).
void build_index(std::int64_t genome_len, const std::string& path);

// ------------------------------------------------------------ shared pieces

/// Loads the workload's prebuilt index; a missing index is a clear error,
/// never a build.
std::unique_ptr<mem2::index::Mem2Index> load_bench_index(const std::string& path);

/// Read-only streambuf over caller-owned text (no copy).
class TextBuf final : public std::streambuf {
 public:
  explicit TextBuf(std::string_view text) {
    char* p = const_cast<char*>(text.data());
    setg(p, p, p + text.size());
  }
};

mem2::align::DriverOptions pipeline_options(const Workload& w, int threads);

/// One Stream session fed the pool's FASTQ text over and over, whole
/// cycles at a time, until `budget_s` has passed (at least one cycle), into
/// a hashing SAM sink.
struct SegmentOut {
  bool ok = false;
  std::string error;
  double seconds = 0;
  std::uint64_t reads = 0;   // reads submitted
  std::uint64_t cycles = 0;  // whole pool cycles submitted
  std::uint64_t digest = 0;
  std::uint64_t header_bytes = 0;
  std::uint64_t chunks = 0;       // chunks submitted
  std::uint64_t chunks_done = 0;  // chunks whose records reached the sink
  std::vector<double> chunk_ms;   // submit -> records received, per chunk
  /// Throughput of every completed cycle; the first also carries the
  /// session's start-up and pipeline fill.
  std::vector<double> cycle_reads_per_s;
  NoiseSample noise;  // over the segment
  mem2::pair::InsertStats pair_stats;
};
inline constexpr std::size_t kPassChunk = 512;  // = default batch_size
SegmentOut run_segment(const mem2::align::Aligner& aligner, std::string_view fastq,
                       std::size_t chunk_reads, double budget_s, std::string* capture);

/// The open-loop serve run over `fastq` per session (see e2e.cpp).
struct ServeOut {
  std::uint64_t sessions = 0, sessions_failed = 0;
  std::uint64_t chunks = 0, chunks_failed = 0;
  std::uint64_t reads_done = 0;  // reads of sessions that finished ok
  double window_s = 0;           // first due time -> last completion
  std::vector<double> latency_ms, in_service_ms, submit_block_ms, lag_ms,
      open_ms;
  double fairness_spread = 0;
  double worker_util = 0;
  NoiseSample noise;
  std::vector<bool> session_ok;
  std::vector<std::uint64_t> session_digest, session_chunks;
};
inline constexpr int kServeBatch = 32;  // session batch size = chunk size
/// serve4_open offered load, total over all sessions: about half of the
/// measured nproc capacity of the 101/151 bp mix at kServeBatch on the
/// 4-vCPU reference host (see README.md).  A constant — never derived at
/// run time.
inline constexpr double kServeReadsPerSec = 6000;
/// Share of --seconds the timed open loop offers chunks for; the rest
/// covers set-up, the drain and the solo gate runs.
inline constexpr double kServeWindowShare = 0.6;
/// Closed-loop warm-up through the service before the timed open loop.
inline constexpr double kServeWarmupS = 1.5;
/// serve4_open: reads per session in the single-thread throughput runs and
/// in the traced replay (the head of each session's pool).
inline constexpr std::int64_t kServeSoloReads = 1024;
ServeOut run_open_loop(mem2::serve::AlignService* service, const Workload& w,
                       const std::vector<std::string>& fastq, double rate,
                       double window_s, int workers);

}  // namespace perfbench
