// Parallel, allocation-free BSW execution (paper §5.3 + §3.2).
//
// BswExecutor owns the batched-BSW pipeline:
//   1. split jobs into 8-bit-eligible and 16-bit sets (§5.4.1);
//   2. within each set, radix-sort indices by (qlen, tlen) so that pairs
//      sharing a SIMD register have similar lengths (§5.3.1 — the 1.5-1.7x
//      "sorting" rows of Table 6); optional, so the bench can measure both;
//   3. run the engine on width-aligned chunks of jobs;
//   4. scatter results back to the original job order.
//
// Two properties matter to callers:
//
//   1. Persistent workspace.  Split index vectors, radix-sort key/scratch
//      arrays and per-thread chunk buffers live in the executor, so after
//      the first batch a steady-state run() performs no heap allocations —
//      the paper's §3.2 memory discipline extended to the batch layer.
//
//   2. OpenMP-parallel chunk dispatch.  After the split and sort, the
//      ordered job list is cut into width-aligned chunks executed
//      concurrently, each thread running the SIMD engine on its own chunk
//      buffers.  Chunk boundaries depend only on the job list, never on the
//      thread count, and every chunk scatters to disjoint output slots, so
//      results are bit-identical to the serial path for any thread count
//      (tests/test_bsw_executor.cpp proves it).  BswExecutor(1) is the
//      serial path.
//
// Stats and software counters are accumulated per thread and reduced in
// slot order; counters land on the calling thread's TLS sink exactly as the
// serial path would have left them.
#pragma once

#include <vector>

#include "bsw/bsw_engine.h"
#include "util/sw_counters.h"

namespace mem2::bsw {

struct BswBatchOptions {
  bool sort_by_length = true;
  /// Widest ISA to use; capped by util::dispatch_isa() (the CPU and
  /// MEM2_FORCE_ISA / util::set_isa_cap()).
  util::Isa isa = util::Isa::kAvx512;
  /// Force one precision for benchmarking; default: auto-split.
  bool force_16bit = false;
};

struct BswBatchStats {
  BswBreakdown breakdown;       // engine-internal phase times (Table 8)
  double sort_seconds = 0;
  std::uint64_t jobs_8bit = 0;
  std::uint64_t jobs_16bit = 0;
  std::uint64_t chunks = 0;
  const char* engine_8bit = "";   // engine that ran each group, "" if empty
  const char* engine_16bit = "";

  BswBatchStats& operator+=(const BswBatchStats& o) {
    breakdown += o.breakdown;
    sort_seconds += o.sort_seconds;
    jobs_8bit += o.jobs_8bit;
    jobs_16bit += o.jobs_16bit;
    chunks += o.chunks;
    if (*o.engine_8bit) engine_8bit = o.engine_8bit;
    if (*o.engine_16bit) engine_16bit = o.engine_16bit;
    return *this;
  }
};

class BswExecutor {
 public:
  BswExecutor() = default;
  explicit BswExecutor(int threads) { set_threads(threads); }

  /// Number of OpenMP threads chunk dispatch may use (clamped to >= 1).
  void set_threads(int threads);
  int threads() const { return threads_; }

  /// Run all jobs; out[i] holds the result for jobs[i] regardless of
  /// internal reordering.  Deterministic for a fixed job list and options,
  /// and invariant across thread counts.
  void run(const ExtendJob* jobs, std::size_t n_jobs, KswResult* out,
           const KswParams& params, const BswBatchOptions& options = {},
           BswBatchStats* stats = nullptr);
  void run(const std::vector<ExtendJob>& jobs, std::vector<KswResult>& out,
           const KswParams& params, const BswBatchOptions& options = {},
           BswBatchStats* stats = nullptr);

  /// Bytes of persistent workspace currently held (diagnostics/tests).
  std::size_t workspace_bytes() const;

 private:
  struct ThreadSlot {
    std::vector<ExtendJob> chunk;      // AoS gather buffer, kMaxEngineWidth
    std::vector<KswResult> chunk_out;  // engine output before scatter
    BswBatchStats stats;               // reduced in slot order after a run
    util::SwCounters counters;         // ditto, onto the caller's TLS sink
  };

  void run_group(const ExtendJob* jobs, KswResult* out,
                 std::vector<std::uint32_t>& order, const KswParams& params,
                 const BswBatchOptions& options, const BswEngine& engine,
                 bool want_stats);

  int threads_ = 1;
  std::vector<std::uint32_t> idx8_, idx16_;    // precision-split job indices
  std::vector<std::uint32_t> sort_keys_;       // radix key array (per pass)
  std::vector<std::uint32_t> sort_scratch_;    // radix ping-pong buffer
  std::vector<ThreadSlot> slots_;
};

}  // namespace mem2::bsw
