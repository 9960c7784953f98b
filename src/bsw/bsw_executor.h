// Allocation-free batched BSW execution (paper §5.3 + §3.2).
//
// BswExecutor owns the batched-BSW pipeline:
//   1. split jobs into 8-bit-eligible and 16-bit sets (§5.4.1);
//   2. within each set, radix-sort indices by (qlen, tlen) so that pairs
//      sharing a SIMD register have similar lengths (§5.3.1 — the 1.5-1.7x
//      "sorting" rows of Table 6); optional, so the bench can measure both;
//   3. run the engine on width-aligned chunks of jobs;
//   4. scatter results back to the original job order.
//
// run() executes on the calling thread and starts no threads: alignment
// parallelism is the session pool's, one whole batch per worker.  Split
// index vectors, radix-sort key/scratch arrays and the chunk buffers live
// in the executor, so after the first batch a steady-state run() performs
// no heap allocations — the paper's §3.2 memory discipline extended to the
// batch layer.  Stats accumulate into the caller's BswBatchStats and
// software counters onto the calling thread's TLS sink.
#pragma once

#include <vector>

#include "bsw/bsw_engine.h"
#include "util/common.h"
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
  /// Kept only so perfbench, which constructs BswExecutor(1), builds
  /// unmodified; goes with the next benchmark change.  Accepts only 1.
  explicit BswExecutor(int threads) {
    MEM2_REQUIRE(threads == 1, "BswExecutor runs on its caller's thread");
  }

  /// Run all jobs; out[i] holds the result for jobs[i] regardless of
  /// internal reordering.  Deterministic for a fixed job list and options.
  void run(const ExtendJob* jobs, std::size_t n_jobs, KswResult* out,
           const KswParams& params, const BswBatchOptions& options = {},
           BswBatchStats* stats = nullptr);
  void run(const std::vector<ExtendJob>& jobs, std::vector<KswResult>& out,
           const KswParams& params, const BswBatchOptions& options = {},
           BswBatchStats* stats = nullptr);

  /// Bytes of persistent workspace currently held (diagnostics/tests).
  std::size_t workspace_bytes() const;

 private:
  void run_group(const ExtendJob* jobs, KswResult* out,
                 std::vector<std::uint32_t>& order, const KswParams& params,
                 const BswBatchOptions& options, const BswEngine& engine,
                 BswBatchStats* stats);

  std::vector<std::uint32_t> idx8_, idx16_;    // precision-split job indices
  std::vector<std::uint32_t> sort_keys_;       // radix key array (per pass)
  std::vector<std::uint32_t> sort_scratch_;    // radix ping-pong buffer
  std::vector<ExtendJob> chunk_;               // AoS gather buffer, kMaxEngineWidth
  std::vector<KswResult> chunk_out_;           // engine output before scatter
};

}  // namespace mem2::bsw
