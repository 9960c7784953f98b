// End-to-end alignment drivers.
//
// BaselineDriver models original BWA-MEM's organization: each read flows
// through SMEM -> SAL -> CHAIN -> BSW -> SAM before the next read starts;
// the compressed FM-index (CP128) and LF-walk SAL are used; BSW is scalar;
// buffers are allocated per read.
//
// BatchDriver models the paper's reorganization (Fig. 2): reads are split
// into batches and every stage runs over the whole batch before the next
// stage starts; the CP32 index with software prefetching and the flat SA
// are used; extensions from all reads of the batch are pooled, sorted and
// fed to the inter-task SIMD BSW; buffers come from a per-worker workspace
// reused across batches.
//
// Both produce identical SAM bodies — tests/test_pipeline.cpp enforces it.
//
// Both drivers run a chunk on the calling thread and start no threads: the
// session pool (session.h) is the one source of alignment threads, one
// whole batch per worker, as in the paper.  The chunk-level entry points
// (BatchWorkspace + align_chunk) let a caller own the cross-batch buffers
// and feed reads incrementally — the streaming Aligner session (aligner.h)
// is built on them; align_reads() is a one-shot convenience over that
// session.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "align/options.h"
#include "align/region.h"
#include "align/status.h"
#include "bsw/bsw_executor.h"
#include "index/mem2_index.h"
#include "io/sam.h"
#include "pair/insert_stats.h"
#include "seq/read_sim.h"
#include "util/retry.h"
#include "util/sw_counters.h"
#include "util/trace.h"

namespace mem2::align {

class CancelToken;  // align/cancel.h

enum class Mode { kBaseline, kBatch };

struct DriverOptions {
  MemOptions mem;
  Mode mode = Mode::kBatch;
  /// Alignment threads: the streaming session's pool workers, each running
  /// whole batches.  align_chunk itself ignores it.  Output is invariant
  /// across values.
  int threads = 1;
  int batch_size = 512;  // reads per batch (batch mode)
  /// In-flight FM-index walks per batch in the seeding stage (batch mode):
  /// the SmemExecutor runs this many lanes, one coroutine per lane, round-
  /// robin so one walk's Occ-line misses overlap useful work on the others
  /// (paper §4.3).  1 degenerates to the scalar walk order; output is
  /// invariant across values (tests/test_smem_executor.cpp).
  int smem_inflight = 8;
  bsw::BswBatchOptions bsw;  // sorting / ISA for the SIMD engine
  /// Streaming session: bounded depth of the batch queue between submit()
  /// and the workers — at most (queue_depth + threads) batches are in
  /// flight, which bounds resident reads/records to
  /// O((queue_depth + threads) × batch_size).
  int queue_depth = 4;
  /// Paired-end mode (batch driver only): reads arrive as adjacent mate
  /// pairs (R1 at even indices, R2 at odd); batch_size must be even so a
  /// batch never splits a pair.  The session estimates the insert-size
  /// distribution once from the first pe.stat_pairs pairs, then scores
  /// pairs and runs BSW-powered mate rescue per batch.  Output stays
  /// deterministic across thread counts, chunkings and batch sizes.
  bool paired = false;
  /// Paired-end subsystem knobs (pair/insert_stats.h), including the
  /// rescue-scan tuning surface: pe.rescue_seed_len (probe k) and
  /// pe.rescue_skip (determinism-preserving window skipping; disable for an
  /// A/B against the scan-everything behavior — output with skipping off is
  /// byte-identical to the pre-skip driver).
  pair::PairOptions pe;
  /// Transient-failure policy for sink writes (util/retry.h): with
  /// max_attempts > 1 the session's ordered writer re-drives a failed bulk
  /// write (OstreamSamSink rewrites the same formatted batch after clearing
  /// the stream state) with bounded exponential backoff before surfacing
  /// kIoError.  Default is 1 = no retry, today's fail-stop behavior.
  util::RetryPolicy sink_retry;
};

struct DriverStats {
  util::StageTimes stages;
  util::SwCounters counters;
  bsw::BswBatchStats bsw_batch;     // batch mode only
  std::uint64_t reads = 0;
  std::uint64_t extensions_computed = 0;  // BSW jobs executed
  std::uint64_t extensions_used = 0;      // jobs the decision logic consumed

  /// The paper's §6.3.2 metric: extra seed pairs extended by the batch
  /// reorganization (≈14% on their data).
  double extra_extension_fraction() const {
    return extensions_used
               ? static_cast<double>(extensions_computed - extensions_used) /
                     static_cast<double>(extensions_used)
               : 0.0;
  }

  DriverStats& operator+=(const DriverStats& o) {
    stages += o.stages;
    counters += o.counters;
    bsw_batch += o.bsw_batch;
    reads += o.reads;
    extensions_computed += o.extensions_computed;
    extensions_used += o.extensions_used;
    return *this;
  }
};

/// Validates the full driver configuration (MemOptions + threading/batching
/// knobs).  Returns the first problem found; never throws.
Status validate_driver_options(const DriverOptions& options);

/// Cross-batch scratch state of the batch driver (read states, arenas, job
/// pools, the BswExecutor).  Capacity persists across align_chunk() calls,
/// so a long-lived workspace performs no steady-state allocations; one
/// workspace serves one thread at a time.
class BatchWorkspace {
 public:
  BatchWorkspace();
  ~BatchWorkspace();
  BatchWorkspace(BatchWorkspace&&) noexcept;
  BatchWorkspace& operator=(BatchWorkspace&&) noexcept;

  struct Impl;
  Impl& impl() { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

/// Align one chunk of reads (any size; split internally into
/// options.batch_size batches in batch mode) on the calling thread, using
/// caller-owned scratch.
/// per_read is resized to reads.size(); output is independent of how reads
/// are split into chunks and batches.  Options are assumed pre-validated
/// (validate_driver_options) — the Aligner session does this once.
/// In paired mode pe_stats (the session-wide insert-size prior) is
/// required and reads.size() must be even.
/// `cancel`, when non-null, is checked at batch and stage boundaries
/// (heartbeat + cooperative abort): once the token is cancelled the call
/// throws cancelled_error without starting another stage, so at most the
/// current stage of the current batch runs to completion.
void align_chunk(const index::Mem2Index& index, std::span<const seq::Read> reads,
                 const DriverOptions& options, const pair::InsertStats* pe_stats,
                 BatchWorkspace& workspace,
                 std::vector<std::vector<io::SamRecord>>& per_read,
                 DriverStats* stats, CancelToken* cancel = nullptr);
inline void align_chunk(const index::Mem2Index& index,
                        std::span<const seq::Read> reads,
                        const DriverOptions& options, BatchWorkspace& workspace,
                        std::vector<std::vector<io::SamRecord>>& per_read,
                        DriverStats* stats) {
  align_chunk(index, reads, options, nullptr, workspace, per_read, stats);
}

/// Run the batch pipeline's single-end stages only and return each read's
/// post-processed region list (sort_dedup + mark_primary applied) — the
/// input the paired-end calibration (pair::estimate_insert_stats) needs.
/// Batch mode only; ignores options.paired.
void collect_regions(const index::Mem2Index& index, std::span<const seq::Read> reads,
                     const DriverOptions& options, BatchWorkspace& workspace,
                     std::vector<std::vector<AlnReg>>& per_read_regs);

/// Align reads single-end; returns SAM records in read order (each read may
/// produce several records: primary + supplementary/secondary).  Thin
/// compatibility shim over the streaming Aligner session (open -> submit
/// once -> finish); throws invariant_error if the options fail validation.
std::vector<io::SamRecord> align_reads(const index::Mem2Index& index,
                                       const std::vector<seq::Read>& reads,
                                       const DriverOptions& options,
                                       DriverStats* stats = nullptr);

/// The @PG-bearing SAM header for this aligner.
std::string sam_header_for(const index::Mem2Index& index, const DriverOptions& options);

/// The read-at-a-time baseline driver; align_chunk's Mode::kBaseline path.
void align_reads_baseline(const index::Mem2Index& index,
                          std::span<const seq::Read> reads,
                          const DriverOptions& options,
                          std::vector<std::vector<io::SamRecord>>& per_read,
                          DriverStats* stats);

}  // namespace mem2::align
