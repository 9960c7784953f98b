// Software event counters — the container-safe stand-in for VTune.
//
// The paper reports hardware counters (instructions, LLC misses, average
// latency).  Inside a container perf_event_open is usually forbidden, so the
// kernels additionally maintain cheap software counters for the quantities
// the paper's argument actually rests on: how many Occ buckets are touched
// per SMEM (cache traffic proxy), how many LF steps a compressed-SA lookup
// takes (instruction-count proxy), and how many DP cells BSW computes
// (useful vs wasted work, Table 8 discussion).
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace mem2::util {

struct SwCounters {
  // SMEM kernel
  std::uint64_t occ_bucket_loads = 0;   // Occ bucket (cache line) touches
  std::uint64_t backward_exts = 0;      // Backward_Ext calls
  std::uint64_t forward_exts = 0;       // Forward_Ext calls
  std::uint64_t prefetches = 0;         // software prefetches issued
  std::uint64_t smems_found = 0;

  // SAL kernel
  std::uint64_t sa_lookups = 0;
  std::uint64_t sa_lf_steps = 0;        // LF walk steps (0 for flat SA)
  std::uint64_t sa_memory_loads = 0;    // distinct memory loads performed

  // CHAIN stage (per read: build_chains output, filter_chains survivors)
  std::uint64_t chains_built = 0;
  std::uint64_t chains_kept = 0;

  // BSW kernel
  std::uint64_t bsw_pairs = 0;
  std::uint64_t bsw_cells_total = 0;    // all SIMD-lane cells computed
  std::uint64_t bsw_cells_useful = 0;   // cells inside a live pair's band
  std::uint64_t bsw_aborted_pairs = 0;  // z-drop / zero-row early exits

  // SAM CIGAR formation (align::region_to_aln)
  std::uint64_t cigar_gapless = 0;   // regions resolved by the gapless shortcut
  std::uint64_t cigar_dp_cells = 0;  // band cells the global DP computed

  // Ingest (io::FastqStream under FastqPolicy::kSkip)
  std::uint64_t io_records_skipped = 0;  // damaged FASTQ records resync-skipped

  // Paired-end stage (mate rescue + pair scoring)
  std::uint64_t pe_rescue_windows = 0;  // rescue windows anchor-scanned
  std::uint64_t pe_rescue_win_skipped = 0;  // skipped: earlier window already satisfied the (mate, orientation)
  std::uint64_t pe_rescue_jobs = 0;     // BSW jobs dispatched by rescue
  std::uint64_t pe_rescue_hits = 0;     // rescue alignments added to a mate
  std::uint64_t pe_rescued_pairs = 0;   // proper pairs whose chosen region came from rescue
  std::uint64_t pe_proper_pairs = 0;    // pairs emitted with the proper-pair flag

  /// Merge/aggregate helper: sessions sum their per-batch captures with it,
  /// and the serve layer folds per-session counters into its service-wide
  /// snapshot.  Field-for-field, like every operation below: each walks
  /// sw_counter_fields().
  SwCounters& operator+=(const SwCounters& o);
  SwCounters& operator-=(const SwCounters& o);
  bool operator==(const SwCounters&) const = default;
  void reset() { *this = SwCounters{}; }
  /// "name=value" per field, space-separated, in table order.
  std::string summary() const;
};

/// One row of the SwCounters field table: the member's name (also its
/// summary() key and Prometheus name, `mem2_sw_<name>_total`) and the
/// member.  tests/test_metrics.cpp checks the table covers the struct.
struct SwCounterField {
  const char* name;
  std::uint64_t SwCounters::*member;
};
std::span<const SwCounterField> sw_counter_fields();

inline SwCounters operator-(SwCounters a, const SwCounters& b) {
  a -= b;
  return a;
}

/// Per-thread counter sink.  Kernels bump the thread-local instance so the
/// hot paths never touch shared cache lines.  The sink is *staging only*:
/// attribution to a session happens through CounterCapture below, never by
/// reading or resetting the raw TLS value from pipeline code.
SwCounters& tls_counters();

/// Per-session counter attribution.  A capture saves the thread's staging
/// counters at a scope entry and take() returns only what accumulated since,
/// restoring the saved baseline — so two sessions whose batches share one
/// thread (the serve layer's pooled workers, or a producer thread driving
/// several Aligners) each harvest exactly their own counts instead of
/// absorbing or destroying the other's residue.  The old reset()/read
/// harvest pattern did neither: a reset at a region entry discarded counts a
/// sibling session had staged on that thread, and residue left after a
/// harvest leaked into whichever session harvested next.
class CounterCapture {
 public:
  CounterCapture() : saved_(tls_counters()) { tls_counters().reset(); }
  ~CounterCapture() {
    if (!taken_) take();
  }
  CounterCapture(const CounterCapture&) = delete;
  CounterCapture& operator=(const CounterCapture&) = delete;

  /// Everything this thread staged since construction; restores the
  /// baseline so enclosing captures (or callers) see their own counts
  /// unchanged.  Call at most once.
  SwCounters take() {
    SwCounters delta = tls_counters();
    tls_counters() = saved_;
    taken_ = true;
    return delta;
  }

 private:
  SwCounters saved_;
  bool taken_ = false;
};

}  // namespace mem2::util
