// Option validation shared by both drivers: fail fast on combinations the
// kernels cannot represent instead of mis-scoring silently.  Validation
// runs once per Aligner session (aligner.h), not once per call.
#include "align/options.h"

#include "align/driver.h"
#include "pair/mate_rescue.h"
#include "smem/smem_executor.h"

namespace mem2::align {

namespace {

Status check(bool cond, const char* message) {
  return cond ? Status() : Status::invalid(message);
}

template <typename... Rest>
Status check(bool cond, const char* message, Rest&&... rest) {
  if (!cond) return Status::invalid(message);
  return check(std::forward<Rest>(rest)...);
}

}  // namespace

Status validate_options(const MemOptions& opt) {
  return check(opt.ksw.a > 0, "match score must be positive",
               opt.ksw.b > 0, "mismatch penalty must be positive",
               opt.ksw.e_del > 0 && opt.ksw.e_ins > 0,
               "gap extension penalties must be positive",
               opt.ksw.o_del >= 0 && opt.ksw.o_ins >= 0,
               "gap open penalties must be non-negative",
               opt.w > 0, "band width must be positive",
               opt.seeding.min_seed_len > 0, "min seed length must be positive");
}

Status validate_driver_options(const DriverOptions& options) {
  static_assert(smem::SmemExecutor::kMaxInflight == 64,
                "update the smem_inflight validation message");
  if (Status st = validate_options(options.mem); !st.ok()) return st;
  if (Status st = check(
          options.threads >= 1, "thread count must be >= 1",
          options.batch_size >= 1, "batch size must be >= 1",
          options.smem_inflight >= 1 &&
              options.smem_inflight <= smem::SmemExecutor::kMaxInflight,
          "smem_inflight must be in [1, 64]",
          options.queue_depth >= 1, "queue depth must be >= 1",
          options.sink_retry.max_attempts >= 1,
          "sink_retry.max_attempts must be >= 1 (1 = no retry)",
          options.sink_retry.initial_backoff.count() >= 0 &&
              options.sink_retry.max_backoff.count() >= 0,
          "sink_retry backoffs must be >= 0",
          options.sink_retry.backoff_multiplier >= 1.0,
          "sink_retry.backoff_multiplier must be >= 1");
      !st.ok())
    return st;
  if (!options.paired) return Status();
  return check(options.mode == Mode::kBatch,
               "paired mode requires the batch driver",
               options.batch_size % 2 == 0,
               "paired mode requires an even batch size (pairs stay adjacent)",
               options.pe.stat_pairs >= 1, "pe.stat_pairs must be >= 1",
               options.pe.min_dir_count >= 1, "pe.min_dir_count must be >= 1",
               options.pe.max_ins >= 1, "pe.max_ins must be >= 1",
               options.pe.max_matesw >= 0, "pe.max_matesw must be >= 0",
               options.pe.rescue_seed_len >= 4,
               "pe.rescue_seed_len must be >= 4",
               options.pe.max_rescue_anchors >= 1 &&
                   options.pe.max_rescue_anchors <= pair::kMaxRescueAnchors,
               "pe.max_rescue_anchors must be in [1, 8]");
}

}  // namespace mem2::align
