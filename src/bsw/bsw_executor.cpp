#include "bsw/bsw_executor.h"

#include <algorithm>

#include "util/radix_sort.h"
#include "util/timer.h"

namespace mem2::bsw {

namespace {

// Prefetch the cache lines of a sequence, up to 256 bytes (extension jobs
// are short).
void prefetch_bytes(const seq::Code* p, int len) {
  const int n = std::min(len, 256);
  for (int off = 0; off < n; off += 64) __builtin_prefetch(p + off);
  if (n > 0) __builtin_prefetch(p + n - 1);  // last line when p is unaligned
}

}  // namespace

std::size_t BswExecutor::workspace_bytes() const {
  return (idx8_.capacity() + idx16_.capacity() + sort_keys_.capacity() +
          sort_scratch_.capacity()) *
             sizeof(std::uint32_t) +
         chunk_.capacity() * sizeof(ExtendJob) + chunk_out_.capacity() * sizeof(KswResult);
}

void BswExecutor::run_group(const ExtendJob* jobs, KswResult* out,
                            std::vector<std::uint32_t>& order, const KswParams& params,
                            const BswBatchOptions& opt, const BswEngine& engine,
                            BswBatchStats* stats) {
  if (order.empty()) return;

  if (opt.sort_by_length) {
    util::Timer t;
    // Two stable passes: minor key tlen, then major key qlen.  The key
    // array is indexed by job id, so it can be refilled between passes.
    for (std::uint32_t i : order) sort_keys_[i] = static_cast<std::uint32_t>(jobs[i].tlen);
    util::radix_sort_indices(sort_keys_, order, sort_scratch_);
    for (std::uint32_t i : order) sort_keys_[i] = static_cast<std::uint32_t>(jobs[i].qlen);
    util::radix_sort_indices(sort_keys_, order, sort_scratch_);
    if (stats) stats->sort_seconds += t.seconds();
  }

  MEM2_REQUIRE(engine.width >= 1 && engine.width <= kMaxEngineWidth,
               "engine width exceeds executor chunk buffers");
  const std::size_t width = static_cast<std::size_t>(engine.width);
  if (chunk_.size() < static_cast<std::size_t>(kMaxEngineWidth)) {
    chunk_.resize(static_cast<std::size_t>(kMaxEngineWidth));
    chunk_out_.resize(static_cast<std::size_t>(kMaxEngineWidth));
  }

  for (std::size_t pos = 0; pos < order.size(); pos += width) {
    const int n = static_cast<int>(std::min(width, order.size() - pos));
    // Length sorting scatters a chunk's jobs over the whole batch, so the
    // gather and the engine's SoA transpose miss the cache on every job.
    // Prefetch two chunks ahead for the job records and one chunk ahead
    // for their sequences and result slots (records fetched last round).
    for (std::size_t k = pos + 2 * width; k < std::min(pos + 3 * width, order.size()); ++k)
      __builtin_prefetch(&jobs[order[k]]);
    for (std::size_t k = pos + width; k < std::min(pos + 2 * width, order.size()); ++k) {
      const ExtendJob& next = jobs[order[k]];
      prefetch_bytes(next.query, next.qlen);
      prefetch_bytes(next.target, next.tlen);
      __builtin_prefetch(&out[order[k]], 1);
    }
    for (int z = 0; z < n; ++z)
      chunk_[static_cast<std::size_t>(z)] = jobs[order[pos + static_cast<std::size_t>(z)]];
    engine.run(chunk_.data(), chunk_out_.data(), n, params,
               stats ? &stats->breakdown : nullptr);
    for (int z = 0; z < n; ++z)
      out[order[pos + static_cast<std::size_t>(z)]] = chunk_out_[static_cast<std::size_t>(z)];
  }
  if (stats) stats->chunks += chunk_count(order.size(), engine.width);
}

void BswExecutor::run(const ExtendJob* jobs, std::size_t n_jobs, KswResult* out,
                      const KswParams& params, const BswBatchOptions& opt,
                      BswBatchStats* stats) {
  std::fill(out, out + n_jobs, KswResult{});
  if (n_jobs == 0) return;

  idx8_.clear();
  idx16_.clear();
  idx8_.reserve(n_jobs);
  idx16_.reserve(n_jobs);
  for (std::uint32_t i = 0; i < n_jobs; ++i) {
    if (!opt.force_16bit && fits_8bit(jobs[i], params))
      idx8_.push_back(i);
    else
      idx16_.push_back(i);
  }
  if (sort_keys_.size() < n_jobs) sort_keys_.resize(n_jobs);
  if (stats) {
    stats->jobs_8bit += idx8_.size();
    stats->jobs_16bit += idx16_.size();
  }

  const util::Isa isa = std::min(opt.isa, util::dispatch_isa());
  const BswEngine e8 = get_engine(isa, Precision::k8bit);
  const BswEngine e16 = get_engine(isa, Precision::k16bit);
  run_group(jobs, out, idx8_, params, opt, e8, stats);
  run_group(jobs, out, idx16_, params, opt, e16, stats);
  if (stats) {
    if (!idx8_.empty()) stats->engine_8bit = e8.name;
    if (!idx16_.empty()) stats->engine_16bit = e16.name;
  }
}

void BswExecutor::run(const std::vector<ExtendJob>& jobs, std::vector<KswResult>& out,
                      const KswParams& params, const BswBatchOptions& opt,
                      BswBatchStats* stats) {
  out.resize(jobs.size());
  run(jobs.data(), jobs.size(), out.data(), params, opt, stats);
}

}  // namespace mem2::bsw
