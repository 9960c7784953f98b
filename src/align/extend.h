// Seed extension core (bwa mem_chain2aln) with a pluggable BSW source.
//
// The decision of WHICH seeds to extend depends on the regions produced by
// previously extended seeds of the same read (paper §5.3.2).  The baseline
// driver therefore computes extensions on demand (ScalarSource); the batch
// driver extends *every* seed up front with the SIMD engine and replays the
// same decision logic against the precomputed table (PrecomputedSource) —
// the paper's "extend all, post-process to filter" reorganization, which
// costs ~14% extra extensions but preserves identical output.
//
// process_chains() is the single implementation of the decision logic; the
// two drivers differ only in the SeedExtendSource they plug in, which is
// what makes the identical-output property true by construction.
#pragma once

#include <optional>
#include <span>

#include "align/region.h"
#include "index/mem2_index.h"

namespace mem2::align {

/// Reference window of one chain (bwa's rmax + fetched rseq), plus its
/// reversal for left extensions.  The bases are views into caller-owned
/// storage (the batch driver carves them from its batch arena).
struct ChainRef {
  idx_t rmax0 = 0, rmax1 = 0;  // doubled coordinates, [rmax0, rmax1)
  std::span<const seq::Code> rseq;
  std::span<const seq::Code> rseq_rev;  // plain reversal (not complemented)

  std::size_t size() const { return static_cast<std::size_t>(rmax1 - rmax0); }
};

struct ExtendContext {
  const MemOptions& opt;
  const index::Mem2Index& index;
  std::span<const seq::Code> query;      // read codes (0..4)
  std::span<const seq::Code> query_rev;  // plain reversal of query
};

/// The window bounds [rmax0, rmax1) of a chain; rseq/rseq_rev stay empty.
ChainRef chain_window(const ExtendContext& ctx, const chain::Chain& chain);

/// Fetch cref's window into buf[0, 2 * cref.size()): the bases, then their
/// reversal; cref's views point there.
void fetch_chain_window(const index::Mem2Index& index, ChainRef& cref,
                        seq::Code* buf);

/// chain_window + fetch_chain_window into `storage` (resized to fit; the
/// returned views live as long as its contents).
ChainRef make_chain_ref(const ExtendContext& ctx, const chain::Chain& chain,
                        std::vector<seq::Code>& storage);

/// Left/right extension job construction (shared between the on-demand and
/// the batch-enumeration paths so both produce byte-identical jobs).
bsw::ExtendJob make_left_job(const ExtendContext& ctx, const ChainRef& cref,
                             const chain::Seed& s, int band);
bsw::ExtendJob make_right_job(const ExtendContext& ctx, const ChainRef& cref,
                              const chain::Seed& s, int band, int h0);

/// Band tries per flank: the first at opt.w, each retry at double the band
/// (bwa's MAX_BAND_TRY, a compile-time constant there too).
inline constexpr int kMaxBandTry = 2;

/// The empty-flank rule, shared by every caller that runs extension jobs: a
/// job whose target flank is empty (a clamped reference window leaves no
/// bases) never reaches an engine, because ksw on zero target bases keeps
/// the initial score, (h0, 0, 0, 0, -1, 0).  Returns that result for such a
/// job and nothing for a job that has to run.
inline std::optional<bsw::KswResult> empty_flank_result(const bsw::ExtendJob& job) {
  if (job.tlen != 0) return std::nullopt;
  bsw::KswResult r;
  r.score = job.h0;
  return r;
}

/// bwa's band-doubling retry test: after a try at band aw returned (score,
/// max_off), retry with a doubled band iff the score changed and the best
/// cell wandered at least 3/4 of the band away from the diagonal.
inline bool band_retry_needed(int score, int prev_score, int max_off, int aw) {
  return !(score == prev_score || max_off < (aw >> 1) + (aw >> 2));
}

/// BSW computation provider.  side: 0 = left, 1 = right.  band_try: in
/// [0, kMaxBandTry).  The job passed is fully specified and never has an
/// empty target flank (process_chains resolves those itself).
class SeedExtendSource {
 public:
  virtual ~SeedExtendSource() = default;
  virtual bsw::KswResult extend(int chain_idx, int seed_idx, int side,
                                int band_try, const bsw::ExtendJob& job) = 0;
  /// Optional pre-fetched chain window (batch mode reuses phase-A fetches).
  virtual const ChainRef* chain_ref(int chain_idx) {
    (void)chain_idx;
    return nullptr;
  }
};

/// On-demand scalar computation (models original BWA-MEM).
class ScalarSource final : public SeedExtendSource {
 public:
  explicit ScalarSource(const bsw::KswParams& params) : params_(params) {}
  bsw::KswResult extend(int, int, int, int, const bsw::ExtendJob& job) override {
    return bsw::ksw_extend_scalar(job, params_);
  }

 private:
  bsw::KswParams params_;
};

/// Run the full chain-to-region logic for one read.  Appends to `regs`
/// (regions accumulate across chains, as the seed-skip test requires).
void process_chains(const ExtendContext& ctx,
                    std::span<const chain::Chain> chains,
                    SeedExtendSource& source, std::vector<AlnReg>& regs);

}  // namespace mem2::align
