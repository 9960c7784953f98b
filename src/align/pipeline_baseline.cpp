// Baseline driver: read-at-a-time processing with the compressed index —
// the model of original BWA-MEM the paper measures against.
//
// Per read: SMEM search on the CP128 FM-index (no software prefetch), SAL
// via sampled-SA LF walks, chaining, scalar BSW extension on demand, SAM
// formation.  Fresh std containers per read reproduce the original's
// fragmented allocation pattern (§3.2).  The reads of a chunk run in order
// on the calling thread; the session pool runs chunks concurrently, like
// the original's pthread workers each taking a batch of reads.
#include "align/driver.h"
#include "align/sam_format.h"
#include "util/fault_injector.h"
#include "util/trace.h"

namespace mem2::align {

namespace {

std::vector<seq::Code> encode_read(const std::string& bases) {
  std::vector<seq::Code> q(bases.size());
  for (std::size_t i = 0; i < bases.size(); ++i)
    q[i] = seq::char_to_code(bases[i]);
  return q;
}

/// On-demand scalar extension that counts its kernel calls for the
/// extra-work metric.  Each call is a nested BSW span, so the surrounding
/// BSW-PRE span keeps only the extension bookkeeping.
class CountingScalarSource final : public SeedExtendSource {
 public:
  explicit CountingScalarSource(const bsw::KswParams& p) : params_(p) {}
  bsw::KswResult extend(int, int, int, int, const bsw::ExtendJob& job) override {
    ++calls;
    util::StageSpan span(util::Stage::kBsw);
    return bsw::ksw_extend_scalar(job, params_);
  }
  std::uint64_t calls = 0;

 private:
  bsw::KswParams params_;
};

}  // namespace

void align_reads_baseline(const index::Mem2Index& index,
                          std::span<const seq::Read> reads,
                          const DriverOptions& options,
                          std::vector<std::vector<io::SamRecord>>& per_read,
                          DriverStats* stats) {
  // Binds stats->stages on this thread; MISC is the call time no per-read
  // stage span claims.
  util::StageSpan call_span(util::Stage::kMisc, stats ? &stats->stages : nullptr);
  MEM2_REQUIRE(index.has_cp128(), "baseline driver needs the CP128 index");
  per_read.assign(reads.size(), {});

  const util::PrefetchPolicy no_prefetch{false};
  util::CounterCapture capture;  // this call's counts, not a TLS reset
  CountingScalarSource source(options.mem.ksw);
  smem::SmemWorkspace ws;
  std::vector<smem::Smem> smems;

  for (std::size_t r = 0; r < reads.size(); ++r) {
    if (util::fault_point("align.batch"))
      throw invariant_error("injected fault: align.batch");
    const seq::Read& read = reads[r];
    const std::vector<seq::Code> query = encode_read(read.bases);
    const std::vector<seq::Code> query_rev(query.rbegin(), query.rend());
    ExtendContext ctx{options.mem, index, query, query_rev};

    // SMEM.
    {
      util::StageSpan span(util::Stage::kSmem);
      smem::collect_smems(index.fm128(), query, options.mem.seeding, smems, ws,
                          no_prefetch);
    }
    // SAL (concrete lambda: the LF-walk lookup inlines, no std::function).
    std::vector<chain::Seed> seeds;
    {
      util::StageSpan span(util::Stage::kSal);
      chain::seeds_from_smems(
          smems, options.mem.chaining,
          [&](idx_t row) { return index.sa_lookup_baseline(row); }, seeds);
    }
    // CHAIN.
    std::vector<chain::Chain> chains;
    double frac_rep;
    {
      util::StageSpan span(util::Stage::kChain);
      frac_rep = chain::repetitive_fraction(
          smems, static_cast<int>(query.size()), options.mem.chaining.max_occ);
      chains = chain::build_chains(index.ref(), index.l_pac(), seeds,
                                   static_cast<int>(query.size()),
                                   options.mem.chaining, frac_rep);
      util::SwCounters& cnt = util::tls_counters();
      cnt.chains_built += chains.size();
      chain::filter_chains(chains, options.mem.chaining);
      cnt.chains_kept += chains.size();
    }
    // BSW (on-demand scalar).
    std::vector<AlnReg> regs;
    {
      util::StageSpan span(util::Stage::kBswPre);
      process_chains(ctx, chains, source, regs);
    }
    // SAM.
    {
      util::StageSpan span(util::Stage::kSamForm);
      sort_dedup_regions(regs, options.mem);
      mark_primary(regs, options.mem);
      per_read[r] = regions_to_sam(ctx, read, regs);
    }
  }

  const util::SwCounters counted = capture.take();
  if (stats) {
    stats->counters += counted;
    stats->extensions_computed += source.calls;
    stats->extensions_used += source.calls;  // baseline never computes unused jobs
  }
}

}  // namespace mem2::align
