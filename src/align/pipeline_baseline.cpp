// Baseline driver: read-at-a-time processing with the compressed index —
// the model of original BWA-MEM the paper measures against.
//
// Per read: SMEM search on the CP128 FM-index (no software prefetch), SAL
// via sampled-SA LF walks, chaining, scalar BSW extension on demand, SAM
// formation.  Fresh std containers per read reproduce the original's
// fragmented allocation pattern (§3.2).  Threading distributes whole reads
// dynamically, like the original's pthread worker loop.
#include <omp.h>

#include "align/driver.h"
#include "align/sam_format.h"
#include "util/trace.h"

namespace mem2::align {

namespace {

std::vector<seq::Code> encode_read(const std::string& bases) {
  std::vector<seq::Code> q(bases.size());
  for (std::size_t i = 0; i < bases.size(); ++i)
    q[i] = seq::char_to_code(bases[i]);
  return q;
}

}  // namespace

void align_reads_baseline(const index::Mem2Index& index,
                          std::span<const seq::Read> reads,
                          const DriverOptions& options,
                          std::vector<std::vector<io::SamRecord>>& per_read,
                          DriverStats* stats) {
  // Binds stats->stages on this thread: its share of the reads feeds the
  // per-read stage spans, and its wait for the other threads lands in MISC.
  util::StageSpan call_span(util::Stage::kMisc, stats ? &stats->stages : nullptr);
  MEM2_REQUIRE(index.has_cp128(), "baseline driver needs the CP128 index");
  per_read.assign(reads.size(), {});

  const util::PrefetchPolicy no_prefetch{false};
  std::vector<util::SwCounters> thread_counters(static_cast<std::size_t>(options.threads));
  std::vector<std::uint64_t> thread_ext(static_cast<std::size_t>(options.threads), 0);
  const std::uint32_t trace_pid = util::trace_stream_id();

#pragma omp parallel num_threads(options.threads)
  {
    const int tid = omp_get_thread_num();
    util::TraceStreamScope trace_ctx(trace_pid);
    util::CounterCapture capture;
    smem::SmemWorkspace ws;
    std::vector<smem::Smem> smems;

#pragma omp for schedule(dynamic, 16)
    for (std::int64_t r = 0; r < static_cast<std::int64_t>(reads.size()); ++r) {
      const seq::Read& read = reads[static_cast<std::size_t>(r)];
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
      // BSW (on-demand scalar).  Each kernel call is a nested BSW span, so
      // the surrounding BSW-PRE span keeps only the extension bookkeeping.
      std::vector<AlnReg> regs;
      {
        // Count the scalar kernel invocations for the extra-work metric.
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
        util::StageSpan span(util::Stage::kBswPre);
        CountingScalarSource source(options.mem.ksw);
        process_chains(ctx, chains, source, regs);
        thread_ext[static_cast<std::size_t>(tid)] += source.calls;
      }
      // SAM.
      {
        util::StageSpan span(util::Stage::kSamForm);
        sort_dedup_regions(regs, options.mem);
        mark_primary(regs, options.mem);
        per_read[static_cast<std::size_t>(r)] = regions_to_sam(ctx, read, regs);
      }
    }
    thread_counters[static_cast<std::size_t>(tid)] = capture.take();
  }

  if (stats) {
    for (const auto& c : thread_counters) stats->counters += c;
    for (const auto e : thread_ext) {
      stats->extensions_computed += e;
      stats->extensions_used += e;  // baseline never computes unused jobs
    }
  }
}

}  // namespace mem2::align
