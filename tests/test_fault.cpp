// Fault-injection harness (util/fault_injector.h): every named fault point
// must surface as the correct non-ok Status at the session boundary —
// never a terminate, a deadlock, or torn SAM output — and a failed session
// must leave the Aligner reusable.  Also proves the disarmed injector is
// output-invisible, the guarantee the golden-SAM tests rely on.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "align/aligner.h"
#include "index/mem2_index.h"
#include "io/fastq.h"
#include "seq/genome_sim.h"
#include "seq/read_sim.h"
#include "util/fault_injector.h"

namespace mem2 {
namespace {

struct FaultFixture {
  index::Mem2Index index;
  std::vector<seq::Read> reads;

  FaultFixture() {
    seq::GenomeConfig g;
    g.seed = 20260807;
    g.contig_lengths = {20000};
    index = index::Mem2Index::build(seq::simulate_genome(g));

    seq::ReadSimConfig r;
    r.seed = 7;
    r.num_reads = 96;
    r.read_length = 101;
    reads = seq::simulate_reads(index.ref(), r);
  }
};

const FaultFixture& fx() {
  static FaultFixture f;
  return f;
}

/// RAII arm/disarm so one test's fault can never leak into the next (the
/// injector is process-global and gtest runs tests in one process).
struct ArmedFault {
  explicit ArmedFault(const std::string& spec) {
    EXPECT_TRUE(util::FaultInjector::instance().arm(spec)) << spec;
  }
  ~ArmedFault() { util::FaultInjector::instance().disarm(); }
};

std::string one_shot_sam(const align::DriverOptions& opt) {
  std::ostringstream os;
  align::OstreamSamSink sink(os);
  const align::Aligner aligner(fx().index, opt);
  EXPECT_TRUE(aligner.ok());
  EXPECT_TRUE(aligner.align(fx().reads, sink).ok());
  return os.str();
}

TEST(FaultInjector, SpecParsing) {
  auto& fi = util::FaultInjector::instance();
  EXPECT_TRUE(fi.arm("site.a"));
  EXPECT_TRUE(fi.armed());
  EXPECT_EQ(fi.site(), "site.a");
  EXPECT_TRUE(fi.arm("site.b:3"));
  EXPECT_TRUE(fi.arm(""));  // empty spec disarms
  EXPECT_FALSE(fi.armed());
  EXPECT_FALSE(fi.arm(":2"));     // empty site
  EXPECT_FALSE(fi.arm("x:"));     // empty count
  EXPECT_FALSE(fi.arm("x:0"));    // fault points count from 1
  EXPECT_FALSE(fi.arm("x:abc"));  // non-numeric count
  EXPECT_FALSE(fi.armed());       // malformed specs leave it disarmed

  // Ranges and comma-separated multi-site specs (transient faults).
  EXPECT_TRUE(fi.arm("site.a:2-4"));
  EXPECT_EQ(fi.site(), "site.a");
  EXPECT_TRUE(fi.arm("site.a:2,site.b:3-5"));
  EXPECT_EQ(fi.site(), "site.a");  // first site, for backward compatibility
  EXPECT_FALSE(fi.arm("x:3-2"));   // inverted range
  EXPECT_FALSE(fi.arm("x:0-2"));   // range starts from 1
  EXPECT_FALSE(fi.arm("x:1-"));    // empty range end
  EXPECT_FALSE(fi.arm("a,"));      // trailing comma
  EXPECT_FALSE(fi.arm("a,,b"));    // empty element
  EXPECT_FALSE(fi.armed());
  fi.disarm();
}

TEST(FaultInjector, RangeFiresTransientlyAndMultiSiteIsIndependent) {
  ArmedFault fault("p:2-3,q");
  EXPECT_TRUE(util::fault_point("q"));   // q pass 1: fires
  EXPECT_FALSE(util::fault_point("q"));  // q recovered
  EXPECT_FALSE(util::fault_point("p"));  // p pass 1
  EXPECT_TRUE(util::fault_point("p"));   // p pass 2: in range
  EXPECT_TRUE(util::fault_point("p"));   // p pass 3: in range
  EXPECT_FALSE(util::fault_point("p"));  // p pass 4: healed
  EXPECT_EQ(util::FaultInjector::instance().hits("p"), 4u);
  EXPECT_EQ(util::FaultInjector::instance().hits("q"), 2u);
  EXPECT_EQ(util::FaultInjector::instance().hits("unarmed"), 0u);
}

TEST(FaultInjector, FiresExactlyOnceAtNthPass) {
  ArmedFault fault("p:2");
  EXPECT_FALSE(util::fault_point("q"));  // other sites never fire
  EXPECT_FALSE(util::fault_point("p"));  // pass 1
  EXPECT_TRUE(util::fault_point("p"));   // pass 2: the armed one
  EXPECT_FALSE(util::fault_point("p"));  // fires exactly once
}

TEST(FaultInjector, FastqReadSurfacesAsIoError) {
  std::istringstream in("@r1\nACGT\n+\nIIII\n@r2\nACGT\n+\nIIII\n");
  // Even the skip policy must not swallow an injected I/O failure — it
  // models a read() error, not a malformed record.
  io::FastqStream stream(in, io::FastqPolicy::kSkip);
  seq::Read r;
  ArmedFault fault("fastq.read:2");
  EXPECT_TRUE(stream.next_read(r));
  EXPECT_THROW(stream.next_read(r), io_error);
}

TEST(FaultInjector, IndexLoadSurfacesAsCorruption) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mem2_fault.m2i").string();
  index::save_index(path, fx().index);
  {
    ArmedFault fault("index.load");
    EXPECT_THROW(index::load_index(path), corruption_error);
  }
  // Disarmed, the same file loads fine.
  EXPECT_EQ(index::load_index(path).seq_len(), fx().index.seq_len());
  std::remove(path.c_str());
}

TEST(FaultInjector, WorkerFaultUnblocksSubmitAndReportsContext) {
  align::DriverOptions opt;
  opt.mode = align::Mode::kBatch;
  opt.batch_size = 16;
  opt.threads = 2;
  opt.queue_depth = 1;  // tightest back-pressure: deadlock would show here

  std::ostringstream os;
  align::OstreamSamSink sink(os);
  const align::Aligner aligner(fx().index, opt);
  ASSERT_TRUE(aligner.ok());
  align::Stream stream = aligner.open(sink);

  ArmedFault fault("align.worker");
  // Keep pushing work at a failed pool: with workers draining the queue,
  // submit() must keep returning (with the sticky error) instead of
  // blocking forever on a full queue.
  align::Status st;
  for (int iter = 0; iter < 50 && st.ok(); ++iter)
    st = stream.submit(std::vector<seq::Read>(fx().reads));
  EXPECT_FALSE(st.ok());

  const align::Status fin = stream.finish();
  ASSERT_FALSE(fin.ok());
  EXPECT_EQ(fin.code(), align::ErrorCode::kInternal);
  EXPECT_NE(fin.stage().find("align-worker"), std::string::npos) << fin.stage();
  EXPECT_NE(fin.message().find("injected fault: align.worker"),
            std::string::npos)
      << fin.message();
  EXPECT_FALSE(fin.read().empty());  // first read of the failing batch

  // No torn records: the bulk writer is all-or-nothing per batch, so
  // whatever reached the sink before the failure is complete lines.
  const std::string out = os.str();
  EXPECT_TRUE(out.empty() || out.back() == '\n');

  // Failure is per-session: the same Aligner opens a clean stream.
  std::ostringstream os2;
  align::OstreamSamSink sink2(os2);
  align::Stream retry = aligner.open(sink2);
  ASSERT_TRUE(retry.submit(std::vector<seq::Read>(fx().reads)).ok());
  ASSERT_TRUE(retry.finish().ok());
  EXPECT_EQ(os2.str(), one_shot_sam(opt));
}

TEST(FaultInjector, BatchFaultSurfacesAsStatus) {
  // The align.batch point fires per read inside both drivers' chunk loops
  // (the batch driver's replay stage, the baseline's read loop); the
  // exception must reach the worker's Status boundary, never terminate.
  for (const align::Mode mode : {align::Mode::kBatch, align::Mode::kBaseline}) {
    SCOPED_TRACE(mode == align::Mode::kBatch ? "batch" : "baseline");
    align::DriverOptions opt;
    opt.mode = mode;
    opt.batch_size = 32;
    opt.threads = 4;

    ArmedFault fault("align.batch");
    align::CollectSamSink sink;
    const align::Aligner aligner(fx().index, opt);
    ASSERT_TRUE(aligner.ok());
    const align::Status st = aligner.align(fx().reads, sink);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), align::ErrorCode::kInternal);
    EXPECT_NE(st.message().find("injected fault: align.batch"), std::string::npos)
        << st.message();
  }
}

TEST(FaultInjector, SamWriteSurfacesAsIoErrorAtEmitStage) {
  align::DriverOptions opt;
  opt.mode = align::Mode::kBatch;
  opt.batch_size = 32;
  opt.threads = 2;

  ArmedFault fault("sam.write");
  std::ostringstream os;
  align::OstreamSamSink sink(os);
  const align::Aligner aligner(fx().index, opt);
  ASSERT_TRUE(aligner.ok());
  const align::Status st = aligner.align(fx().reads, sink);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), align::ErrorCode::kIoError);
  EXPECT_EQ(st.stage(), "sam-emit");
  EXPECT_NE(st.message().find("SAM output stream"), std::string::npos)
      << st.message();
}

TEST(FaultInjector, DisarmedInjectorIsOutputInvisible) {
  align::DriverOptions opt;
  opt.mode = align::Mode::kBatch;
  opt.batch_size = 32;
  opt.threads = 2;

  const std::string expected = one_shot_sam(opt);
  ASSERT_FALSE(expected.empty());
  // Armed at a site that never executes: the fast path must not perturb
  // anything (this is what keeps golden-SAM tests byte-identical with the
  // injector compiled in).
  ArmedFault fault("no.such.site");
  EXPECT_EQ(one_shot_sam(opt), expected);
}

}  // namespace
}  // namespace mem2
