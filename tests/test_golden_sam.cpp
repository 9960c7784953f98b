// Golden-SAM regression corpus: small checked-in FASTA/FASTQ fixtures with
// expected single-end and paired-end SAM under tests/golden/, diffed line
// by line.  Two corpora: the general one (repeat-bearing two-contig genome)
// and a repeat-dense one whose reads come from a high-copy, low-divergence
// repeat family and keep hundreds of chains each — the load that the
// chaining and region post-processing loops must handle in linear time.  Perf-oriented PRs keep touching the hottest stages (BSW pooling,
// rescue scanning); this corpus catches any silent output change the
// invariance tests can't see (they compare a run against itself under
// different threadings — a wrong-everywhere change passes them).
//
// Regenerate after an INTENDED output change with:
//   ./build/test_golden_sam --bless
// which rewrites the fixtures in the source tree (MEM2_GOLDEN_DIR) and then
// verifies against the fresh files.  Review the diff of tests/golden/ like
// any other code change.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "align/aligner.h"
#include "chain/chain.h"
#include "io/fasta.h"
#include "io/fastq.h"
#include "seq/genome_sim.h"
#include "seq/read_sim.h"
#include "smem/seeding.h"

namespace mem2 {
namespace golden {
bool g_bless = false;
}  // namespace golden

namespace {

std::string dir() { return MEM2_GOLDEN_DIR; }
std::string path(const char* name) { return dir() + "/" + name; }

/// Deterministic fixture corpus: a repeat-bearing two-contig genome, one
/// single-end library, one paired library with enough damaged mates to
/// exercise rescue.  Small enough to version (tens of kilobases).
seq::GenomeConfig genome_config() {
  seq::GenomeConfig g;
  g.seed = 20260601;
  g.contig_lengths = {30000, 15000};
  g.repeat_fraction = 0.35;
  return g;
}

seq::ReadSimConfig se_config() {
  seq::ReadSimConfig c;
  c.seed = 31337;
  c.num_reads = 150;
  c.read_length = 101;
  c.name_prefix = "gse";
  return c;
}

seq::PairSimConfig pe_config() {
  seq::PairSimConfig c;
  c.seed = 424242;
  c.num_pairs = 100;
  c.read_length = 101;
  c.insert_mean = 330;
  c.insert_std = 35;
  c.damage_fraction = 0.3;  // keep the rescue path inside the corpus
  c.name_prefix = "gpe";
  return c;
}

/// Repeat-dense corpus: one ~250 bp family copied at 0.1% divergence over
/// 110% of a 60 kbp genome (copies overlap), so most reads land in a
/// repeat with ~100-250 near-identical loci.
seq::GenomeConfig repeat_genome_config() {
  seq::GenomeConfig g;
  g.seed = 20261017;
  g.contig_lengths = {40000, 20000};
  g.repeat_families = 1;
  g.repeat_element_len = 250;
  g.repeat_fraction = 1.1;
  g.repeat_divergence = 0.001;
  return g;
}

seq::ReadSimConfig repeat_se_config() {
  seq::ReadSimConfig c;
  c.seed = 7;
  c.num_reads = 80;
  c.read_length = 101;
  c.name_prefix = "rse";
  return c;
}

seq::PairSimConfig repeat_pe_config() {
  seq::PairSimConfig c;
  c.seed = 1013;
  c.num_pairs = 60;
  c.read_length = 101;
  c.insert_mean = 330;
  c.insert_std = 35;
  c.damage_fraction = 0.2;
  c.name_prefix = "rpe";
  return c;
}

align::DriverOptions se_options() {
  align::DriverOptions opt;
  opt.mode = align::Mode::kBatch;
  return opt;
}

align::DriverOptions pe_options() {
  align::DriverOptions opt = se_options();
  opt.paired = true;  // stat_pairs (512) > 100 pairs: calibrates at finish()
  return opt;
}

struct AlignOut {
  std::vector<std::string> sam;
  util::SwCounters counters;
};

AlignOut run(const index::Mem2Index& index, const std::vector<seq::Read>& reads,
             const align::DriverOptions& opt) {
  align::Aligner aligner(index, opt);
  EXPECT_TRUE(aligner.ok()) << aligner.status().message();
  align::CollectSamSink sink;
  align::DriverStats stats;
  EXPECT_TRUE(aligner.align(reads, sink, &stats).ok());
  AlignOut out;
  out.counters = stats.counters;
  out.sam.reserve(sink.records().size());
  for (const auto& rec : sink.records()) out.sam.push_back(rec.to_line());
  return out;
}

void write_lines(const std::string& p, const std::vector<std::string>& lines) {
  std::ofstream f(p);
  ASSERT_TRUE(f.is_open()) << p;
  for (const auto& l : lines) f << l << '\n';
}

std::vector<std::string> read_lines(const std::string& p) {
  std::ifstream f(p);
  EXPECT_TRUE(f.is_open()) << "missing golden fixture " << p
                           << " — regenerate with: test_golden_sam --bless";
  std::vector<std::string> lines;
  for (std::string l; std::getline(f, l);) lines.push_back(l);
  return lines;
}

/// Regenerate every fixture, once per --bless process.  Reads are written
/// to FASTQ and read back before aligning, so round-trip fidelity of the
/// I/O layer is part of what the corpus pins down.
void bless_fixtures() {
  static std::once_flag once;
  std::call_once(once, [] {
    std::filesystem::create_directories(dir());
    const auto ref = seq::simulate_genome(genome_config());
    io::save_reference(path("genome.fa"), ref);
    const auto ref_disk = io::load_reference(path("genome.fa"));
    io::write_fastq_file(path("se_reads.fq"),
                         seq::simulate_reads(ref_disk, se_config()));
    io::write_fastq_file(path("pe_reads.fq"),
                         seq::simulate_pairs(ref_disk, pe_config()));
    const auto index = index::Mem2Index::build(ref_disk);
    write_lines(path("expected_se.sam"),
                run(index, io::read_fastq_file(path("se_reads.fq")),
                    se_options())
                    .sam);
    write_lines(path("expected_pe.sam"),
                run(index, io::read_fastq_file(path("pe_reads.fq")),
                    pe_options())
                    .sam);

    io::save_reference(path("repeat_genome.fa"),
                       seq::simulate_genome(repeat_genome_config()));
    const auto rep_disk = io::load_reference(path("repeat_genome.fa"));
    io::write_fastq_file(path("repeat_se_reads.fq"),
                         seq::simulate_reads(rep_disk, repeat_se_config()));
    io::write_fastq_file(path("repeat_pe_reads.fq"),
                         seq::simulate_pairs(rep_disk, repeat_pe_config()));
    const auto rep_index = index::Mem2Index::build(rep_disk);
    write_lines(path("expected_repeat_se.sam"),
                run(rep_index, io::read_fastq_file(path("repeat_se_reads.fq")),
                    se_options())
                    .sam);
    write_lines(path("expected_repeat_pe.sam"),
                run(rep_index, io::read_fastq_file(path("repeat_pe_reads.fq")),
                    pe_options())
                    .sam);
    std::fprintf(stderr, "[bless] regenerated golden corpus in %s\n",
                 dir().c_str());
  });
}

void expect_lines_equal(const std::vector<std::string>& got,
                        const std::vector<std::string>& want,
                        const char* what) {
  EXPECT_EQ(got.size(), want.size()) << what << ": record count changed";
  int shown = 0;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (got[i] == want[i]) continue;
    ADD_FAILURE() << what << ": first difference at record " << i
                  << "\n  expected: " << want[i] << "\n  got:      " << got[i];
    if (++shown >= 3) break;
  }
  if (shown > 0)
    ADD_FAILURE() << what
                  << " diverged from tests/golden/ — if the change is "
                     "intended, regenerate with: test_golden_sam --bless";
}

index::Mem2Index golden_index(const char* genome = "genome.fa") {
  return index::Mem2Index::build(io::load_reference(path(genome)));
}

/// Number of reads whose filtered chain list holds at least `min_chains`
/// chains, computed with the same seeding/chaining calls both drivers make.
int reads_with_many_chains(const index::Mem2Index& index,
                           const std::vector<seq::Read>& reads,
                           std::size_t min_chains) {
  const align::MemOptions opt;
  smem::SmemWorkspace ws;
  std::vector<smem::Smem> smems;
  std::vector<chain::Seed> seeds;
  int n = 0;
  for (const auto& r : reads) {
    std::vector<seq::Code> q(r.bases.size());
    for (std::size_t i = 0; i < q.size(); ++i) q[i] = seq::char_to_code(r.bases[i]);
    smem::collect_smems(index.fm32(), q, opt.seeding, smems, ws,
                        util::PrefetchPolicy{true});
    chain::seeds_from_smems_batched(smems, opt.chaining, index.flat_sa(), seeds);
    const int l_query = static_cast<int>(q.size());
    auto chains = chain::build_chains(
        index.ref(), index.l_pac(), seeds, l_query, opt.chaining,
        chain::repetitive_fraction(smems, l_query, opt.chaining.max_occ));
    chain::filter_chains(chains, opt.chaining);
    if (chains.size() >= min_chains) ++n;
  }
  return n;
}

TEST(GoldenSam, SingleEndMatchesCorpus) {
  if (golden::g_bless) bless_fixtures();
  const auto index = golden_index();
  const auto out = run(index, io::read_fastq_file(path("se_reads.fq")),
                       se_options());
  ASSERT_FALSE(out.sam.empty());
  expect_lines_equal(out.sam, read_lines(path("expected_se.sam")),
                     "single-end SAM");
}

TEST(GoldenSam, PairedEndMatchesCorpus) {
  if (golden::g_bless) bless_fixtures();
  const auto index = golden_index();
  const auto out = run(index, io::read_fastq_file(path("pe_reads.fq")),
                       pe_options());
  ASSERT_FALSE(out.sam.empty());
  // The corpus must keep every paired stage busy, or a rescue regression
  // could hide behind a workload that never rescues.
  EXPECT_GT(out.counters.pe_proper_pairs, 0u);
  EXPECT_GT(out.counters.pe_rescue_windows, 0u);
  EXPECT_GT(out.counters.pe_rescue_hits, 0u);
  expect_lines_equal(out.sam, read_lines(path("expected_pe.sam")),
                     "paired-end SAM");
}

TEST(GoldenSam, BaselineDriverMatchesCorpusToo) {
  // The baseline driver shares the golden contract for single-end output
  // (the paper's like-for-like replacement property, pinned to bytes).
  if (golden::g_bless) bless_fixtures();
  const auto index = golden_index();
  align::DriverOptions opt = se_options();
  opt.mode = align::Mode::kBaseline;
  const auto out = run(index, io::read_fastq_file(path("se_reads.fq")), opt);
  expect_lines_equal(out.sam, read_lines(path("expected_se.sam")),
                     "baseline single-end SAM");
}

TEST(GoldenSam, RepeatDenseCorpusKeepsItsRepeatLoad) {
  // The corpus exists to put hundreds of equal-weight chains through the
  // post-SMEM loops; a regenerated genome that loses that load would turn
  // the two tests below into ordinary fixtures.
  if (golden::g_bless) bless_fixtures();
  const auto index = golden_index("repeat_genome.fa");
  EXPECT_GE(reads_with_many_chains(
                index, io::read_fastq_file(path("repeat_se_reads.fq")), 100),
            10);
}

TEST(GoldenSam, RepeatDenseSingleEndMatchesCorpus) {
  if (golden::g_bless) bless_fixtures();
  const auto index = golden_index("repeat_genome.fa");
  const auto reads = io::read_fastq_file(path("repeat_se_reads.fq"));
  const auto want = read_lines(path("expected_repeat_se.sam"));
  const auto out = run(index, reads, se_options());
  ASSERT_FALSE(out.sam.empty());
  expect_lines_equal(out.sam, want, "repeat-dense single-end SAM");
  align::DriverOptions opt = se_options();
  opt.mode = align::Mode::kBaseline;
  expect_lines_equal(run(index, reads, opt).sam, want,
                     "repeat-dense baseline single-end SAM");
}

TEST(GoldenSam, RepeatDensePairedEndMatchesCorpus) {
  if (golden::g_bless) bless_fixtures();
  const auto index = golden_index("repeat_genome.fa");
  const auto out = run(index, io::read_fastq_file(path("repeat_pe_reads.fq")),
                       pe_options());
  ASSERT_FALSE(out.sam.empty());
  expect_lines_equal(out.sam, read_lines(path("expected_repeat_pe.sam")),
                     "repeat-dense paired-end SAM");
}

}  // namespace
}  // namespace mem2

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--bless") {
      mem2::golden::g_bless = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
