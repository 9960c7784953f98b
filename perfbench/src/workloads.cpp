#include "workloads.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <filesystem>

#include "io/sam.h"
#include "util/rng.h"

namespace perfbench {

using namespace mem2;

const std::vector<Workload>& workloads() {
  // Pool sizes are multiples of the chunk sizes (kPassChunk reads for the
  // pipeline workloads, kServeBatch per serve chunk).
  static const std::vector<Workload> kAll = {
      {"se151_l3", Kind::kSingle, kL3Genome, 151, 0, 2048},
      {"pe101_l3", Kind::kPaired, kL3Genome, 101, 0, 2048},
      {"se101_dram", Kind::kSingle, kDramGenome, 101, 0, 2048},
      {"serve4_open", Kind::kServe, kL3Genome, 101, 151, 8192},
  };
  return kAll;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

seq::GenomeConfig genome_config(std::int64_t genome_len) {
  seq::GenomeConfig g;
  g.seed = 20190527;
  if (genome_len >= 8'000'000) {
    g.contig_lengths = {genome_len * 30 / 100, genome_len * 25 / 100,
                        genome_len * 20 / 100, genome_len * 15 / 100};
    std::int64_t used = 0;
    for (auto l : g.contig_lengths) used += l;
    g.contig_lengths.push_back(genome_len - used);
  } else {
    g.contig_lengths = {genome_len * 2 / 3, genome_len / 3};
  }
  g.gc_content = 0.41;
  g.repeat_fraction = 0.50;
  g.repeat_divergence = 0.015;
  g.repeat_families = 2;
  g.tandem_fraction = 0.02;
  return g;
}

std::string index_path(const std::string& dir, std::int64_t genome_len) {
  return (std::filesystem::path(dir) / ("bench_" + std::to_string(genome_len) + ".m2i"))
      .string();
}

namespace {

constexpr double kSubRate = 0.012, kIndelRate = 0.0005;  // Illumina-like
constexpr char kQualLow = '#';

/// Sequencing errors drawn from `seed`, applied in place to error-free
/// reads: substitutions, and single-base insertions and deletions that keep
/// the read length (the base pushed off the 3' end is dropped; a deletion
/// is filled at the 3' end with a random base).  Errors, not loci, carry the
/// seed: a read's alignment cost depends mostly on its locus (repeat copy
/// number), so seeded loci would make the work itself differ by ~6% between
/// seeds at these read counts.
void add_errors(std::vector<seq::Read>& reads, std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  const auto random_base = [&] { return seq::code_to_char(static_cast<seq::Code>(rng.below(4))); };
  for (auto& r : reads) {
    std::string& b = r.bases;
    std::string& q = r.qual;
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (rng.chance(kSubRate)) {
        const auto c = seq::char_to_code(b[i]);
        b[i] = seq::code_to_char(static_cast<seq::Code>((c + 1 + rng.below(3)) & 3));
        q[i] = kQualLow;
      } else if (rng.chance(kIndelRate)) {
        b.insert(i, 1, random_base());
        q.insert(i, 1, kQualLow);
        b.pop_back();
        q.pop_back();
        ++i;
      } else if (rng.chance(kIndelRate)) {
        b.erase(i, 1);
        q.erase(i, 1);
        b.push_back(random_base());
        q.push_back(kQualLow);
      }
    }
  }
}

}  // namespace

std::vector<seq::Read> make_reads(const Workload& w, const seq::Reference& ref,
                                  std::uint64_t seed, int session,
                                  std::int64_t n_reads) {
  // Loci (and PE damage) come from a fixed per-session seed, so the set of
  // loci is part of the workload's definition, like a fixed dataset.
  const std::uint64_t loci_seed = kLociSeed + static_cast<std::uint64_t>(session);
  std::vector<seq::Read> reads;
  if (w.kind == Kind::kPaired) {
    seq::PairSimConfig cfg;
    cfg.seed = loci_seed;
    cfg.read_length = w.read_len;
    cfg.num_pairs = n_reads / 2;
    cfg.insert_mean = 420;
    cfg.insert_std = 45;
    cfg.substitution_rate = cfg.insertion_rate = cfg.deletion_rate = 0;
    cfg.damage_fraction = 0.05;  // damaged mates keep mate rescue busy
    reads = seq::simulate_pairs(ref, cfg);
  } else {
    seq::ReadSimConfig cfg;
    cfg.seed = loci_seed;
    cfg.read_length = (session % 2 && w.read_len_alt) ? w.read_len_alt : w.read_len;
    cfg.num_reads = n_reads;
    cfg.substitution_rate = cfg.insertion_rate = cfg.deletion_rate = 0;
    cfg.name_prefix = "s" + std::to_string(session);
    reads = seq::simulate_reads(ref, cfg);
  }
  add_errors(reads, seed * 64 + static_cast<std::uint64_t>(session));
  return reads;
}

std::string to_fastq(const std::vector<seq::Read>& reads) {
  std::string out;
  for (const auto& r : reads) {
    out += '@';
    out += r.name;
    out += '\n';
    out += r.bases;
    out += "\n+\n";
    out += r.qual;
    out += '\n';
  }
  return out;
}

namespace {

/// Tab-separated field `i` of a SAM line.
std::string_view field(std::string_view line, int i) {
  std::size_t beg = 0;
  for (int k = 0; k < i; ++k) {
    beg = line.find('\t', beg);
    if (beg == std::string_view::npos) return {};
    ++beg;
  }
  const std::size_t end = line.find('\t', beg);
  return line.substr(beg, end == std::string_view::npos ? line.size() - beg : end - beg);
}

std::int64_t to_int(std::string_view s) {
  std::int64_t v = 0;
  std::from_chars(s.data(), s.data() + s.size(), v);
  return v;
}

}  // namespace

Accuracy score_sam_text(std::string_view sam, bool paired) {
  Accuracy acc;
  std::size_t pos = 0;
  while (pos < sam.size()) {
    std::size_t eol = sam.find('\n', pos);
    if (eol == std::string_view::npos) eol = sam.size();
    const std::string_view line = sam.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '@') continue;
    const int flag = static_cast<int>(to_int(field(line, 1)));
    if (flag & (io::kFlagSecondary | io::kFlagSupplementary)) continue;
    ++acc.primaries;
    if (flag & io::kFlagUnmapped) continue;
    const std::string qname(field(line, 0));
    std::string contig;
    std::int64_t true_pos = -1;
    bool true_rev = false;
    if (paired) {
      const auto t = seq::parse_pair_truth(qname);
      if (!t.valid) continue;
      const bool r2 = flag & io::kFlagRead2;
      contig = t.contig;
      true_pos = r2 ? t.pos2 : t.pos1;
      true_rev = r2 ? t.reverse2 : t.reverse1;
    } else {
      const auto t = seq::parse_truth(qname);
      if (!t.valid) continue;
      contig = t.contig;
      true_pos = t.pos;
      true_rev = t.reverse;
    }
    const std::int64_t sam_pos = to_int(field(line, 3)) - 1;
    acc.correct += field(line, 2) == contig &&
                   std::llabs(sam_pos - true_pos) <= kTruthSlack &&
                   ((flag & io::kFlagReverse) != 0) == true_rev;
  }
  return acc;
}

}  // namespace perfbench
