// The benchmark's named workloads and their inputs.
//
// Every input derives from the fixed benchmark genome (a function of its
// length only) and the run's --seed.  Reads reach the aligner only as
// FASTQ text; generation happens before any timed region.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "seq/genome_sim.h"
#include "seq/read_sim.h"

namespace perfbench {

enum class Kind { kSingle, kPaired, kServe };

inline constexpr std::int64_t kL3Genome = 4'000'000;
inline constexpr std::int64_t kDramGenome = 128'000'000;

struct Workload {
  const char* name;
  Kind kind;
  std::int64_t genome_len;
  int read_len;      // serve: even-numbered sessions
  int read_len_alt;  // serve: odd-numbered sessions (0 otherwise)
  /// Reads per pass (SE/PE; PE counts both mates) or per serve session's
  /// read cycle.  A multiple of the chunk size, so every chunk is full.
  std::int64_t pool_reads;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// The benchmark reference: human-like GC, ALU-like repeat families and
/// microsatellites; two contigs up to 4 Mbp, five chromosome-like contigs
/// from 8 Mbp up.  Same parameters as the repository's bench genome.
mem2::seq::GenomeConfig genome_config(std::int64_t genome_len);

std::string index_path(const std::string& dir, std::int64_t genome_len);

/// Reads of one workload (SE reads, or PE mates adjacent R1,R2,...) for
/// `session` (serve only; 0 otherwise): simulator reads at loci fixed by
/// kLociSeed + session, with sequencing errors drawn from `seed`.
/// Deterministic in (seed, session).
inline constexpr std::uint64_t kLociSeed = 20190528;
std::vector<mem2::seq::Read> make_reads(const Workload& w,
                                        const mem2::seq::Reference& ref,
                                        std::uint64_t seed, int session,
                                        std::int64_t n_reads);

std::string to_fastq(const std::vector<mem2::seq::Read>& reads);

/// Primary records placed at the simulator's true origin (same contig and
/// strand, leftmost position within kTruthSlack bp), over SAM text.
struct Accuracy {
  std::uint64_t primaries = 0;
  std::uint64_t correct = 0;
  double fraction() const {
    return primaries ? static_cast<double>(correct) / static_cast<double>(primaries) : 0;
  }
};
inline constexpr int kTruthSlack = 20;
Accuracy score_sam_text(std::string_view sam, bool paired);

}  // namespace perfbench
