// The complete alignment index: reference + both FM-index flavours + both
// SAL structures, built from one suffix-array pass.
//
// Baseline components (CP128 occ table, sampled SA) model original BWA-MEM;
// optimized components (CP32 occ table, flat SA) model the paper's design.
// Building both from the same BWT is what lets every test and bench compare
// like for like.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "index/flat_sa.h"
#include "index/fm_index.h"
#include "index/sampled_sa.h"
#include "seq/pack.h"

namespace mem2::index {

struct IndexBuildOptions {
  bool build_cp128 = true;
  bool build_cp32 = true;
  bool build_sampled_sa = true;
  bool build_flat_sa = true;
  /// Baseline SAL sampling interval (power of two).  BWA indexes with 32;
  /// the SAL bench sweeps this up to the paper's quoted 128.
  int sampled_interval = 32;
  /// Threads for the parallel SA-IS passes (<= 0: OpenMP default).  The
  /// suffix array — and therefore the whole index — is byte-identical for
  /// every thread count.
  int threads = 0;
  /// Called after each build phase completes with the phase name and its
  /// wall time; the CLI and the index-build bench hang progress/peak-RSS
  /// reporting off this.  May be empty.
  std::function<void(const char* phase, double seconds)> progress;
};

class Mem2Index {
 public:
  Mem2Index() = default;

  /// Build from a reference (computes SA over R·revcomp(R) once and derives
  /// everything).  The reference is copied into the index.
  static Mem2Index build(seq::Reference ref, const IndexBuildOptions& opt = {});

  const seq::Reference& ref() const { return ref_; }
  /// L: forward-strand length.  BW coordinates in [L, 2L) are the reverse
  /// strand, exactly like bwa's l_pac convention.
  idx_t l_pac() const { return ref_.length(); }
  idx_t seq_len() const { return 2 * ref_.length(); }

  const FmIndexCp128& fm128() const { return fm128_; }
  const FmIndexCp32& fm32() const { return fm32_; }
  const SampledSA128& sampled_sa() const { return sampled_sa_; }
  const FlatSA& flat_sa() const { return flat_sa_; }

  bool has_cp128() const { return fm128_.seq_len() > 0; }
  bool has_cp32() const { return fm32_.seq_len() > 0; }
  bool has_flat_sa() const { return flat_sa_.size() > 0; }

  /// Baseline SAL: LF-walk on the compressed structures.
  idx_t sa_lookup_baseline(idx_t row) const { return sampled_sa_.lookup(fm128_, row); }
  /// Optimized SAL: direct load.
  idx_t sa_lookup_flat(idx_t row) const { return flat_sa_.lookup(row); }

  /// Fetch reference bases for the BW coordinate range [rb, re) in the
  /// doubled coordinate space: positions >= l_pac read from the reverse
  /// complement strand (bwa's bns_get_seq semantics).
  std::vector<seq::Code> fetch(idx_t rb, idx_t re) const;
  /// The same bases written to out[0, re - rb).
  void fetch(idx_t rb, idx_t re, seq::Code* out) const;

  std::size_t memory_bytes() const {
    return fm128_.memory_bytes() + fm32_.memory_bytes() +
           sampled_sa_.memory_bytes() + flat_sa_.memory_bytes();
  }

  // Mutable access for index_io deserialization.
  seq::Reference& mutable_ref() { return ref_; }
  FmIndexCp128& mutable_fm128() { return fm128_; }
  FmIndexCp32& mutable_fm32() { return fm32_; }
  SampledSA128& mutable_sampled_sa() { return sampled_sa_; }
  FlatSA& mutable_flat_sa() { return flat_sa_; }

 private:
  seq::Reference ref_;
  FmIndexCp128 fm128_;
  FmIndexCp32 fm32_;
  SampledSA128 sampled_sa_;
  FlatSA flat_sa_;
};

/// Binary serialization (index/<name>.m2i).  Writes the v2 container:
/// named sections, each with a xxhash64 checksum footer, verified on load
/// so bit flips and truncation surface as corruption_error naming the
/// damaged section.  version=1 writes the deprecated unchecksummed format
/// (transition tooling only); load_index accepts both, warning on v1.
void save_index(const std::string& path, const Mem2Index& index, int version = 2);
Mem2Index load_index(const std::string& path);

}  // namespace mem2::index
