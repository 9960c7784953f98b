// Packed reference sequence ("PAC" in BWA terminology).
//
// The reference is a set of contigs concatenated into one coordinate space.
// PackedSequence stores bases 2 bits each (the on-disk/in-memory format both
// BWA and BWA-MEM2 use for the reference during extension); Reference adds
// contig metadata and coordinate translation for SAM output.
//
// Ambiguous bases: like BWA we convert N runs into deterministic pseudo-
// random ACGT bases inside the packed sequence (so the FM-index alphabet
// stays 4-letter) and remember the ambiguous intervals for reporting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "seq/dna.h"
#include "util/common.h"

namespace mem2::seq {

/// 2-bit packed DNA, append-only then random-access.
class PackedSequence {
 public:
  PackedSequence() = default;

  void reserve(std::size_t n) { data_.reserve((n + 3) / 4); }

  void push_back(Code c) {
    MEM2_REQUIRE(c < 4, "PackedSequence stores only ACGT codes");
    const std::size_t word = size_ >> 2;
    if (word == data_.size()) data_.push_back(0);
    data_[word] |= static_cast<std::uint8_t>(c) << ((size_ & 3) << 1);
    ++size_;
  }

  Code operator[](std::size_t i) const {
    return static_cast<Code>((data_[i >> 2] >> ((i & 3) << 1)) & 3);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const std::vector<std::uint8_t>& raw() const { return data_; }
  void assign_raw(std::vector<std::uint8_t> raw, std::size_t n) {
    data_ = std::move(raw);
    size_ = n;
    MEM2_REQUIRE(data_.size() >= (size_ + 3) / 4, "raw PAC buffer too small");
  }

  /// Copy [begin, end) into `out` (must have end-begin capacity).
  void extract(std::size_t begin, std::size_t end, Code* out) const {
    unpack(begin, end, false, out, nullptr);
  }
  std::vector<Code> extract(std::size_t begin, std::size_t end) const;

  /// One pass over [begin, end), n = end - begin, four codes per table
  /// lookup: asc[i] = code(begin + i) and desc[n - 1 - i] = code(begin + i),
  /// each complemented when `complement` is set.  Either output may be
  /// null; a non-null one needs n codes of room.
  void unpack(std::size_t begin, std::size_t end, bool complement, Code* asc,
              Code* desc) const;

 private:
  std::vector<std::uint8_t> data_;
  std::size_t size_ = 0;
};

struct Contig {
  std::string name;
  idx_t offset = 0;  // start in the concatenated coordinate space
  idx_t length = 0;
};

struct AmbigInterval {
  idx_t begin = 0;  // concatenated coordinates
  idx_t end = 0;
};

/// The reference genome: contigs + packed concatenated sequence.
class Reference {
 public:
  Reference() = default;

  /// Append a contig given its ASCII sequence.  N bases are replaced by
  /// deterministic pseudo-random bases (seeded per reference) and recorded.
  void add_contig(const std::string& name, std::string_view ascii);

  /// Append a contig already in code space (may contain kAmbig).
  void add_contig_codes(const std::string& name, const std::vector<Code>& codes);

  const std::vector<Contig>& contigs() const { return contigs_; }
  const PackedSequence& pac() const { return pac_; }
  const std::vector<AmbigInterval>& ambiguous() const { return ambig_; }

  /// Total concatenated length (sum of contig lengths).
  idx_t length() const { return static_cast<idx_t>(pac_.size()); }

  Code base(idx_t pos) const { return pac_[static_cast<std::size_t>(pos)]; }

  /// Map a concatenated coordinate to (contig index, offset within contig).
  /// @throws invariant_error if pos is out of range.
  std::pair<int, idx_t> locate(idx_t pos) const;

  /// True if [begin, end) stays within a single contig.
  bool within_one_contig(idx_t begin, idx_t end) const;

  /// Extract codes for [begin, end) of the concatenated space.
  std::vector<Code> slice(idx_t begin, idx_t end) const {
    return pac_.extract(static_cast<std::size_t>(begin), static_cast<std::size_t>(end));
  }

 private:
  std::vector<Contig> contigs_;
  PackedSequence pac_;
  std::vector<AmbigInterval> ambig_;
  std::uint64_t ambig_rng_state_ = 0x4e4e4e4eULL;  // "NNNN"
};

}  // namespace mem2::seq
