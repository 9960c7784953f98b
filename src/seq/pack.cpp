#include "seq/pack.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "util/rng.h"

namespace mem2::seq {

void PackedSequence::extract(std::size_t begin, std::size_t end, Code* out) const {
  MEM2_REQUIRE(begin <= end && end <= size_, "PackedSequence::extract out of range");
  // Whole bytes unpack four codes at a time through a 256-entry table.
  static const auto kUnpack = [] {
    std::array<std::array<Code, 4>, 256> t{};
    for (int b = 0; b < 256; ++b)
      for (int k = 0; k < 4; ++k) t[b][k] = static_cast<Code>((b >> (2 * k)) & 3);
    return t;
  }();
  std::size_t i = begin;
  for (; i < end && (i & 3); ++i) *out++ = (*this)[i];
  for (; i + 4 <= end; i += 4, out += 4)
    std::memcpy(out, kUnpack[data_[i >> 2]].data(), 4);
  for (; i < end; ++i) *out++ = (*this)[i];
}

std::vector<Code> PackedSequence::extract(std::size_t begin, std::size_t end) const {
  std::vector<Code> out(end - begin);
  extract(begin, end, out.data());
  return out;
}

void Reference::add_contig(const std::string& name, std::string_view ascii) {
  add_contig_codes(name, encode(ascii));
}

void Reference::add_contig_codes(const std::string& name, const std::vector<Code>& codes) {
  Contig c;
  c.name = name;
  c.offset = length();
  c.length = static_cast<idx_t>(codes.size());

  util::SplitMix64 rng(ambig_rng_state_ ^ (pac_.size() * 0x9e3779b97f4a7c15ULL));
  bool in_ambig = false;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    Code code = codes[i];
    if (code >= 4) {
      if (!in_ambig) {
        ambig_.push_back({c.offset + static_cast<idx_t>(i), c.offset + static_cast<idx_t>(i)});
        in_ambig = true;
      }
      ambig_.back().end = c.offset + static_cast<idx_t>(i) + 1;
      code = static_cast<Code>(rng.next() & 3);  // like BWA: N -> random base
    } else {
      in_ambig = false;
    }
    pac_.push_back(code);
  }
  contigs_.push_back(std::move(c));
}

std::pair<int, idx_t> Reference::locate(idx_t pos) const {
  MEM2_REQUIRE(pos >= 0 && pos < length(), "Reference::locate out of range");
  // Binary search over contig offsets.
  auto it = std::upper_bound(contigs_.begin(), contigs_.end(), pos,
                             [](idx_t p, const Contig& c) { return p < c.offset; });
  int idx = static_cast<int>(it - contigs_.begin()) - 1;
  return {idx, pos - contigs_[static_cast<std::size_t>(idx)].offset};
}

bool Reference::within_one_contig(idx_t begin, idx_t end) const {
  if (begin >= end) return true;
  auto [ci, off] = locate(begin);
  (void)off;
  const Contig& c = contigs_[static_cast<std::size_t>(ci)];
  return end <= c.offset + c.length;
}

}  // namespace mem2::seq
