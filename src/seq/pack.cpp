#include "seq/pack.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <type_traits>

#include "util/rng.h"

namespace mem2::seq {

namespace {

/// Byte b's four codes as one word each way: ascending (the byte's bases in
/// coordinate order) and descending (reversed), ready for a 4-byte store.
struct UnpackTables {
  std::array<std::uint32_t, 256> asc, desc;
  UnpackTables() {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint8_t fwd[4], rev[4];
      for (int k = 0; k < 4; ++k) {
        fwd[k] = static_cast<std::uint8_t>((b >> (2 * k)) & 3);
        rev[3 - k] = fwd[k];
      }
      std::memcpy(&asc[b], fwd, 4);
      std::memcpy(&desc[b], rev, 4);
    }
  }
};

const UnpackTables kUnpack;

/// XOR mask that complements four 2-bit codes packed one per byte.
constexpr std::uint32_t kComplement4 = 0x03030303u;

}  // namespace

void PackedSequence::unpack(std::size_t begin, std::size_t end, bool complement,
                            Code* asc, Code* desc) const {
  MEM2_REQUIRE(begin <= end && end <= size_, "PackedSequence::extract out of range");
  const std::size_t n = end - begin;
  const std::uint32_t flip = complement ? kComplement4 : 0;
  const auto one = [&](std::size_t i) {
    const Code c = static_cast<Code>((*this)[i] ^ (flip & 3));
    if (asc) asc[i - begin] = c;
    if (desc) desc[n - 1 - (i - begin)] = c;
  };
  std::size_t i = begin;
  for (; i < end && (i & 3); ++i) one(i);
  // Whole bytes: one lookup per output per four bases.
  const auto bytes = [&](auto want_asc, auto want_desc) {
    for (; i + 4 <= end; i += 4) {
      const std::uint8_t b = data_[i >> 2];
      const std::size_t o = i - begin;
      if constexpr (want_asc) {
        const std::uint32_t w = kUnpack.asc[b] ^ flip;
        std::memcpy(asc + o, &w, 4);
      }
      if constexpr (want_desc) {
        const std::uint32_t w = kUnpack.desc[b] ^ flip;
        std::memcpy(desc + (n - 4 - o), &w, 4);
      }
    }
  };
  if (asc && desc)
    bytes(std::true_type{}, std::true_type{});
  else if (asc)
    bytes(std::true_type{}, std::false_type{});
  else if (desc)
    bytes(std::false_type{}, std::true_type{});
  for (; i < end; ++i) one(i);
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
