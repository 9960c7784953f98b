// Index integrity (index/index_io.cpp, v2 container): a bit flip in any
// section — payload or checksum footer — and any truncation must surface
// as corruption_error naming the offending section, before any corrupted
// field is used.  The retired v1 format must be rejected as an
// unsupported version.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "index/mem2_index.h"
#include "seq/genome_sim.h"
#include "util/common.h"

namespace mem2::index {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// One section frame of the v2 container, located by walking the file.
struct Section {
  std::string name;
  std::size_t payload_beg = 0;
  std::size_t payload_len = 0;
  std::size_t footer_off = 0;  // the xxhash64 checksum of the payload
};

std::vector<Section> parse_sections(const std::string& bytes) {
  std::vector<Section> out;
  std::size_t pos = 4;  // past the magic
  auto u64 = [&](std::size_t off) {
    std::uint64_t v = 0;
    EXPECT_LE(off + 8, bytes.size());
    std::memcpy(&v, bytes.data() + off, 8);
    return v;
  };
  while (pos < bytes.size()) {
    Section s;
    const auto name_len = static_cast<std::size_t>(u64(pos));
    pos += 8;
    s.name = bytes.substr(pos, name_len);
    pos += name_len;
    s.payload_len = static_cast<std::size_t>(u64(pos));
    pos += 8;
    s.payload_beg = pos;
    s.footer_off = pos + s.payload_len;
    pos = s.footer_off + 8;
    out.push_back(std::move(s));
  }
  return out;
}

struct CorruptFixture {
  Mem2Index index;
  std::string bytes;  // pristine v2 file image, kept in memory

  CorruptFixture() {
    seq::GenomeConfig cfg;
    cfg.contig_lengths = {3000, 1000};
    cfg.seed = 42;
    index = Mem2Index::build(seq::simulate_genome(cfg));

    const std::string path =
        (std::filesystem::temp_directory_path() / "mem2_corrupt_seed.m2i")
            .string();
    save_index(path, index);
    bytes = read_file(path);
    std::remove(path.c_str());
  }
};

const CorruptFixture& fx() {
  static CorruptFixture f;
  return f;
}

/// Writes `bytes` to a scratch .m2i, expects load_index to throw
/// corruption_error naming `section`, and cleans up.
void expect_corrupt(const std::string& bytes, const std::string& section,
                    const char* what) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mem2_corrupt_case.m2i")
          .string();
  write_file(path, bytes);
  try {
    load_index(path);
    FAIL() << what << ": corruption in '" << section << "' went undetected";
  } catch (const corruption_error& e) {
    EXPECT_NE(std::string(e.what()).find("'" + section + "'"),
              std::string::npos)
        << what << ": wrong section in: " << e.what();
  }
  std::remove(path.c_str());
}

TEST(IndexCorruption, FileHasAllSectionsInOrder) {
  const auto sections = parse_sections(fx().bytes);
  ASSERT_EQ(sections.size(), 6u);
  const char* expected[] = {"contigs", "pac",        "ambig",
                            "bwt",     "sampled_sa", "flat_sa"};
  for (std::size_t i = 0; i < sections.size(); ++i) {
    EXPECT_EQ(sections[i].name, expected[i]);
    EXPECT_GT(sections[i].payload_len, 0u);
  }
  EXPECT_EQ(sections.back().footer_off + 8, fx().bytes.size());
}

TEST(IndexCorruption, BitFlipInEachSectionNamesTheSection) {
  const auto sections = parse_sections(fx().bytes);
  for (const auto& sec : sections) {
    std::string mutated = fx().bytes;
    mutated[sec.payload_beg + sec.payload_len / 2] ^= 0x10;
    expect_corrupt(mutated, sec.name, "payload bit flip");
  }
}

TEST(IndexCorruption, BitFlipInChecksumFooterNamesTheSection) {
  const auto sections = parse_sections(fx().bytes);
  for (const auto& sec : sections) {
    std::string mutated = fx().bytes;
    mutated[sec.footer_off + 3] ^= 0x01;
    expect_corrupt(mutated, sec.name, "checksum footer bit flip");
  }
}

TEST(IndexCorruption, TruncationNamesTheSectionItLandsIn) {
  const auto sections = parse_sections(fx().bytes);
  for (const auto& sec : sections) {
    // Cut mid-payload: the section's own read fails.
    expect_corrupt(fx().bytes.substr(0, sec.payload_beg + sec.payload_len / 2),
                   sec.name, "mid-payload truncation");
    // Cut just before the footer: the checksum read fails.
    expect_corrupt(fx().bytes.substr(0, sec.footer_off + 4), sec.name,
                   "mid-footer truncation");
  }
}

TEST(IndexCorruption, LoadedAfterRoundTripStillMatches) {
  // Sanity companion to the negative cases: the untouched image loads and
  // agrees with the in-memory index.
  const std::string path =
      (std::filesystem::temp_directory_path() / "mem2_corrupt_ok.m2i").string();
  write_file(path, fx().bytes);
  const auto loaded = load_index(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.seq_len(), fx().index.seq_len());
  EXPECT_EQ(loaded.fm128().primary(), fx().index.fm128().primary());
  for (idx_t r = 0; r <= fx().index.seq_len(); r += 61)
    ASSERT_EQ(loaded.sa_lookup_flat(r), fx().index.sa_lookup_flat(r));
}

TEST(IndexCorruption, V1HeaderIsRejectedAsUnsupportedVersion) {
  // The unchecksummed v1 format is retired: a v1 magic must fail with the
  // unsupported-version io_error, whatever follows it, never be parsed.
  const std::string path =
      (std::filesystem::temp_directory_path() / "mem2_v1.m2i").string();
  std::string v1 = fx().bytes;
  v1[3] = '\1';
  write_file(path, v1);
  try {
    load_index(path);
    FAIL() << "v1 index accepted";
  } catch (const io_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported index format version"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(IndexCorruption, V2AbsurdLengthFieldRejectedBeforeAllocation) {
  // A corrupt element count must die on the remaining-bytes clamp (named
  // corruption_error), never reach the allocator.  The count here claims
  // 2^60 contigs in a payload of a few hundred bytes.
  const auto sections = parse_sections(fx().bytes);
  ASSERT_EQ(sections[0].name, "contigs");
  std::string mutated = fx().bytes;
  const std::uint64_t huge = std::uint64_t{1} << 60;
  std::memcpy(mutated.data() + sections[0].payload_beg, &huge, 8);
  expect_corrupt(mutated, "contigs", "absurd contig count");
}

TEST(IndexCorruption, Cp32RejectsTextsBeyondUint32) {
  // The CP32 occ buckets count in uint32_t; a doubled text at 2^32 chars
  // would silently wrap them.  The boundary itself is fine.
  EXPECT_NO_THROW(OccCp32::check_text_length((idx_t{1} << 32) - 1));
  try {
    OccCp32::check_text_length(idx_t{1} << 32);
    FAIL() << "oversized text accepted";
  } catch (const invariant_error& e) {
    EXPECT_NE(std::string(e.what()).find("4294967295"), std::string::npos)
        << e.what();
  }
}

TEST(IndexCorruption, NonIndexFilesAndUnknownVersionsAreIoErrors) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mem2_notindex.m2i").string();
  write_file(path, "this is not an index file at all");
  EXPECT_THROW(load_index(path), io_error);

  std::string future = fx().bytes;
  future[3] = '\7';  // version far beyond v2
  write_file(path, future);
  EXPECT_THROW(load_index(path), io_error);

  write_file(path, "M2");  // shorter than the magic itself
  EXPECT_THROW(load_index(path), io_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mem2::index
