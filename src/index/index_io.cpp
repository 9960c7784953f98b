// Binary index serialization.  Current format (.m2i, v2):
//   magic "M2I\2", then named sections in fixed order, each framed as
//     name (u64 length + bytes) | payload length (u64) | payload |
//     xxhash64(payload) footer (u64)
//   Integers little-endian, sizes as uint64.  The occ tables are rebuilt
//   from the stored BWT on load (cheap, and keeps the file format
//   independent of bucket layout).
//
// Both directions stream: the writer emits each section write-through with
// an analytically precomputed payload length and an incremental xxhash64,
// and the reader consumes fields straight from the file in bounded chunks —
// neither side ever holds a section payload AND its in-memory structure at
// the same time, which is what keeps chromosome-scale save/load inside the
// build's own memory budget.  The flat SA is stored as i64 on disk (format
// compatibility) but held as u32 in memory; the widening/narrowing runs
// through a small chunk buffer.
//
// Integrity: every length field is clamped against the bytes actually
// remaining in its section (or file) BEFORE any allocation, and each
// section checksum is verified once its payload has been consumed, so a
// bit-flipped or truncated file surfaces as corruption_error naming the
// offending section (Status kDataCorruption at the session layer / exit
// code 4 in mem2_cli) instead of undefined behavior or an absurd
// allocation.  Any other format version (including the retired,
// unchecksummed v1) is rejected as io_error; re-run `mem2_cli index`.
#include <algorithm>
#include <cstring>
#include <fstream>

#include "index/mem2_index.h"
#include "util/big_alloc.h"
#include "util/checksum.h"
#include "util/fault_injector.h"

namespace mem2::index {

namespace {

static_assert(sizeof(seq::Code) == 1, "BWT sections assume 1-byte codes");

constexpr char kMagicV2[4] = {'M', '2', 'I', '\2'};

/// Chunk size for streaming payload reads/writes: big enough to amortize
/// stream overhead, small enough to be memory-invisible.
constexpr std::size_t kIoChunkBytes = std::size_t{8} << 20;

template <typename T>
void put(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

void put_string(std::ostream& out, const std::string& s) {
  put<std::uint64_t>(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// Feed each chunk of the u32 flat SA, widened to the on-disk i64 layout,
/// to `emit(ptr, bytes)`.  Only one small chunk buffer is ever live.
template <class Emit>
void for_each_widened_chunk(const util::BigVector<std::uint32_t>& v,
                            Emit&& emit) {
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::vector<idx_t> buf(std::min(v.size(), kChunk));
  for (std::size_t off = 0; off < v.size(); off += kChunk) {
    const std::size_t m = std::min(kChunk, v.size() - off);
    for (std::size_t i = 0; i < m; ++i)
      buf[i] = static_cast<idx_t>(v[off + i]);
    emit(buf.data(), m * sizeof(idx_t));
  }
}

// ---------------------------------------------------------------- v2 frame

/// Streaming section writer: the frame header carries an analytically
/// precomputed payload length, fields are written straight through while an
/// incremental xxhash64 runs alongside, and finish() checks the promise and
/// appends the checksum footer.  No payload copy is ever materialized.
class SectionSink {
 public:
  SectionSink(std::ostream& out, const char* name, std::uint64_t payload_len)
      : out_(out), declared_(payload_len) {
    put_string(out_, name);
    put<std::uint64_t>(out_, payload_len);
  }

  void bytes(const void* p, std::size_t n) {
    if (n == 0) return;
    hash_.update(p, n);
    out_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    written_ += n;
  }

  template <typename T>
  void put_field(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof(T));
  }

  void put_str(const std::string& s) {
    put_field<std::uint64_t>(s.size());
    bytes(s.data(), s.size());
  }

  template <typename T>
  void put_vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_field<std::uint64_t>(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }

  void finish() {
    MEM2_REQUIRE(written_ == declared_,
                 "index writer: section payload length mismatch");
    put<std::uint64_t>(out_, hash_.digest());
  }

 private:
  std::ostream& out_;
  std::uint64_t declared_;
  std::uint64_t written_ = 0;
  util::Xxh64Stream hash_;
};

/// Streaming section reader.  Fields are consumed straight from the file;
/// every length field is clamped against the bytes remaining in the
/// section before the corresponding allocation, and the checksum footer is
/// verified in finish() once the payload has been fully consumed.  Every
/// failure is a corruption_error naming the section, so a malformed length
/// can never read past the section or allocate from garbage.
class SectionSource {
 public:
  SectionSource(std::istream& in, const char* expected,
                std::uint64_t& bytes_left)
      : in_(in), name_(expected) {
    const std::uint64_t name_len = frame_u64(bytes_left);
    if (name_len > 256 || name_len > bytes_left)
      fail("implausible section name");
    std::string name(static_cast<std::size_t>(name_len), '\0');
    in_.read(name.data(), static_cast<std::streamsize>(name.size()));
    if (!in_) fail("file truncated in section name");
    bytes_left -= name_len;
    if (name != name_) fail("expected this section, found '" + name + "'");
    payload_len_ = frame_u64(bytes_left);
    if (payload_len_ > bytes_left) fail("payload length exceeds the file size");
    bytes_left -= payload_len_;
  }

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    read_raw(&v, sizeof(T), "field");
    return v;
  }

  /// Read a u64 element count and clamp it: a count can never exceed the
  /// remaining payload bytes, so absurd lengths die before the allocation.
  std::uint64_t get_count(std::size_t elem_size, const char* what) {
    const auto n = get<std::uint64_t>();
    if (n > remaining() / elem_size)
      fail(std::string(what) + " length field exceeds the section payload");
    return n;
  }

  std::string get_string() {
    const auto n = get_count(1, "string");
    std::string s(static_cast<std::size_t>(n), '\0');
    read_raw(s.data(), s.size(), "string");
    return s;
  }

  template <typename T>
  std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = get_count(sizeof(T), "vector");
    std::vector<T> v(static_cast<std::size_t>(n));
    read_chunked(v.data(), v.size() * sizeof(T), "vector");
    return v;
  }

  /// Raw payload read (bounds-checked + hashed); building block for the
  /// chunked big-array paths.
  void read_raw(void* dst, std::size_t n, const char* what) {
    if (n > remaining())
      fail(std::string(what) + " extends past the section payload");
    in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (!in_) fail("file truncated in section payload");
    hash_.update(dst, n);
    consumed_ += n;
  }

  void read_chunked(void* dst, std::size_t n, const char* what) {
    char* p = static_cast<char*>(dst);
    while (n > 0) {
      const std::size_t m = std::min(n, kIoChunkBytes);
      read_raw(p, m, what);
      p += m;
      n -= m;
    }
  }

  std::uint64_t remaining() const { return payload_len_ - consumed_; }

  /// Semantic range check: fields that passed the checksum can still be
  /// inconsistent with each other only if the writer was broken — treat as
  /// corruption all the same, with a field-level message.
  void require(bool cond, const std::string& what) const {
    if (!cond) fail(what);
  }

  /// Expects the payload fully consumed, then verifies the checksum footer.
  void finish() {
    if (consumed_ != payload_len_) fail("trailing bytes after last field");
    std::uint64_t stored = 0;
    in_.read(reinterpret_cast<char*>(&stored), sizeof(stored));
    if (!in_) fail("file truncated in section frame");
    if (stored != hash_.digest())
      fail("checksum mismatch (bit flip or truncation)");
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw corruption_error("index section '" + std::string(name_) +
                           "' is corrupt: " + what);
  }

 private:
  std::uint64_t frame_u64(std::uint64_t& bytes_left) {
    std::uint64_t v = 0;
    in_.read(reinterpret_cast<char*>(&v), sizeof(v));
    if (!in_) fail("file truncated in section frame");
    bytes_left -= std::min<std::uint64_t>(bytes_left, sizeof(v));
    return v;
  }

  std::istream& in_;
  const char* name_;
  std::uint64_t payload_len_ = 0;
  std::uint64_t consumed_ = 0;
  util::Xxh64Stream hash_;
};

// ------------------------------------------------------- section writers

void write_contigs(std::ostream& out, const Mem2Index& index) {
  const auto& contigs = index.ref().contigs();
  std::uint64_t len = 8;
  for (const auto& c : contigs) len += 8 + c.name.size() + 2 * sizeof(idx_t);
  SectionSink s(out, "contigs", len);
  s.put_field<std::uint64_t>(contigs.size());
  for (const auto& c : contigs) {
    s.put_str(c.name);
    s.put_field<idx_t>(c.offset);
    s.put_field<idx_t>(c.length);
  }
  s.finish();
}

void write_pac(std::ostream& out, const Mem2Index& index) {
  const auto& raw = index.ref().pac().raw();
  SectionSink s(out, "pac", 16 + raw.size());
  s.put_field<std::uint64_t>(static_cast<std::uint64_t>(index.ref().pac().size()));
  s.put_vec(raw);
  s.finish();
}

void write_ambig(std::ostream& out, const Mem2Index& index) {
  const auto& ambig = index.ref().ambiguous();
  SectionSink s(out, "ambig", 8 + ambig.size() * 2 * sizeof(idx_t));
  s.put_field<std::uint64_t>(ambig.size());
  for (const auto& a : ambig) {
    s.put_field<idx_t>(a.begin);
    s.put_field<idx_t>(a.end);
  }
  s.finish();
}

void write_bwt(std::ostream& out, const Mem2Index& index) {
  const auto& fm = index.fm128();
  // raw_bwt() IS the sentinel-free last column in file order (the old
  // row-translation loop reproduced it element for element), so the
  // section streams straight from the live structure.
  const auto& raw = fm.raw_bwt();
  SectionSink s(out, "bwt", 2 * sizeof(idx_t) + 8 + raw.size());
  s.put_field<idx_t>(fm.seq_len());
  s.put_field<idx_t>(fm.primary());
  s.put_vec(raw);
  s.finish();
}

void write_sampled_sa(std::ostream& out, const Mem2Index& index) {
  const auto& samples = index.sampled_sa().samples();
  SectionSink s(out, "sampled_sa", 4 + 8 + samples.size() * sizeof(idx_t));
  s.put_field<std::int32_t>(index.sampled_sa().interval());
  s.put_vec(samples);
  s.finish();
}

void write_flat_sa(std::ostream& out, const Mem2Index& index) {
  const bool has = index.has_flat_sa();
  std::uint64_t len = 1;
  if (has) len += 8 + index.flat_sa().size() * sizeof(idx_t);
  SectionSink s(out, "flat_sa", len);
  s.put_field<std::uint8_t>(has ? 1 : 0);
  if (has) {
    const auto& v = index.flat_sa().values_u32();
    s.put_field<std::uint64_t>(v.size());
    for_each_widened_chunk(
        v, [&](const void* p, std::size_t n) { s.bytes(p, n); });
  }
  s.finish();
}

// --------------------------------------------------------------- v2 loader

Mem2Index load_index_v2(std::istream& in, std::uint64_t bytes_left) {
  Mem2Index index;

  // Contigs + pac + ambig: verify all three before rebuilding the
  // Reference, since contig geometry indexes into the pac payload.
  std::vector<seq::Contig> contigs;
  {
    SectionSource sec(in, "contigs", bytes_left);
    // Each contig costs at least 24 payload bytes (name length field +
    // offset + length); this clamps the table before the allocation.
    const auto n_contigs = sec.get_count(24, "contig table");
    sec.require(n_contigs >= 1, "index has no contigs");
    contigs.resize(static_cast<std::size_t>(n_contigs));
    for (auto& c : contigs) {
      c.name = sec.get_string();
      c.offset = sec.get<idx_t>();
      c.length = sec.get<idx_t>();
      sec.require(!c.name.empty(), "empty contig name");
      sec.require(c.offset >= 0 && c.length >= 1,
                  "contig offset/length out of range");
    }
    sec.finish();
  }

  std::uint64_t pac_len = 0;
  std::vector<std::uint8_t> pac_raw;
  {
    SectionSource sec(in, "pac", bytes_left);
    pac_len = sec.get<std::uint64_t>();
    pac_raw = sec.get_vector<std::uint8_t>();
    sec.require(pac_raw.size() == (static_cast<std::size_t>(pac_len) + 3) / 4,
                "packed length does not match the stored base count");
    sec.finish();
  }
  for (const auto& c : contigs) {
    if (static_cast<std::uint64_t>(c.offset) +
            static_cast<std::uint64_t>(c.length) >
        pac_len)
      throw corruption_error("index section 'contigs' is corrupt: contig '" +
                             c.name + "' extends past the packed sequence");
  }

  {
    SectionSource sec(in, "ambig", bytes_left);
    const auto n_ambig = sec.get_count(2 * sizeof(idx_t), "ambig table");
    std::vector<seq::AmbigInterval> ambig(static_cast<std::size_t>(n_ambig));
    for (auto& a : ambig) {
      a.begin = sec.get<idx_t>();
      a.end = sec.get<idx_t>();
      sec.require(a.begin >= 0 && a.begin <= a.end &&
                      static_cast<std::uint64_t>(a.end) <= pac_len,
                  "ambiguous interval out of range");
    }
    sec.finish();
  }

  seq::PackedSequence pac;
  pac.assign_raw(std::move(pac_raw), pac_len);
  for (const auto& c : contigs) {
    auto codes = pac.extract(static_cast<std::size_t>(c.offset),
                             static_cast<std::size_t>(c.offset + c.length));
    index.mutable_ref().add_contig_codes(c.name, codes);
  }

  // BWT + occ tables.
  BwtData bwt;
  {
    SectionSource sec(in, "bwt", bytes_left);
    bwt.seq_len = sec.get<idx_t>();
    bwt.primary = sec.get<idx_t>();
    sec.require(bwt.seq_len == static_cast<idx_t>(2 * pac_len),
                "BW matrix length != 2 x reference length");
    sec.require(bwt.primary >= 0 && bwt.primary <= bwt.seq_len,
                "primary row out of range");
    // The 32-bit occ/SA components rebuilt below cap the text length; an
    // oversized file must die here (invariant_error naming the limit), not
    // wrap counters during the rebuild.
    OccCp32::check_text_length(bwt.seq_len);
    const auto n = sec.get_count(sizeof(seq::Code), "vector");
    sec.require(static_cast<idx_t>(n) == bwt.seq_len, "BWT length mismatch");
    bwt.bwt.resize(static_cast<std::size_t>(n));
    util::prefault_pages(bwt.bwt.data(), bwt.bwt.size());
    sec.read_chunked(bwt.bwt.data(), bwt.bwt.size(), "vector");
    sec.finish();
    // Alphabet check + cumulative counts in one checksum-verified pass.
    std::array<idx_t, 4> counts{};
    for (seq::Code c : bwt.bwt) {
      sec.require(c < 4, "BWT code out of the DNA alphabet");
      ++counts[c];
    }
    bwt.cum[0] = 1;
    for (int c = 0; c < 4; ++c)
      bwt.cum[static_cast<std::size_t>(c) + 1] =
          bwt.cum[static_cast<std::size_t>(c)] + counts[static_cast<std::size_t>(c)];
  }

  index.mutable_fm128().build(bwt);
  index.mutable_fm128().store_raw_bwt(bwt);
  index.mutable_fm32().build(bwt);

  // SAL structures.
  {
    SectionSource sec(in, "sampled_sa", bytes_left);
    const auto interval = sec.get<std::int32_t>();
    sec.require(interval >= 1 && (interval & (interval - 1)) == 0,
                "sampling interval is not a positive power of two");
    auto samples = sec.get_vector<idx_t>();
    sec.require(static_cast<idx_t>(samples.size()) ==
                    (bwt.seq_len + interval) / interval,
                "sample count does not match the interval");
    for (idx_t s : samples)
      sec.require(s >= 0 && s <= bwt.seq_len, "SA sample out of range");
    sec.finish();
    index.mutable_sampled_sa().set_samples(std::move(samples), interval);
  }

  {
    SectionSource sec(in, "flat_sa", bytes_left);
    const auto has_flat = sec.get<std::uint8_t>();
    sec.require(has_flat <= 1, "flat-SA presence flag is not 0/1");
    if (has_flat) {
      const auto n = sec.get_count(sizeof(idx_t), "vector");
      sec.require(static_cast<idx_t>(n) == bwt.seq_len + 1,
                  "flat SA size != seq_len + 1");
      // Narrow the on-disk i64 values to the u32 in-memory layout through a
      // chunk buffer; the 32-bit fit is implied by the range check because
      // seq_len passed check_text_length above.
      util::BigVector<std::uint32_t> values(static_cast<std::size_t>(n));
      util::prefault_pages(values.data(), values.size() * sizeof(std::uint32_t));
      std::vector<idx_t> chunk(
          std::min<std::size_t>(static_cast<std::size_t>(n), std::size_t{1} << 16));
      for (std::size_t off = 0; off < static_cast<std::size_t>(n);) {
        const std::size_t m =
            std::min(chunk.size(), static_cast<std::size_t>(n) - off);
        sec.read_raw(chunk.data(), m * sizeof(idx_t), "vector");
        for (std::size_t i = 0; i < m; ++i) {
          const idx_t v = chunk[i];
          sec.require(v >= 0 && v <= bwt.seq_len, "flat SA value out of range");
          values[off + i] = static_cast<std::uint32_t>(v);
        }
        off += m;
      }
      sec.finish();
      index.mutable_flat_sa().build(std::move(values));
    } else {
      sec.finish();
    }
  }

  return index;
}

}  // namespace

void save_index(const std::string& path, const Mem2Index& index) {
  MEM2_REQUIRE(index.has_cp128(), "save_index requires the CP128 component");
  MEM2_REQUIRE(index.fm128().has_raw_bwt(), "save_index requires raw BWT");
  std::ofstream out(path, std::ios::binary);
  if (!out) throw io_error("cannot open index file for writing: " + path);

  out.write(kMagicV2, 4);
  write_contigs(out, index);
  write_pac(out, index);
  write_ambig(out, index);
  write_bwt(out, index);
  write_sampled_sa(out, index);
  write_flat_sa(out, index);

  if (!out) throw io_error("error writing index file: " + path);
}

Mem2Index load_index(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw io_error("cannot open index file: " + path);
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);

  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagicV2, 3) != 0)
    throw io_error("not a mem2 index file: " + path);
  if (util::fault_point("index.load"))
    throw corruption_error("injected fault: index.load (" + path + ")");
  if (magic[3] != kMagicV2[3])
    throw io_error("unsupported index format version in: " + path);
  return load_index_v2(in, file_size - 4);
}

}  // namespace mem2::index
