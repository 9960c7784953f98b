// SAM output plumbing for the benchmark.
//
// HashingBuf is a std::streambuf that xxHash64es every byte written, so an
// OstreamSamSink over it checks a whole pass's SAM text byte for byte
// without keeping it (it can optionally keep a copy, for the pass that
// scores accuracy).  ChunkClockSink wraps that OstreamSamSink and stamps
// the moment each submitted chunk is complete — when the sink has received
// the primary record of every read (or mate) in the chunk.  cycled_digest()
// predicts the digest of a session fed the same reads over and over.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "align/sam_sink.h"
#include "util/checksum.h"
#include "util/clock.h"

namespace perfbench {

class HashingBuf final : public std::streambuf {
 public:
  explicit HashingBuf(std::string* capture = nullptr) : capture_(capture) {}

  std::uint64_t digest() const { return hash_.digest(); }
  std::uint64_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const auto len = static_cast<std::size_t>(n);
    hash_.update(s, len);
    bytes_ += len;
    if (capture_) capture_->append(s, len);
    return n;
  }
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return traits_type::not_eof(ch);
    const char c = traits_type::to_char_type(ch);
    xsputn(&c, 1);
    return ch;
  }

 private:
  mem2::util::Xxh64Stream hash_;
  std::uint64_t bytes_ = 0;
  std::string* capture_;
};

/// An ostream over a HashingBuf.
class HashingStream final : public std::ostream {
 public:
  explicit HashingStream(std::string* capture = nullptr)
      : std::ostream(nullptr), buf_(capture) {
    rdbuf(&buf_);
  }
  std::uint64_t digest() const { return buf_.digest(); }
  std::uint64_t bytes() const { return buf_.bytes(); }

 private:
  HashingBuf buf_;
};

inline bool is_primary(const mem2::io::SamRecord& rec) {
  return !(rec.flag & (mem2::io::kFlagSecondary | mem2::io::kFlagSupplementary));
}

/// Forwards to an OstreamSamSink over `out` and records chunk completion.
/// Chunk c holds reads [c*chunk_reads, (c+1)*chunk_reads); it completes
/// when that many primary records have been written.  The session's ordered
/// writer calls the sink under one lock, and the producer reads the stamps
/// only after finish() has joined the writer, so no further locking is
/// needed.
class ChunkClockSink final : public mem2::align::SamSink {
 public:
  using time_point = mem2::util::Clock::time_point;

  ChunkClockSink(HashingStream& out, std::uint64_t chunk_reads,
                 mem2::util::Clock& clock = mem2::util::Clock::real())
      : out_(out), inner_(out), chunk_reads_(chunk_reads), clock_(clock) {}

  void write_header(const std::string& header) override {
    inner_.write_header(header);
    header_bytes_ = out_.bytes();
  }
  void write_record(const mem2::io::SamRecord& record) override {
    inner_.write_record(record);
    advance(is_primary(record) ? 1 : 0);
  }
  void write_records(std::vector<mem2::io::SamRecord>&& records) override {
    pending_ = 0;
    for (const auto& rec : records) pending_ += is_primary(rec);
    inner_.write_records(std::move(records));
    advance(pending_);
  }
  void flush() override { inner_.flush(); }
  bool can_retry_writes() const override { return inner_.can_retry_writes(); }
  void retry_write() override {
    inner_.retry_write();
    advance(pending_);
  }

  /// Completion time of each finished chunk, in chunk order.
  const std::vector<time_point>& done() const { return done_; }
  std::uint64_t header_bytes() const { return header_bytes_; }
  std::uint64_t reads_done() const { return reads_done_; }

 private:
  void advance(std::uint64_t primaries) {
    reads_done_ += primaries;
    while (reads_done_ >= (done_.size() + 1) * chunk_reads_) done_.push_back(clock_.now());
  }

  HashingStream& out_;
  mem2::align::OstreamSamSink inner_;
  std::uint64_t chunk_reads_;
  mem2::util::Clock& clock_;
  std::uint64_t pending_ = 0;
  std::uint64_t reads_done_ = 0;
  std::uint64_t header_bytes_ = 0;
  std::vector<time_point> done_;
};

/// Byte offsets in SAM body text where each chunk of `chunk_reads` reads
/// ends (a read's records follow its primary record).  The last entry is
/// the body's size.
inline std::vector<std::size_t> chunk_ends(std::string_view body, std::uint64_t chunk_reads) {
  std::vector<std::size_t> ends;
  std::uint64_t primaries = 0;
  for (std::size_t pos = 0; pos < body.size();) {
    std::size_t eol = body.find('\n', pos);
    eol = eol == std::string_view::npos ? body.size() : eol + 1;
    // FLAG is the second tab-separated field.
    const std::size_t tab = body.find('\t', pos);
    const int flag = std::atoi(body.data() + tab + 1);
    if (!(flag & (mem2::io::kFlagSecondary | mem2::io::kFlagSupplementary))) {
      if (primaries && primaries % chunk_reads == 0) ends.push_back(pos);
      ++primaries;
    }
    pos = eol;
  }
  ends.push_back(body.size());
  return ends;
}

/// Digest of `header` followed by `n_chunks` chunks of a body text that is
/// submitted cyclically (chunk c of the stream is chunk c % C of the body).
inline std::uint64_t cycled_digest(std::string_view header, std::string_view body,
                                   const std::vector<std::size_t>& ends,
                                   std::uint64_t n_chunks) {
  mem2::util::Xxh64Stream h;
  h.update(header.data(), header.size());
  for (std::uint64_t k = 0; k < n_chunks; ++k) {
    const std::size_t c = k % ends.size();
    const std::size_t beg = c ? ends[c - 1] : 0;
    h.update(body.data() + beg, ends[c] - beg);
  }
  return h.digest();
}

}  // namespace perfbench
