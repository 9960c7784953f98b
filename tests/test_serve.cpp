// Multi-stream alignment service (serve/align_service.h): N concurrent
// sessions over one shared index and worker pool must each produce output
// byte-identical to their solo run for any stream count, interleaving,
// worker count and queue depth; admission control must fail fast with
// kResourceExhausted instead of blocking; a mid-flight failure in one
// stream must leave every sibling complete and correct; and per-stream
// counters/metrics must not bleed across sessions sharing a worker thread.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <type_traits>

#include "align/aligner.h"
#include "io/fastq.h"
#include "seq/genome_sim.h"
#include "seq/read_sim.h"
#include "serve/align_service.h"
#include "util/fault_injector.h"

namespace mem2::serve {
namespace {

struct ServeFixture {
  index::Mem2Index index;
  // Four distinct SE read sets (stream s uses set s % 4) + one paired set.
  std::vector<std::vector<seq::Read>> sets;
  std::vector<seq::Read> pairs;

  ServeFixture() {
    seq::GenomeConfig g;
    g.seed = 20260807;
    g.contig_lengths = {60000, 30000};
    g.repeat_fraction = 0.2;
    index = index::Mem2Index::build(seq::simulate_genome(g));

    for (unsigned s = 0; s < 4; ++s) {
      seq::ReadSimConfig r;
      r.seed = 400 + s;
      r.num_reads = 120;
      r.read_length = 101;
      r.name_prefix = "set" + std::to_string(s) + "_";
      sets.push_back(seq::simulate_reads(index.ref(), r));
    }
    seq::PairSimConfig p;
    p.seed = 500;
    p.num_pairs = 80;
    p.read_length = 101;
    p.insert_mean = 350;
    p.insert_std = 40;
    pairs = seq::simulate_pairs(index.ref(), p);
  }
};

const ServeFixture& fx() {
  static ServeFixture f;
  return f;
}

align::DriverOptions stream_options(bool paired = false, int batch = 32,
                                    int queue_depth = 4) {
  align::DriverOptions opt;
  opt.mode = align::Mode::kBatch;
  opt.paired = paired;
  opt.batch_size = batch;
  opt.queue_depth = queue_depth;
  opt.threads = 1;
  return opt;
}

/// Reference output: the same session run solo through the Stream API.
std::string solo_sam(const std::vector<seq::Read>& reads,
                     const align::DriverOptions& opt) {
  std::ostringstream os;
  align::OstreamSamSink sink(os);
  const align::Aligner aligner(fx().index, opt);
  EXPECT_TRUE(aligner.ok()) << aligner.status().to_string();
  EXPECT_TRUE(aligner.align(reads, sink).ok());
  return os.str();
}

/// Submit `reads` to `stream` in `chunk`-sized pieces and finish.  A
/// failure may surface at a submit() or only at finish(), depending on
/// when the worker reaches the failing batch; the stream is finished either
/// way, so the service retires it before the caller reads its metrics.
align::Status drive(ServiceStream& stream, const std::vector<seq::Read>& reads,
                    std::size_t chunk) {
  for (std::size_t i = 0; i < reads.size(); i += chunk) {
    const std::size_t end = std::min(reads.size(), i + chunk);
    std::vector<seq::Read> piece(reads.begin() + static_cast<std::ptrdiff_t>(i),
                                 reads.begin() + static_cast<std::ptrdiff_t>(end));
    if (auto st = stream.submit(std::move(piece)); !st.ok()) {
      stream.finish();
      return st;
    }
  }
  return stream.finish();
}

TEST(Serve, ConcurrentStreamsByteIdenticalToSolo) {
  // Stream counts x worker counts x queue depths; stream s gets read set
  // s % 4 and its own ragged chunk size, all driven from concurrent client
  // threads.  Every stream's SAM must match its solo run byte for byte.
  for (int n_streams : {1, 4, 16}) {
    for (int workers : {1, 3}) {
      for (int queue_depth : {1, 3}) {
        const auto opt = stream_options(false, 32, queue_depth);
        std::string expected[4];
        for (std::size_t s = 0; s < 4; ++s)
          expected[s] = solo_sam(fx().sets[s], opt);
        ServeOptions sopt;
        sopt.workers = workers;
        sopt.max_streams = n_streams;
        sopt.max_inflight_batches = n_streams * queue_depth;
        AlignService service(fx().index, sopt);
        ASSERT_TRUE(service.ok());

        std::vector<std::ostringstream> outs(static_cast<std::size_t>(n_streams));
        std::vector<std::unique_ptr<align::OstreamSamSink>> sinks;
        std::vector<ServiceStream> streams;
        for (int s = 0; s < n_streams; ++s) {
          sinks.push_back(std::make_unique<align::OstreamSamSink>(
              outs[static_cast<std::size_t>(s)]));
          streams.push_back(service.open(opt, *sinks.back()));
          ASSERT_TRUE(streams.back().ok()) << streams.back().status().to_string();
        }
        {
          std::vector<std::thread> clients;
          for (int s = 0; s < n_streams; ++s)
            clients.emplace_back([&, s] {
              const auto& reads = fx().sets[static_cast<std::size_t>(s % 4)];
              const std::size_t chunk = 7 + 13 * static_cast<std::size_t>(s);
              EXPECT_TRUE(drive(streams[static_cast<std::size_t>(s)], reads,
                                chunk).ok());
            });
          for (auto& c : clients) c.join();
        }
        for (int s = 0; s < n_streams; ++s)
          EXPECT_EQ(outs[static_cast<std::size_t>(s)].str(),
                    expected[static_cast<std::size_t>(s % 4)])
              << "streams=" << n_streams << " workers=" << workers
              << " queue_depth=" << queue_depth << " stream=" << s;
      }
    }
  }
}

TEST(Serve, MixedPairedAndSingleEndStreams) {
  // A paired session (insert-size calibration, rescue, pair flags) next to
  // SE sessions on the same pool: both must match their solo runs.
  const auto se_opt = stream_options(false);
  const auto pe_opt = stream_options(true);
  ServeOptions sopt;
  sopt.workers = 3;
  AlignService service(fx().index, sopt);

  std::ostringstream se_out, pe_out;
  align::OstreamSamSink se_sink(se_out), pe_sink(pe_out);
  ServiceStream se = service.open(se_opt, se_sink);
  ServiceStream pe = service.open(pe_opt, pe_sink);
  ASSERT_TRUE(se.ok() && pe.ok());

  std::thread t1([&] { EXPECT_TRUE(drive(se, fx().sets[0], 11).ok()); });
  std::thread t2([&] { EXPECT_TRUE(drive(pe, fx().pairs, 20).ok()); });
  t1.join();
  t2.join();

  EXPECT_EQ(se_out.str(), solo_sam(fx().sets[0], se_opt));
  EXPECT_EQ(pe_out.str(), solo_sam(fx().pairs, pe_opt));
  EXPECT_GT(pe.stats().counters.pe_proper_pairs, 0u);
}

TEST(Serve, AdmissionRejectsOverMaxStreams) {
  ServeOptions sopt;
  sopt.workers = 2;
  sopt.max_streams = 2;
  AlignService service(fx().index, sopt);

  align::CollectSamSink s1, s2, s3, s4;
  const auto opt = stream_options();
  ServiceStream a = service.open(opt, s1);
  ServiceStream b = service.open(opt, s2);
  ASSERT_TRUE(a.ok() && b.ok());

  // Third open fails fast — kResourceExhausted, never blocks.
  ServiceStream c = service.open(opt, s3);
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), align::ErrorCode::kResourceExhausted);
  EXPECT_NE(c.status().to_string().find("resource-exhausted"),
            std::string::npos);
  // A rejected handle is inert but safe.
  EXPECT_FALSE(c.submit(fx().sets[0]).ok());
  EXPECT_EQ(c.finish().code(), align::ErrorCode::kResourceExhausted);

  // Capacity frees as soon as a stream finishes.
  EXPECT_TRUE(drive(a, fx().sets[0], 50).ok());
  ServiceStream d = service.open(opt, s4);
  EXPECT_TRUE(d.ok()) << d.status().to_string();
  EXPECT_TRUE(drive(d, fx().sets[1], 50).ok());
  EXPECT_TRUE(b.finish().ok());
  EXPECT_EQ(service.metrics().streams_rejected, 1u);
}

TEST(Serve, AdmissionRejectsOverBatchBudget) {
  ServeOptions sopt;
  sopt.workers = 1;
  sopt.max_streams = 8;
  sopt.max_inflight_batches = 8;
  AlignService service(fx().index, sopt);

  align::CollectSamSink s1, s2;
  ServiceStream a = service.open(stream_options(false, 32, 5), s1);
  ASSERT_TRUE(a.ok());
  ServiceStream b = service.open(stream_options(false, 32, 5), s2);  // 10 > 8
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), align::ErrorCode::kResourceExhausted);
  EXPECT_TRUE(drive(a, fx().sets[0], 40).ok());
}

TEST(Serve, WorkerFaultIsIsolatedToOneStream) {
  // MEM2_FAULT-style injected failure inside batch processing: the injector
  // fires exactly once, so exactly one session dies (sticky kInternal) and
  // every sibling must still complete byte-identical to solo.
  const auto opt = stream_options();
  const std::string expected[4] = {
      solo_sam(fx().sets[0], opt), solo_sam(fx().sets[1], opt),
      solo_sam(fx().sets[2], opt), solo_sam(fx().sets[3], opt)};

  ServeOptions sopt;
  sopt.workers = 2;
  AlignService service(fx().index, sopt);

  std::vector<std::ostringstream> outs(4);
  std::vector<std::unique_ptr<align::OstreamSamSink>> sinks;
  std::vector<ServiceStream> streams;
  for (int s = 0; s < 4; ++s) {
    sinks.push_back(std::make_unique<align::OstreamSamSink>(
        outs[static_cast<std::size_t>(s)]));
    streams.push_back(service.open(opt, *sinks.back()));
    ASSERT_TRUE(streams.back().ok());
  }

  ASSERT_TRUE(util::FaultInjector::instance().arm("align.worker"));
  std::vector<align::Status> results(4);
  {
    std::vector<std::thread> clients;
    for (int s = 0; s < 4; ++s)
      clients.emplace_back([&, s] {
        results[static_cast<std::size_t>(s)] = drive(
            streams[static_cast<std::size_t>(s)],
            fx().sets[static_cast<std::size_t>(s)], 9);
      });
    for (auto& c : clients) c.join();
  }
  util::FaultInjector::instance().disarm();

  int failed = 0;
  for (int s = 0; s < 4; ++s) {
    const auto& st = results[static_cast<std::size_t>(s)];
    if (!st.ok()) {
      ++failed;
      EXPECT_EQ(st.code(), align::ErrorCode::kInternal);
      EXPECT_NE(st.message().find("injected fault"), std::string::npos);
    } else {
      EXPECT_EQ(outs[static_cast<std::size_t>(s)].str(),
                expected[static_cast<std::size_t>(s)])
          << "sibling stream " << s << " corrupted by another stream's fault";
    }
  }
  EXPECT_EQ(failed, 1);
  const auto m = service.metrics();
  EXPECT_EQ(m.streams_failed, 1u);
  EXPECT_EQ(m.streams_completed, 3u);
}

TEST(Serve, PerStreamCountersAreUnpolluted) {
  // Two sessions with different workloads interleaved on ONE pooled worker
  // thread: each session's counters must equal its solo run's exactly.
  // (Process-global TLS counters would attribute one stream's work to the
  // other — the pollution util::CounterCapture exists to prevent.)
  const auto opt = stream_options();
  util::SwCounters solo[2];
  for (int s = 0; s < 2; ++s) {
    align::CollectSamSink sink;
    align::DriverStats stats;
    ASSERT_TRUE(align::Aligner(fx().index, opt)
                    .align(fx().sets[static_cast<std::size_t>(s)], sink, &stats)
                    .ok());
    solo[s] = stats.counters;
  }

  ServeOptions sopt;
  sopt.workers = 1;  // force both sessions through the same thread
  AlignService service(fx().index, sopt);
  align::CollectSamSink s1, s2;
  ServiceStream a = service.open(opt, s1);
  ServiceStream b = service.open(opt, s2);
  std::thread t1([&] { EXPECT_TRUE(drive(a, fx().sets[0], 13).ok()); });
  std::thread t2([&] { EXPECT_TRUE(drive(b, fx().sets[1], 5).ok()); });
  t1.join();
  t2.join();

  EXPECT_EQ(a.stats().counters.summary(), solo[0].summary());
  EXPECT_EQ(b.stats().counters.summary(), solo[1].summary());
}

TEST(Serve, StreamAndServiceMetrics) {
  ServeOptions sopt;
  sopt.workers = 2;
  AlignService service(fx().index, sopt);
  align::CollectSamSink sink;
  const auto opt = stream_options(false, 16, 2);
  ServiceStream stream = service.open(opt, sink);
  ASSERT_TRUE(drive(stream, fx().sets[0], 8).ok());

  const align::StreamMetrics m = stream.metrics();
  const auto n_batches = (fx().sets[0].size() + 15) / 16;
  EXPECT_EQ(m.batches, n_batches);
  EXPECT_EQ(m.records, sink.records().size());
  EXPECT_GE(m.queue_hwm, 1u);
  EXPECT_LE(m.queue_hwm, 2u);  // bounded by queue_depth
  EXPECT_EQ(m.batch_latency.count(), n_batches);
  EXPECT_GE(m.p99(), m.p50());
  EXPECT_GT(m.p50(), 0.0);

  const ServiceMetrics sm = service.metrics();
  EXPECT_EQ(sm.active_streams, 0);
  EXPECT_EQ(sm.peak_streams, 1);
  EXPECT_EQ(sm.streams_opened, 1u);
  EXPECT_EQ(sm.streams_completed, 1u);
  EXPECT_EQ(sm.reads, fx().sets[0].size());
  EXPECT_EQ(sm.merged.records, sink.records().size());
  EXPECT_EQ(sm.merged.batches, n_batches);
  EXPECT_NE(sm.summary().find("completed=1"), std::string::npos);
}

TEST(Serve, IngestSkipStreamBesideStrictSibling) {
  // One client feeds from a damaged FASTQ under the skip policy while a
  // strict sibling runs concurrently; both must match their solo outputs
  // and the skip must be invisible to the sibling.
  namespace fs = std::filesystem;
  const auto path = fs::temp_directory_path() / "mem2_serve_damaged.fq";
  {
    std::ofstream f(path);
    const auto& reads = fx().sets[3];
    for (std::size_t i = 0; i < reads.size(); ++i) {
      if (i == 5) f << "GARBAGE LINE NOT A RECORD\n+\nxx\n";  // mid-file damage
      f << '@' << reads[i].name << '\n' << reads[i].bases << '\n'
        << "+\n" << std::string(reads[i].bases.size(), 'I') << '\n';
    }
  }
  // Solo reference for the skip stream: whatever the skip reader yields.
  std::vector<seq::Read> skipped_reads;
  {
    io::FastqStream in(path.string(), io::FastqPolicy::kSkip);
    std::vector<seq::Read> chunk;
    while (in.next_chunk(chunk, 64) > 0)
      for (auto& r : chunk) skipped_reads.push_back(std::move(r));
  }
  ASSERT_FALSE(skipped_reads.empty());
  const auto opt = stream_options();
  const std::string expected_skip = solo_sam(skipped_reads, opt);
  const std::string expected_strict = solo_sam(fx().sets[0], opt);

  ServeOptions sopt;
  sopt.workers = 2;
  AlignService service(fx().index, sopt);
  std::ostringstream skip_out, strict_out;
  align::OstreamSamSink skip_sink(skip_out), strict_sink(strict_out);
  ServiceStream skip_stream = service.open(opt, skip_sink);
  ServiceStream strict_stream = service.open(opt, strict_sink);

  std::thread t1([&] {
    io::FastqStream in(path.string(), io::FastqPolicy::kSkip);
    std::vector<seq::Read> chunk;
    align::Status st;
    while (in.next_chunk(chunk, 17) > 0) {
      st = skip_stream.submit(std::move(chunk));
      ASSERT_TRUE(st.ok());
      chunk = {};
    }
    EXPECT_GT(in.records_skipped(), 0u);
    EXPECT_TRUE(skip_stream.finish().ok());
  });
  std::thread t2([&] { EXPECT_TRUE(drive(strict_stream, fx().sets[0], 10).ok()); });
  t1.join();
  t2.join();
  fs::remove(path);

  EXPECT_EQ(skip_out.str(), expected_skip);
  EXPECT_EQ(strict_out.str(), expected_strict);
}

TEST(Serve, InvalidOptionsSurfaceAsStatus) {
  ServeOptions bad;
  bad.max_streams = 0;
  EXPECT_FALSE(validate_serve_options(bad).ok());
  AlignService broken(fx().index, bad);
  EXPECT_FALSE(broken.ok());
  align::CollectSamSink sink;
  ServiceStream s = broken.open(stream_options(), sink);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), align::ErrorCode::kInvalidArgument);

  // Per-session options are validated against the shared index at open().
  AlignService service(fx().index, ServeOptions{});
  align::DriverOptions opt = stream_options();
  opt.queue_depth = 0;
  ServiceStream t = service.open(opt, sink);
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), align::ErrorCode::kInvalidArgument);

  // Default-constructed handles are inert.
  ServiceStream empty;
  EXPECT_FALSE(empty.ok());
  EXPECT_FALSE(empty.submit(fx().sets[0]).ok());
}

TEST(Serve, ServiceDestroyedBeforeStreamFinish) {
  // Destroying the service with a stream still open must not hang; the
  // outstanding handle stays safe and reports the shutdown failure.
  align::CollectSamSink sink;
  ServiceStream stream;
  {
    ServeOptions sopt;
    sopt.workers = 2;
    AlignService service(fx().index, sopt);
    stream = service.open(stream_options(), sink);
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE(stream.submit(fx().sets[0]).ok());
  }  // service gone; queued batches drained, session failed
  const align::Status st = stream.finish();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), align::ErrorCode::kInternal);
  EXPECT_NE(st.message().find("destroyed"), std::string::npos);

  // And opening on a moved-from/shut-down service refuses politely.
  ServeOptions sopt;
  AlignService service(fx().index, sopt);
  align::CollectSamSink sink2;
  ServiceStream ok_stream = service.open(stream_options(), sink2);
  EXPECT_TRUE(ok_stream.ok());
  EXPECT_TRUE(ok_stream.finish().ok());
}

TEST(Serve, BothFrontDoorsWriteIdenticalSam) {
  // One handle type, one pool: a session opened by Aligner::open (private
  // pool) and one opened by AlignService::open (shared pool) write the
  // same bytes, SE and PE, at 1 and 4 workers — and match the 1-worker run.
  static_assert(std::is_same_v<ServiceStream, align::Stream>);
  for (const bool paired : {false, true}) {
    const auto& reads = paired ? fx().pairs : fx().sets[1];
    std::string reference;
    for (const int workers : {1, 4}) {
      SCOPED_TRACE(std::string(paired ? "PE" : "SE") +
                   " workers=" + std::to_string(workers));
      align::DriverOptions opt = stream_options(paired, 32);
      opt.threads = workers;
      const std::string solo = solo_sam(reads, opt);
      if (reference.empty()) reference = solo;
      EXPECT_EQ(solo, reference);

      ServeOptions sopt;
      sopt.workers = workers;
      AlignService service(fx().index, sopt);
      ASSERT_TRUE(service.ok());
      std::ostringstream os;
      align::OstreamSamSink sink(os);
      ServiceStream stream = service.open(opt, sink);
      ASSERT_TRUE(stream.ok()) << stream.status().to_string();
      ASSERT_TRUE(drive(stream, reads, 23).ok());
      EXPECT_EQ(os.str(), solo);
    }
  }
}

TEST(Serve, ResourceExhaustedStatusRendering) {
  const auto st = align::Status::resource_exhausted("service at capacity");
  EXPECT_EQ(st.code(), align::ErrorCode::kResourceExhausted);
  EXPECT_EQ(st.to_string(), "[resource-exhausted]: service at capacity");
  EXPECT_STREQ(align::error_code_name(align::ErrorCode::kResourceExhausted),
               "resource-exhausted");
}

}  // namespace
}  // namespace mem2::serve
