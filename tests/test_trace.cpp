// Span tracer and stage clock (util/trace.h): ring wraparound must keep
// the newest window and count the rest in dropped(), per-name aggregates
// must stay exact under wraparound and merge across threads, the Chrome
// trace-event export must be well-formed JSON (parsed here with a strict
// validator) with pid = stream / tid = worker attribution, and — the
// contract the whole feature rides on — enabling tracing must not change
// the SAM output.  The stage clock must book self time into the bound
// table only, so that every driver's DriverStats::stages sums to the
// chunk's wall time at any thread count.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "align/aligner.h"
#include "pair/insert_stats.h"
#include "seq/genome_sim.h"
#include "seq/read_sim.h"
#include "util/timer.h"
#include "util/trace.h"

namespace mem2::util {
namespace {

// Minimal strict JSON validator (RFC 8259 grammar, no semantics): enough
// to prove the exporter never emits a torn document, whatever span names
// or counts land in the ring.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}
  bool valid() {
    ws();
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  bool eof() const { return i_ >= s_.size(); }
  char peek() const { return s_[i_]; }
  bool eat(char c) {
    if (eof() || s_[i_] != c) return false;
    ++i_;
    return true;
  }
  void ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r'))
      ++i_;
  }
  bool lit(const char* t) {
    for (; *t; ++t)
      if (!eat(*t)) return false;
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (!eof()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        if (eof()) return false;
        const char e = s_[i_++];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k)
            if (eof() || !std::isxdigit(static_cast<unsigned char>(s_[i_++])))
              return false;
        } else if (!std::strchr("\"\\/bfnrt", e)) {
          return false;
        }
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = i_;
    if (eat('-')) {
    }
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) return false;
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++i_;
    if (!eof() && peek() == '.') {
      ++i_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        return false;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++i_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++i_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++i_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        return false;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++i_;
    }
    return i_ > start;
  }
  bool object() {
    if (!eat('{')) return false;
    ws();
    if (eat('}')) return true;
    do {
      ws();
      if (!string()) return false;
      ws();
      if (!eat(':')) return false;
      ws();
      if (!value()) return false;
      ws();
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    if (!eat('[')) return false;
    ws();
    if (eat(']')) return true;
    do {
      ws();
      if (!value()) return false;
      ws();
    } while (eat(','));
    return eat(']');
  }
  bool value() {
    if (eof()) return false;
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return lit("true");
      case 'f': return lit("false");
      case 'n': return lit("null");
      default: return number();
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

std::size_t count_occurrences(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++n;
  return n;
}

std::string export_json() {
  std::ostringstream os;
  Tracer::instance().write_chrome_trace(os);
  return os.str();
}

std::uint64_t agg_count(const char* name) {
  for (const auto& a : Tracer::instance().aggregate())
    if (a.name == std::string(name)) return a.count;
  return 0;
}

double agg_seconds(Stage s) {
  for (const auto& a : Tracer::instance().aggregate())
    if (a.name == stage_name(s)) return a.seconds();
  return 0;
}

void spin_for(std::chrono::microseconds d) {
  const auto end = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < end) {
  }
}

TEST(Trace, DisabledRecordsNothing) {
  auto& tracer = Tracer::instance();
  tracer.set_ring_capacity(std::size_t{1} << 10);
  tracer.enable();
  tracer.disable();
  {
    TraceSpan span("should-not-appear");
  }
  trace_instant("nor-this", 0);
  trace_interval("nor-that", 1, 2, 0);
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.aggregate().empty());
}

TEST(Trace, SpansInstantsAndIntervalsRecord) {
  auto& tracer = Tracer::instance();
  tracer.set_ring_capacity(std::size_t{1} << 10);
  tracer.enable();
  {
    TraceStreamScope scope(7);
    TraceSpan span("unit-work");
  }
  trace_instant("unit-mark", 7);
  trace_interval("unit-gap", tsc_now() - 100, tsc_now(), 7);
  tracer.disable();

  EXPECT_EQ(tracer.recorded(), 3u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(agg_count("unit-work"), 1u);
  EXPECT_EQ(agg_count("unit-mark"), 1u);

  const std::string json = export_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"unit-work\""), std::string::npos);
  // All three events belong to stream 7 and its lane is named.
  EXPECT_NE(json.find("\"pid\":7"), std::string::npos);
  EXPECT_NE(json.find("stream 7"), std::string::npos);
  // The instant renders as a Chrome "i" phase, the span as "X".
  EXPECT_GE(count_occurrences(json, "\"ph\":\"i\""), 1u);
  EXPECT_GE(count_occurrences(json, "\"ph\":\"X\""), 1u);
}

TEST(Trace, StreamScopeRestoresOuterId) {
  set_trace_stream_id(3);
  {
    TraceStreamScope inner(9);
    EXPECT_EQ(trace_stream_id(), 9u);
  }
  EXPECT_EQ(trace_stream_id(), 3u);
  set_trace_stream_id(0);
}

TEST(Trace, RingWrapKeepsNewestWindowAndCountsDropped) {
  auto& tracer = Tracer::instance();
  tracer.set_ring_capacity(32);
  tracer.enable();
  for (int i = 0; i < 100; ++i) {
    TraceSpan span("wrap-work");
  }
  tracer.disable();

  EXPECT_EQ(tracer.recorded(), 100u);
  EXPECT_EQ(tracer.dropped(), 100u - 32u);
  // Aggregates are exact despite the wrap.
  EXPECT_EQ(agg_count("wrap-work"), 100u);
  // The export holds exactly one ring's worth of duration events.
  const std::string json = export_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 32u);
}

TEST(Trace, AggregatesMergeAcrossThreadsByName) {
  auto& tracer = Tracer::instance();
  tracer.set_ring_capacity(std::size_t{1} << 10);
  tracer.enable();
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t)
    workers.emplace_back([] {
      for (int i = 0; i < 50; ++i) {
        TraceSpan span("mt-work");
      }
    });
  for (auto& w : workers) w.join();
  tracer.disable();

  EXPECT_EQ(agg_count("mt-work"), 150u);
  EXPECT_EQ(tracer.recorded(), 150u);
  const std::string json = export_json();
  EXPECT_TRUE(JsonValidator(json).valid());
  // Distinct rings give distinct Chrome tid lanes: at least 3 thread_name
  // metadata entries reference a worker.
  EXPECT_GE(count_occurrences(json, "worker "), 3u);
}

TEST(Trace, EscapesHostileSpanNames) {
  auto& tracer = Tracer::instance();
  tracer.set_ring_capacity(std::size_t{1} << 10);
  tracer.enable();
  trace_instant("quote\"back\\slash\ttab", 0);
  tracer.disable();
  const std::string json = export_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
}

// ------------------------------------------------------------ SAM identity

TEST(Trace, SamByteIdenticalWithTracingOnAndOff) {
  seq::GenomeConfig g;
  g.seed = 20260807;
  g.contig_lengths = {60000};
  g.repeat_fraction = 0.2;
  const auto index = index::Mem2Index::build(seq::simulate_genome(g));
  seq::ReadSimConfig r;
  r.seed = 17;
  r.num_reads = 120;
  r.read_length = 101;
  const auto reads = seq::simulate_reads(index.ref(), r);

  auto& tracer = Tracer::instance();
  tracer.set_ring_capacity(std::size_t{1} << 12);
  for (int threads : {1, 4}) {
    align::DriverOptions opt;
    opt.mode = align::Mode::kBatch;
    opt.threads = threads;
    opt.batch_size = 32;

    tracer.disable();
    const auto off = align::align_reads(index, reads, opt);
    tracer.enable();
    const auto on = align::align_reads(index, reads, opt);
    tracer.disable();

    ASSERT_EQ(off.size(), on.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < off.size(); ++i)
      ASSERT_EQ(off[i].to_line(), on[i].to_line())
          << "threads=" << threads << " record=" << i;
    // The traced run actually hit the pipeline instrumentation.
    EXPECT_GT(agg_count("smem"), 0u) << "threads=" << threads;
    EXPECT_GT(tracer.recorded(), 0u);
    const std::string json = export_json();
    EXPECT_TRUE(JsonValidator(json).valid());
  }
}

// ------------------------------------------------------------ stage clock

TEST(StageClock, StageTimesAccumulateAndTotal) {
  StageTimes t;
  t[Stage::kSmem] = 1.0;
  t[Stage::kBsw] = 2.5;
  StageTimes u;
  u[Stage::kSmem] = 0.5;
  t += u;
  EXPECT_DOUBLE_EQ(t[Stage::kSmem], 1.5);
  EXPECT_DOUBLE_EQ(t.total(), 4.0);
  // One name table: trace events and mem2_stage_seconds labels.
  EXPECT_EQ(stage_name(Stage::kSal), "sal");
  EXPECT_EQ(stage_name(Stage::kBswPre), "bsw-pre");
  EXPECT_EQ(stage_name(Stage::kSamForm), "sam");
  EXPECT_EQ(stage_name(Stage::kMisc), "misc");
}

TEST(StageClock, BooksSelfTimeIntoTheBoundTableOnly) {
  auto& tracer = Tracer::instance();
  tracer.set_ring_capacity(std::size_t{1} << 10);
  tracer.enable();
  StageTimes table;
  {
    StageSpan root(Stage::kMisc, &table);
    spin_for(std::chrono::microseconds(500));
    {
      StageSpan pre(Stage::kBswPre);
      spin_for(std::chrono::microseconds(500));
      for (int i = 0; i < 3; ++i) {
        StageSpan bsw(Stage::kBsw);
        spin_for(std::chrono::microseconds(300));
      }
    }
    // A thread that bound no table only traces.
    std::thread([] {
      StageSpan other(Stage::kSmem);
      spin_for(std::chrono::microseconds(200));
    }).join();
  }
  {
    StageSpan after(Stage::kSal);  // the binding ended with the root
  }
  tracer.disable();

  EXPECT_EQ(table[Stage::kSmem], 0.0);
  EXPECT_EQ(table[Stage::kSal], 0.0);
  EXPECT_GT(agg_seconds(Stage::kSmem), 0.0);
  EXPECT_EQ(agg_count("sal"), 1u);
  EXPECT_GE(table[Stage::kBsw], 900e-6);
  // Self time: the same TSC stamps feed both views, so the table is the
  // trace's durations minus the nested stage spans'.
  const double eps = 1e-9;
  EXPECT_NEAR(table[Stage::kBsw], agg_seconds(Stage::kBsw), eps);
  EXPECT_NEAR(table[Stage::kBswPre],
              agg_seconds(Stage::kBswPre) - agg_seconds(Stage::kBsw), eps);
  EXPECT_GE(table[Stage::kBswPre], 500e-6);
  EXPECT_NEAR(table.total(), agg_seconds(Stage::kMisc), eps);
  EXPECT_GE(table[Stage::kMisc], 700e-6);  // 500 us spin + the 200 us thread
}

// Driver stage accounting: align_chunk runs on the calling thread and
// DriverStats::stages is that thread's wall seconds, so it sums to the
// externally timed call, in both drivers and in paired mode.
struct DriverFixture {
  index::Mem2Index index;
  std::vector<seq::Read> se, pe;
  pair::InsertStats pe_stats;

  DriverFixture() {
    seq::GenomeConfig g;
    g.seed = 20261017;
    g.contig_lengths = {120000};
    g.repeat_fraction = 0.2;
    index = index::Mem2Index::build(seq::simulate_genome(g));
    seq::ReadSimConfig r;
    r.seed = 5;
    r.num_reads = 600;
    r.read_length = 101;
    se = seq::simulate_reads(index.ref(), r);
    seq::PairSimConfig p;
    p.seed = 9;
    p.num_pairs = 300;
    p.damage_fraction = 0.1;  // keep mate rescue busy
    pe = seq::simulate_pairs(index.ref(), p);
    // An FR prior around the simulated insert size (400 +/- 40).
    std::vector<pair::InsertSample> samples;
    for (int i = 0; i < 200; ++i) samples.push_back({1, 340 + (i * 7) % 121});
    pe_stats = pair::estimate_insert_stats(samples, {});
  }
};

const DriverFixture& driver_fx() {
  static const DriverFixture f;
  return f;
}

enum class Driver { kSingle, kPaired, kBaseline };

align::DriverStats timed_chunk(Driver driver, double* wall) {
  const DriverFixture& fx = driver_fx();
  align::DriverOptions opt;
  opt.batch_size = 128;
  opt.mode = driver == Driver::kBaseline ? align::Mode::kBaseline : align::Mode::kBatch;
  opt.paired = driver == Driver::kPaired;
  const std::vector<seq::Read>& reads = opt.paired ? fx.pe : fx.se;
  align::BatchWorkspace ws;
  std::vector<std::vector<io::SamRecord>> per_read;
  align::DriverStats stats;
  Timer t;
  align::align_chunk(fx.index, reads, opt, opt.paired ? &fx.pe_stats : nullptr, ws,
                     per_read, &stats);
  *wall = t.seconds();
  return stats;
}

class StageAccounting : public ::testing::TestWithParam<Driver> {};

TEST_P(StageAccounting, StagesSumToChunkWallAndEveryRunStageIsTimed) {
  const Driver driver = GetParam();
  Tracer::instance().disable();
  double wall = 0;
  const align::DriverStats stats = timed_chunk(driver, &wall);
  const StageTimes& st = stats.stages;
  EXPECT_NEAR(st.total(), wall, 0.02 * wall);

  std::vector<Stage> ran = {Stage::kSmem, Stage::kSal,     Stage::kChain,
                            Stage::kBswPre, Stage::kBsw, Stage::kSamForm,
                            Stage::kMisc};
  if (driver == Driver::kPaired) ran.push_back(Stage::kPair);
  for (Stage s : ran) EXPECT_GT(st[s], 0.0) << stage_name(s);
  if (driver != Driver::kPaired) {
    EXPECT_EQ(st[Stage::kPair], 0.0);
  }
}

std::string accounting_case_name(const ::testing::TestParamInfo<Driver>& info) {
  const char* names[] = {"single", "paired", "baseline"};
  return std::string(names[static_cast<int>(info.param)]) + "_1t";
}

INSTANTIATE_TEST_SUITE_P(
    DriversAndThreads, StageAccounting,
    ::testing::Values(Driver::kSingle, Driver::kPaired, Driver::kBaseline),
    accounting_case_name);

TEST(StageAccounting, BatchBswStageEqualsTheTracedBswSpan) {
  auto& tracer = Tracer::instance();
  tracer.set_ring_capacity(std::size_t{1} << 12);
  for (Driver driver : {Driver::kSingle, Driver::kPaired}) {
    tracer.enable();
    double wall = 0;
    const align::DriverStats stats = timed_chunk(driver, &wall);
    tracer.disable();
    const double traced = agg_seconds(Stage::kBsw);
    EXPECT_GT(traced, 0.0);
    EXPECT_NEAR(stats.stages[Stage::kBsw], traced, 0.01 * traced);
  }
}

TEST(StageAccounting, BaselineBswPreExcludesNestedBsw) {
  auto& tracer = Tracer::instance();
  tracer.set_ring_capacity(std::size_t{1} << 12);
  tracer.enable();
  double wall = 0;
  const align::DriverStats stats = timed_chunk(Driver::kBaseline, &wall);
  tracer.disable();
  // Per read, the scalar ksw calls are BSW spans nested in the BSW-PRE
  // span; the table keeps BSW-PRE's self time.
  const double pre_traced = agg_seconds(Stage::kBswPre);
  const double bsw_traced = agg_seconds(Stage::kBsw);
  ASSERT_GT(bsw_traced, 0.0);
  EXPECT_LT(stats.stages[Stage::kBswPre], pre_traced);
  EXPECT_NEAR(stats.stages[Stage::kBswPre], pre_traced - bsw_traced, 0.01 * pre_traced);
  EXPECT_NEAR(stats.stages[Stage::kBsw], bsw_traced, 0.01 * bsw_traced);
}

}  // namespace
}  // namespace mem2::util
