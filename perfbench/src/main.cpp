// perfbench — the repository's benchmark tool (driven by perfbench/run.py).
//
//   perfbench index --dir <dir> --workload <name>
//       Build and save the workload genome's index unless <dir> has it
//       (never part of a measured run).
//   perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --index-dir <dir> [--trace-out <file>]
//       --trace 0: timed run, end-to-end metrics.  --trace 1: traced
//       single-threaded replay, per-layer metrics, spans to --trace-out.
//
// The run record and a metric table go to stderr; the last stdout line is
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Exit status: 0 ok, 1 an output gate failed (correct=false), 2 usage or
// set-up error (no result line).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "bench.h"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench index --dir <dir> --workload <name>\n"
               "       perfbench run --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --index-dir <dir> [--trace-out <file>]\n");
  return 2;
}

void print_record(const RunOptions& o, bool trace, const RunResult& r) {
  const HostInfo h = host_info();
  std::fprintf(stderr,
               "[perfbench] run record: workload=%s trace=%d seed=%llu nproc=%d "
               "l3_bytes=%lld isa=%s genome_bp=%lld\n",
               o.workload->name, trace ? 1 : 0, static_cast<unsigned long long>(o.seed),
               h.nproc, static_cast<long long>(h.l3_bytes), h.isa.c_str(),
               static_cast<long long>(o.workload->genome_len));
  r.record.print(stderr, "[perfbench] record:");
  r.metrics.print(stderr, trace ? "[perfbench] per-layer metrics:" : "[perfbench] end-to-end metrics:");
  for (const auto& e : r.errors) std::fprintf(stderr, "[perfbench] GATE FAILED: %s\n", e.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  const auto get = [&](const char* k) { return args.count(k) ? args[k] : std::string(); };

  try {
    if (cmd == "index") {
      const Workload* w = find_workload(get("workload"));
      if (get("dir").empty() || !w) return usage();
      std::filesystem::create_directories(get("dir"));
      const std::string path = index_path(get("dir"), w->genome_len);
      if (!std::filesystem::exists(path)) {
        std::fprintf(stderr, "[perfbench] building the %lld bp benchmark index...\n",
                     static_cast<long long>(w->genome_len));
        build_index(w->genome_len, path);
      }
      return 0;
    }
    if (cmd != "run") return usage();
    RunOptions o;
    o.workload = find_workload(get("workload"));
    if (!o.workload) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", get("workload").c_str());
      return 2;
    }
    if (get("seed").empty() || get("seconds").empty() || get("index-dir").empty())
      return usage();
    o.seed = std::stoull(get("seed"));
    o.seconds = std::stod(get("seconds"));
    o.index_dir = get("index-dir");
    o.trace_out = get("trace-out");
    const bool trace = get("trace") == "1";

    const RunResult r = trace ? run_traced(o) : run_timed(o);
    print_record(o, trace, r);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), r.metrics.json_body().c_str());
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
