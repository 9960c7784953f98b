// In-memory span recording for the traced (per-layer) run.
//
// One span per layer call the replay makes: name, start, end and the span
// that was open when it began (its parent).  Spans stay in memory until the
// run ends and are then written as Chrome trace-event JSON.  The recorder
// is single-threaded, like the replay it times.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  // -1 while open
  int parent = -1;
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  int open(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{std::move(name), now_ns(), -1, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  /// Closes span `id`, which must be the innermost open span.
  double close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
    return seconds(id);
  }
  double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end_ns < 0 ? 0.0 : 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Times f() as one span and returns its seconds.
  template <class F>
  double time(std::string name, F&& f) {
    const int id = open(std::move(name));
    f();
    return close(id);
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void write_chrome_json(std::ostream& out) const {
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::int64_t end = s.end_ns < 0 ? s.start_ns : s.end_ns;
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << static_cast<double>(s.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(end - s.start_ns) / 1e3
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
