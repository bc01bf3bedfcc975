#pragma once
// In-memory spans for the benchmark's traced run.  The benchmark opens a
// span around each public library call a request makes, so every layer
// is timed from outside the library.  Spans are kept in memory (one
// client thread records them, so there is no locking) and written once,
// as a Chrome trace-event document, when the run ends.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while open
    int parent = -1;           ///< enclosing span, -1 for a request root
    int request = -1;          ///< spans of one request share this id
  };

  Tracer() : epoch_(Clock::now()) {}

  /// Opens a span nested in the innermost open one; returns its id.
  int begin(const char* name, int request) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, now_ns(), -1, parent, request});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the part its direct children cover.
  /// Children of one span run one after another on the recording thread,
  /// so they never overlap and their durations simply add.
  std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    for (const Span& s : spans_)
      if (s.parent >= 0)
        self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    return self;
  }

  /// Empty when every span is closed and nests inside its parent, and the
  /// self times of each request's spans add up to the request's wall
  /// time; otherwise what is wrong.
  std::string check_accounting() const {
    const std::vector<std::int64_t> self = self_ns();
    std::vector<std::int64_t> covered(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < s.start_ns) return std::string(s.name) + " never closed";
      if (s.parent < 0) continue;
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      if (s.request != p.request || s.start_ns < p.start_ns ||
          s.end_ns > p.end_ns)
        return std::string(s.name) + " is not nested in its parent";
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      std::size_t root = i;
      while (spans_[root].parent >= 0)
        root = static_cast<std::size_t>(spans_[root].parent);
      covered[root] += self[i];
    }
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].parent < 0 &&
          covered[i] != spans_[i].end_ns - spans_[i].start_ns)
        return "request " + std::to_string(spans_[i].request) +
               ": self times do not add up to its wall time";
    return {};
  }

  /// Chrome trace-event JSON ("ph":"X" complete events, microseconds),
  /// with `run_info` (a JSON object) alongside the events.
  std::string chrome_json(const std::string& run_info) const {
    std::string out = "{\"run_info\":" + run_info + ",\"traceEvents\":[";
    char buf[320];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"request\":%d}}",
                    i == 0 ? "" : ",\n", s.name, s.start_ns / 1e3,
                    (s.end_ns - s.start_ns) / 1e3, i, s.parent, s.request);
      out += buf;
    }
    return out + "]}\n";
  }

 private:
  using Clock = std::chrono::steady_clock;
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Scoped span.
class Scope {
 public:
  Scope(Tracer& t, const char* name, int request)
      : t_(t), id_(t.begin(name, request)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

}  // namespace perfbench
