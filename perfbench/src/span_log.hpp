// span_log.hpp — wall-clock spans recorded by the benchmark around its
// calls into the engine's layers.
//
// One span per call: id, parent (unit -> path test -> probe), name,
// start and end.  Spans stay in memory and are written out once, at the
// end of the run.  A *side* span marks work the benchmark adds for
// attribution only (re-running a simnet probe to time it); it is kept
// out of the replay's timed wall and out of the layer coverage.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::uint32_t parent = 0;  ///< 1-based index of the parent; 0 = none
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    bool side = false;
  };

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(SpanLog& log, std::size_t index) : log_(log), index_(index) {}
    ~Scope() { log_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_;
  };

  /// Self and total time of every span with one name.
  struct Totals {
    double self_ms = 0.0;
    double total_ms = 0.0;
    std::size_t count = 0;
    std::vector<double> durations_us;
  };

  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  /// Open a child of the innermost open span.  `name` must outlive the log.
  [[nodiscard]] Scope open(const char* name, bool side = false) {
    Span span;
    span.parent = stack_.empty() ? 0 : static_cast<std::uint32_t>(stack_.back() + 1);
    span.name = name;
    span.side = side;
    span.start_ns = now_ns();
    spans_.push_back(span);
    stack_.push_back(spans_.size() - 1);
    return Scope(*this, spans_.size() - 1);
  }

  /// Per-name totals.  A span's self time is its duration minus the time
  /// its children cover.
  [[nodiscard]] std::map<std::string, Totals> totals() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent != 0) child_ns[span.parent - 1] += span.end_ns - span.start_ns;
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
      Totals& totals = out[spans_[i].name];
      totals.self_ms += static_cast<double>(duration - child_ns[i]) * 1e-6;
      totals.total_ms += static_cast<double>(duration) * 1e-6;
      ++totals.count;
      totals.durations_us.push_back(static_cast<double>(duration) * 1e-3);
    }
    return out;
  }

  /// Summed duration of side spans, in seconds.
  [[nodiscard]] double side_seconds() const {
    std::int64_t ns = 0;
    for (const Span& span : spans_) {
      if (span.side) ns += span.end_ns - span.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }

  /// Summed duration of leaf spans that are not side spans, in seconds:
  /// the time the layer calls themselves took.
  [[nodiscard]] double leaf_seconds() const {
    std::vector<bool> has_child(spans_.size(), false);
    for (const Span& span : spans_) {
      if (span.parent != 0) has_child[span.parent - 1] = true;
    }
    std::int64_t ns = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (!has_child[i] && !spans_[i].side) {
        ns += spans_[i].end_ns - spans_[i].start_ns;
      }
    }
    return static_cast<double>(ns) * 1e-9;
  }

  /// CSV, one span per line: id,parent,name,start_ns,end_ns,side.
  [[nodiscard]] bool write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "id,parent,name,start_ns,end_ns,side\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << i + 1 << ',' << span.parent << ',' << span.name << ','
          << span.start_ns << ',' << span.end_ns << ',' << (span.side ? 1 : 0)
          << '\n';
    }
    return out.good();
  }

 private:
  void close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

}  // namespace perfbench
