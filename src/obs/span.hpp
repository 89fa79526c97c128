// span.hpp — virtual-clock scoped spans.
//
// A campaign is a hierarchy of timed phases — campaign → unit → path →
// probe — and diagnosing episodes like the paper's §6.3 100%-loss
// window means knowing *when in the campaign timeline* each probe ran.
// SpanTracer records that hierarchy keyed to util::SimTime, the shared
// virtual clock every measurement consumes.  Because the clock is a pure
// function of (seed, config), a fixed-seed campaign yields a
// bit-identical span tree on every run: render() output is diffable
// across machines and across code changes, which turns the timeline into
// a regression artifact rather than a debugging one-off.
//
// Concurrency model: one tracer per thread of execution.  Fleet tenants
// each build their own tree (each on its own virtual timeline starting
// at zero) and the scheduler adopt()s them into the fleet root in
// campaign order — deterministic no matter how the OS scheduled the
// workers.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "util/clock.hpp"
#include "util/json.hpp"

namespace upin::obs {

/// One node of the span tree.  `end` of zero means "still open" — the
/// renderer substitutes the subtree's latest child end.
struct Span {
  std::string name;
  util::SimTime start{};
  util::SimTime end{};
  std::vector<std::unique_ptr<Span>> children;
};

/// Owns one span tree and a cursor into it (the open-span stack).
/// Not thread-safe by design: share nothing, merge with adopt().
class SpanTracer {
 public:
  explicit SpanTracer(std::string root_name = "campaign");

  SpanTracer(SpanTracer&&) noexcept = default;
  SpanTracer& operator=(SpanTracer&&) noexcept = default;
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Open a child of the innermost open span, starting at `start`.
  Span& open(std::string name, util::SimTime start);
  /// Close the innermost open span at `end`.  The root never closes via
  /// pop — it absorbs its children's extent at render time.
  void close(util::SimTime end);

  /// Graft `worker`'s whole tree (its root becomes a child) under this
  /// tracer's innermost open span.  Call in a deterministic order.
  void adopt(SpanTracer&& worker);

  [[nodiscard]] const Span& root() const noexcept { return *root_; }
  [[nodiscard]] std::size_t span_count() const noexcept;

  /// Deterministic text rendering, one line per span:
  ///   `<indent><name> [<start_ns>..<end_ns>]`
  /// Diffable across fixed-seed runs (the acceptance invariant).
  [[nodiscard]] std::string render() const;

  /// JSON form {name, start_ns, end_ns, children: [...]}.
  [[nodiscard]] util::Value to_json() const;

 private:
  std::unique_ptr<Span> root_;
  std::vector<Span*> open_stack_;  ///< root at [0], innermost at back
};

/// RAII span: opens on construction at the clock's current virtual time,
/// closes on destruction.  A null tracer makes it a no-op, so
/// instrumented code pays nothing when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer* tracer, const util::VirtualClock& clock,
             std::string name)
      : tracer_(tracer), clock_(&clock) {
    if (tracer_ != nullptr) tracer_->open(std::move(name), clock_->now());
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(clock_->now());
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTracer* tracer_;
  const util::VirtualClock* clock_;
};

}  // namespace upin::obs
