// workloads.hpp — the benchmark's three workloads.
//
//   survey-mem      the paper's §6 campaign on an in-memory database,
//                   stepped unit by unit, with a closed-loop Path
//                   Controller client after every committed unit;
//   survey-durable  the same campaign journaled to disk through the
//                   timing VFS (group commit, one fsync per group), with
//                   the controller's requests sent after the campaign;
//   fleet-chaos     64 tenant campaigns through the fleet scheduler,
//                   chaos injected into four of them.
//
// Untraced runs (trace = false) report the end-to-end metrics; traced
// runs report the per-layer metrics from the span replay.
#pragma once

#include <cstdint>
#include <string>

#include "span_log.hpp"
#include "support.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< journals and span files; created if missing
};

struct WorkloadResult {
  Metrics metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

[[nodiscard]] WorkloadResult run_survey(const Options& options, bool durable);
[[nodiscard]] WorkloadResult run_fleet(const Options& options);

/// Per-layer metrics every workload prints in a traced run, zero where
/// the workload does not exercise the layer.
[[nodiscard]] Metrics zero_per_layer_metrics();
/// Write a run's spans to <workdir>/spans-<workload>-seed<N>.csv.
void write_spans(const SpanLog& log, const Options& options);

}  // namespace perfbench
