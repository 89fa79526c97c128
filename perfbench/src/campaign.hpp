// campaign.hpp — one campaign run two ways: stepped through
// TestSuite::step() with wall-clock timing per unit (untraced), or
// replayed through CampaignReplay with spans (traced).  Both send the
// same seeded controller requests at the same points.
#pragma once

#include <string>
#include <vector>

#include "controller.hpp"
#include "replay.hpp"
#include "support.hpp"

namespace perfbench {

/// When the campaign's Path Controller client sends its requests.
enum class ControllerMode {
  kNone,
  kInterleaved,    ///< kRequestsPerUnit after every committed unit
  kAfterCampaign,  ///< the same number of requests, once the campaign ends
};

struct CampaignPlan {
  std::vector<int> servers;  ///< ascending: the suite's order within an iteration
  int iterations = 1;
  ControllerMode controller = ControllerMode::kNone;
};

struct CampaignOutcome {
  std::vector<double> unit_ms;      ///< wall time of every step() that ran a unit
  std::vector<double> unit_cpu_ms;  ///< process CPU inside the same calls
  double loop_wall_s = 0.0;     ///< units plus controller requests
  std::size_t path_tests = 0;
  ControllerStats controller;
  OpsCount probes;
  std::string digest;
};

/// Drive `rig`'s begun suite to completion through step() and finish().
/// Checks that every path test run was stored.
[[nodiscard]] CampaignOutcome run_stepped(Rig& rig, const CampaignPlan& plan,
                                          std::uint64_t request_seed);

struct ReplayOutcome {
  double loop_wall_s = 0.0;  ///< units plus controller requests, side probes included
  ReplayStats stats;
  ControllerStats controller;
  std::string digest;
};

/// Replay the campaign `rig`'s suite would run (the suite has begun; its
/// step() is not called) with spans into `log`.  `config` must be the
/// configuration the suite was built with.
[[nodiscard]] ReplayOutcome run_replayed(Rig& rig, const CampaignPlan& plan,
                                         measure::TestSuiteConfig config,
                                         std::uint64_t request_seed,
                                         SpanLog& log);

/// Per-layer figures summed over the campaigns replayed in one traced
/// repetition.
struct ReplayTotals {
  ReplayStats stats;
  ControllerStats requests;
  double begin_s = 0.0;
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;  ///< the same campaigns, untraced
  double cache_entries = 0.0;
  double cache_served = 0.0;
  double cache_misses = 0.0;
  double checkpoint_bytes = 0.0;

  /// Add one campaign replayed on `rig`.
  void add(const Rig& rig, const ReplayOutcome& replay);
  /// Set the per-layer metrics the replays give: span self times,
  /// coverage, tracing overhead, begin, retries, cache, checkpoint and
  /// controller figures, and ops_failed_ratio over `probes` plus the
  /// controller's requests.
  void report(const SpanLog& log, OpsCount probes, Metrics& metrics) const;
};

}  // namespace perfbench
