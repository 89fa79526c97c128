// replay.hpp — the traced campaign replay.
//
// Replays TestSuite::run_unit through the engine's public calls, with
// one span around each call into a layer:
//
//   measure.unit
//     docdb.find                     paths of the destination
//     measure.parse_path
//     measure.path_test
//       apps.ping / apps.bwtest      one span per attempt, inside
//                                    measure::run_with_retry (same labels,
//                                    same policy as the suite)
//       simnet.ping / simnet.bwtest  side probes (see below)
//       measure.stats_document
//     docdb.insert_many              the unit's batch
//     scion.checkpoint, measure.checkpoint_encode, docdb.delete,
//     docdb.insert_one               the campaign checkpoint
//     docdb.delete, obs.snapshot, measure.metrics_document,
//     docdb.insert_one               the "latest" metrics snapshot
//
// Side probes time the simnet share of an apps call from outside: after
// a successful attempt, the const Network::ping / Network::bwtest is
// called again on route_of(path) at the attempt's start time, which
// repeats the identical computation without touching any state.  The
// replay checks the repeat returns what the host reported.
//
// Because every input of run_unit (clock, breaker policy, retry labels,
// batch order) is reproduced, the replay writes the same paths_stats
// documents as TestSuite::step; the workloads check that digest.
#pragma once

#include <map>

#include "apps/host.hpp"
#include "docdb/database.hpp"
#include "measure/retry.hpp"
#include "measure/testsuite.hpp"
#include "obs/metrics.hpp"
#include "span_log.hpp"
#include "support.hpp"

namespace perfbench {

struct ReplayStats {
  std::size_t ping_attempts = 0;
  std::size_t bwtest_attempts = 0;
  std::size_t failed_attempts = 0;
  std::size_t units = 0;
  measure::RetryStats retry;
  OpsCount probes;
};

class CampaignReplay {
 public:
  CampaignReplay(apps::ScionHost& host, docdb::Database& db,
                 measure::TestSuiteConfig config, obs::Registry& registry,
                 SpanLog& log);

  /// One (destination, iteration) unit, as TestSuite::run_unit runs it.
  void run_unit(int server_id, int iteration);
  /// The campaign epilogue: the "final" metrics snapshot.
  void finish();

  [[nodiscard]] const ReplayStats& stats() const noexcept { return stats_; }

 private:
  [[nodiscard]] util::Result<apps::PingReport> ping(
      const scion::SnetAddress& dst, const apps::PingOptions& options);
  [[nodiscard]] util::Result<apps::BwtestReport> bwtest(
      const scion::SnetAddress& dst, const apps::BwtestOptions& options);
  void record_metrics_snapshot(const std::string& id, const std::string& stage);
  [[nodiscard]] measure::CircuitBreaker& breaker_for(int server_id);

  apps::ScionHost& host_;
  docdb::Database& db_;
  measure::TestSuiteConfig config_;
  obs::Registry& registry_;
  SpanLog& log_;
  std::map<int, measure::CircuitBreaker> breakers_;
  ReplayStats stats_;
};

}  // namespace perfbench
