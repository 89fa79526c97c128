// Integration: the telemetry determinism contract.
//
// The acceptance invariant for the observability layer: a fixed-seed
// fleet of concurrently scheduled campaigns yields a bit-identical
// virtual-clock span tree and identical counter values on every run.
// Wall-clock metrics (journal flush latency) and gauges are explicitly
// outside the contract, so the comparison covers counters and span
// renders only.  Every registry the comparison reads is owned by the run
// (the fleet's and each tenant's), never the process-wide one.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "measure/schema.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "scion/scionlab.hpp"
#include "support/temp_dir.hpp"

namespace upin::fleet {
namespace {

struct RunArtifacts {
  std::string span_render;
  std::string fleet_counters;
  /// Counters of each tenant's "final" campaign_metrics document, in
  /// campaign order.
  std::vector<std::string> tenant_counters;
};

std::string counters_of(const util::Value& snapshot) {
  const util::Value* counters = snapshot.get("counters");
  return counters != nullptr ? counters->dump() : std::string{};
}

RunArtifacts run_once(const std::string& data_dir) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  obs::SpanTracer tracer("fleet");
  obs::Registry metrics;
  FleetConfig config;
  config.suite.iterations = 2;
  config.threads = 3;
  config.tracer = &tracer;
  config.metrics = &metrics;
  config.data_dir = data_dir;
  // One tenant per destination.  Each tenant gets 3 unit credits (two
  // units and the final step), fewer than the default lane depth of 4,
  // so even the wall-schedule-dependent backpressure counter reads 0.
  std::vector<CampaignSpec> specs;
  for (const int server : {1, 3, 5}) {
    CampaignSpec& spec = specs.emplace_back();
    spec.campaign_id = server;
    spec.server_ids = {server};
  }
  const auto result = FleetScheduler(env, config).run(specs);
  EXPECT_TRUE(result.ok());

  RunArtifacts artifacts;
  artifacts.span_render = tracer.render();
  artifacts.fleet_counters = counters_of(metrics.snapshot());
  if (!result.ok()) return artifacts;
  for (const CampaignStatus& status : result.value().campaigns) {
    const auto shard = docdb::Database::open(status.shard_path);
    EXPECT_TRUE(shard.ok()) << status.shard_path;
    if (!shard.ok()) continue;
    const docdb::Collection* snapshots =
        shard.value()->find_collection(measure::kCampaignMetrics);
    EXPECT_NE(snapshots, nullptr) << status.shard_path;
    if (snapshots == nullptr) continue;
    const auto final_doc = snapshots->find_by_id("final");
    EXPECT_TRUE(final_doc.ok()) << status.shard_path;
    if (!final_doc.ok()) continue;
    const util::Value* registry = final_doc.value().get("metrics");
    artifacts.tenant_counters.push_back(
        registry != nullptr ? counters_of(*registry) : std::string{});
  }
  return artifacts;
}

TEST(TelemetryDeterminism, FixedSeedRunsProduceIdenticalArtifacts) {
  const test_support::TempDir dir("telemetry_");
  const RunArtifacts first = run_once(dir.file("first"));
  const RunArtifacts second = run_once(dir.file("second"));

  // The span tree actually recorded the campaign hierarchy...
  EXPECT_NE(first.span_render.find("campaign 1"), std::string::npos);
  EXPECT_NE(first.span_render.find("unit s5"), std::string::npos);
  EXPECT_NE(first.span_render.find("ping"), std::string::npos);
  EXPECT_NE(first.fleet_counters.find("upin_fleet_units_total"),
            std::string::npos);
  ASSERT_EQ(first.tenant_counters.size(), 3u);
  for (const std::string& counters : first.tenant_counters) {
    EXPECT_NE(counters.find("upin_measure_pings_total"), std::string::npos);
  }

  // ...and every artifact is bit-identical across runs.
  EXPECT_EQ(first.span_render, second.span_render);
  EXPECT_EQ(first.fleet_counters, second.fleet_counters);
  EXPECT_EQ(first.tenant_counters, second.tenant_counters);
}

}  // namespace
}  // namespace upin::fleet
