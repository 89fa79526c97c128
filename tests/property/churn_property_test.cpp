// Control-plane churn properties (the lifetimes tentpole's pin):
//
//   1. No probe is ever sent on a path whose revocation was delivered —
//      under a deterministic flap storm, every probed path was live at
//      probe start.
//   2. When a pinned path is revoked, the Path Controller fails over to
//      a policy-conformant live alternative instead of surfacing the
//      error.
//   3. Kill-then-resume under the same storm is bit-identical: same
//      paths_stats documents AND the same final path-cache state — for
//      a kill after the second batch, and for a kill at every unit
//      boundary of a stepped campaign.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>

#include "docdb/database.hpp"
#include "measure/testsuite.hpp"
#include "scion/scionlab.hpp"
#include "select/selector.hpp"
#include "upin/controller.hpp"
#include "support/temp_dir.hpp"

namespace upin {
namespace {

using util::SimTime;

simnet::NetworkConfig storm_config() {
  simnet::FaultPlanConfig faults;
  faults.link_flap_per_hour = 6.0;
  faults.server_down_per_hour = 2.0;
  simnet::NetworkConfig config;
  config.server_error_prob = 0.0;
  config.faults = faults;
  return config;
}

TEST(ControlPlaneChurn, NoProbeOnAnAlreadyRevokedPath) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  apps::ScionHost host(env, 42, env.user_as, "10.0.8.1", storm_config());
  scion::ControlPlane& control_plane = host.control_plane();
  ASSERT_FALSE(control_plane.revocations().events().empty())
      << "the storm must emit revocations or the property is vacuous";

  std::size_t probes = 0;
  std::size_t revoked_rejections = 0;
  for (int step = 0; step < 240; ++step) {
    // Rotate destinations so several (src, dst) pairs churn in the cache.
    const scion::SnetAddress& dst = env.servers[(step % 3 == 0)   ? 2
                                                : (step % 3 == 1) ? 4
                                                                  : 9];
    const SimTime before = host.clock().now();
    apps::PingOptions options;
    options.count = 5;
    const util::Result<apps::PingReport> report = host.ping(dst, options);
    if (report.ok()) {
      ++probes;
      // THE invariant: the path that carried this probe had no delivered,
      // unexpired revocation when the probe was dispatched.
      EXPECT_FALSE(control_plane.path_revoked(report.value().path, before))
          << "step " << step << ": probed a revoked path "
          << report.value().path.to_string();
    } else if (report.error().code == util::ErrorCode::kRevoked) {
      ++revoked_rejections;
    }
    host.clock().advance(util::sim_seconds(30.0));
  }
  EXPECT_GT(probes, 0u);
  EXPECT_GT(revoked_rejections + probes, 200u)
      << "revocations must not wedge the host into permanent failure";
}

TEST(ControlPlaneChurn, FailoverPicksPolicyConformantAlternative) {
  const scion::ScionlabEnv env = scion::scionlab_topology();

  // Measure on a calm network so the selector has clean samples...
  docdb::Database db;
  {
    simnet::NetworkConfig calm;
    calm.server_error_prob = 0.0;
    apps::ScionHost calm_host(env, 42, env.user_as, "10.0.8.1", calm);
    measure::TestSuiteConfig config;
    config.iterations = 3;
    config.server_ids = {{3}};
    measure::TestSuite suite(calm_host, db, config);
    ASSERT_TRUE(suite.run().ok());
  }

  // ...then drive intents on a host living inside the flap storm.  Flaps
  // only (no server-down): a probe on a flapped-but-unrevoked path loses
  // packets yet completes, so the only hard failure left is kRevoked.
  simnet::NetworkConfig net = storm_config();
  net.faults.server_down_per_hour = 0.0;
  apps::ScionHost host(env, 42, env.user_as, "10.0.8.1", net);
  scion::ControlPlane& control_plane = host.control_plane();

  select::PathSelector selector(db, env.topology);
  selector.attach_liveness(&control_plane, &host.clock());
  upinfw::PathController controller(host, selector);

  select::UserRequest request;
  request.server_id = 3;
  request.objective = select::Objective::kLowestLatency;
  const auto applied = controller.apply(request);
  ASSERT_TRUE(applied.ok());
  const std::string pinned_id = applied.value().chosen.summary.path_id;
  const auto pinned =
      scion::Path::parse_sequence(applied.value().chosen.summary.sequence);
  ASSERT_TRUE(pinned.ok());

  // Advance to an instant where the pinned path is revoked but at least
  // one other discovered path to the destination is live.
  const auto selection = selector.select(request);
  ASSERT_TRUE(selection.ok());
  bool found = false;
  for (int step = 0; step < 24 * 3600 / 5 && !found; ++step) {
    host.clock().advance(util::sim_seconds(5.0));
    const SimTime now = host.clock().now();
    if (!control_plane.path_revoked(pinned.value(), now)) continue;
    found = std::any_of(
        selection.value().ranked.begin(), selection.value().ranked.end(),
        [&](const select::RankedPath& candidate) {
          return candidate.summary.path_id != pinned_id &&
                 !control_plane.hops_revoked(candidate.summary.hops, now);
        });
  }
  ASSERT_TRUE(found) << "storm never revoked the pinned path with a live "
                        "alternative available";

  apps::PingOptions options;
  options.count = 5;
  const auto report = controller.ping(3, options);
  ASSERT_TRUE(report.ok())
      << "failover must absorb the revocation: " << report.error().message;
  EXPECT_EQ(controller.failovers(), 1u);
  const auto active = controller.active(3);
  ASSERT_TRUE(active.has_value());
  EXPECT_NE(active->chosen.summary.path_id, pinned_id)
      << "the intent must be re-pinned onto the alternative";
  EXPECT_EQ(report.value().path.sequence(), active->chosen.summary.sequence);
}

TEST(ControlPlaneChurn, KillThenResumeIsBitIdenticalUnderStorm) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  simnet::NetworkConfig net = storm_config();
  net.faults.garble_prob = 0.1;  // exercise retry alongside revocations
  // A server-down window can revoke *every* path of a unit, yielding an
  // empty batch that neither counts toward the crash trigger nor stores
  // samples; keep those rare so the kill lands mid-campaign.
  net.faults.server_down_per_hour = 0.5;
  measure::TestSuiteConfig config;
  config.iterations = 2;
  config.server_ids = {{3, 5}};

  const auto stats_snapshot = [](docdb::Database& db) {
    std::map<std::string, std::string> snapshot;
    db.collection(measure::kPathsStats)
        .for_each([&](const docdb::Document& doc) {
          snapshot.emplace(
              std::string(docdb::document_id(doc).value_or("")), doc.dump());
        });
    return snapshot;
  };

  // Reference: the same campaign, never interrupted.
  std::map<std::string, std::string> reference;
  std::string reference_cache;
  {
    apps::ScionHost host(env, 42, env.user_as, "10.0.8.1", net);
    docdb::Database db;
    measure::TestSuite suite(host, db, config);
    ASSERT_TRUE(suite.run().ok());
    reference = stats_snapshot(db);
    reference_cache = host.control_plane().checkpoint().dump();
    ASSERT_FALSE(reference.empty());
  }

  const test_support::TempDir dir("churn_resume_");
  const std::string journal = dir.file("journal.jsonl");

  // Crashed run: killed after the third committed batch.
  {
    auto opened = docdb::Database::open(journal);
    ASSERT_TRUE(opened.ok());
    apps::ScionHost host(env, 42, env.user_as, "10.0.8.1", net);
    measure::TestSuiteConfig crashing = config;
    crashing.crash_after_batches = 2;
    measure::TestSuite suite(host, *opened.value(), crashing);
    ASSERT_FALSE(suite.run().ok());
  }

  // Resume: fresh process, fresh host, fresh clock, fresh (empty) cache —
  // the checkpointed snapshots must rebuild the identical trajectory.
  {
    auto reopened = docdb::Database::open(journal);
    ASSERT_TRUE(reopened.ok());
    apps::ScionHost host(env, 42, env.user_as, "10.0.8.1", net);
    measure::TestSuiteConfig resuming = config;
    resuming.skip_collection = true;
    resuming.resume = true;
    measure::TestSuite suite(host, *reopened.value(), resuming);
    ASSERT_TRUE(suite.run().ok());
    EXPECT_GT(suite.progress().units_skipped, 0u);

    const std::map<std::string, std::string> resumed =
        stats_snapshot(*reopened.value());
    ASSERT_EQ(resumed.size(), reference.size());
    for (const auto& [id, json] : reference) {
      const auto it = resumed.find(id);
      ASSERT_NE(it, resumed.end()) << "missing document " << id;
      EXPECT_EQ(it->second, json) << "document " << id << " diverged";
    }
    EXPECT_EQ(host.control_plane().checkpoint().dump(), reference_cache)
        << "the resumed cache trajectory diverged from the uninterrupted run";
  }
}

TEST(ControlPlaneChurn, KillAtEveryUnitBoundaryResumesBitIdentical) {
  const scion::ScionlabEnv env = scion::scionlab_topology();
  simnet::NetworkConfig net = storm_config();
  net.faults.garble_prob = 0.1;
  net.faults.server_down_per_hour = 0.5;
  measure::TestSuiteConfig config;
  config.iterations = 3;
  config.server_ids = {{3, 5}};

  using Documents = std::map<std::string, std::string>;
  const auto documents = [](docdb::Database& db, const char* collection) {
    Documents docs;
    db.collection(collection).for_each([&](const docdb::Document& doc) {
      docs.emplace(std::string(docdb::document_id(doc).value_or("")),
                   doc.dump());
    });
    return docs;
  };
  const auto expect_same = [](const Documents& got, const Documents& want,
                              const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (const auto& [id, json] : want) {
      const auto it = got.find(id);
      ASSERT_NE(it, got.end()) << what << ": missing document " << id;
      EXPECT_EQ(it->second, json) << what << ": document " << id;
    }
  };

  // Reference: the same campaign, never interrupted.
  Documents reference_stats;
  Documents reference_checkpoints;
  std::string reference_cache;
  std::size_t units = 0;
  {
    apps::ScionHost host(env, 42, env.user_as, "10.0.8.1", net);
    docdb::Database db;
    measure::TestSuite suite(host, db, config);
    ASSERT_TRUE(suite.run().ok());
    units = suite.planned_units();
    reference_stats = documents(db, measure::kPathsStats);
    reference_checkpoints = documents(db, measure::kCampaignCheckpoints);
    reference_cache = host.control_plane().checkpoint().dump();
  }
  ASSERT_EQ(units, 6u);
  ASSERT_EQ(reference_checkpoints.size(), units);

  std::size_t dirty_entries_resumed = 0;
  for (std::size_t k = 1; k < units; ++k) {
    const std::string label = "killed after unit " + std::to_string(k);
    docdb::Database db;
    {
      apps::ScionHost host(env, 42, env.user_as, "10.0.8.1", net);
      measure::TestSuite suite(host, db, config);
      ASSERT_TRUE(suite.begin().ok());
      for (std::size_t unit = 0; unit < k; ++unit) {
        const auto outcome = suite.step();
        ASSERT_TRUE(outcome.ok()) << label;
        ASSERT_EQ(outcome.value(), measure::TestSuite::StepOutcome::kRan);
      }
    }  // the kill: suite, host and cache are gone; the database remains

    db.collection(measure::kCampaignCheckpoints)
        .for_each([&](const docdb::Document& doc) {
          for (const util::Value& entry :
               doc.get_path("path_cache.entries")->as_array()) {
            if (entry.get("dirty")->as_bool()) ++dirty_entries_resumed;
          }
        });

    // Resume on a fresh host with a fresh, empty cache.
    apps::ScionHost host(env, 42, env.user_as, "10.0.8.1", net);
    measure::TestSuiteConfig resuming = config;
    resuming.skip_collection = true;
    resuming.resume = true;
    measure::TestSuite suite(host, db, resuming);
    ASSERT_TRUE(suite.run().ok()) << label;
    EXPECT_EQ(suite.progress().units_skipped, k) << label;
    expect_same(documents(db, measure::kPathsStats), reference_stats,
                label + ", paths_stats");
    expect_same(documents(db, measure::kCampaignCheckpoints),
                reference_checkpoints, label + ", campaign_checkpoints");
    EXPECT_EQ(host.control_plane().checkpoint().dump(), reference_cache)
        << label << ": the resumed cache trajectory diverged";
  }
  EXPECT_GT(dirty_entries_resumed, 0u)
      << "no resumed checkpoint held a dirty entry: the sweep never "
         "restored a revocation-invalidated cache";
}

}  // namespace
}  // namespace upin
