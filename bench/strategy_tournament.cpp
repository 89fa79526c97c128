// strategy_tournament — every registered selection strategy, same data,
// same faults, head to head.
//
// One calm measurement campaign on the *multihomed* testbed (two
// attachment points, so disjoint access links exist) feeds every
// strategy identical path summaries.  Each strategy is then scored on:
//
//   * regret      — median latency of its top pick minus the best median
//                   among the paths it admitted (ms; 0 = oracle);
//   * goodput     — mean achieved Mbps of a fixed 48 Mbps downstream
//                   demand split over its k-subflow multipath plan
//                   (k in {1, 2, 4}), sampled at identical virtual times
//                   under three fault regimes (calm / link-flap /
//                   server-down);
//   * failover    — mean revocation-failover latency of a k=2 controller
//                   pinned through flap episodes (fault regimes only).
//
// Usage:
//   strategy_tournament              full tournament, text table
//   strategy_tournament --csv       CSV rows instead of the table
//   strategy_tournament --gate      link-flap regime only; exit 1 unless
//                                   disjointness-max k=2 goodput beats
//                                   k=1 by >= 1.5x (CI smoke gate); writes
//                                   no report unless --out is given
//   strategy_tournament --out FILE  JSON report path (BENCH_strategy.json)
//   strategy_tournament --seed N    campaign + fault seed (default 42)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/host.hpp"
#include "docdb/database.hpp"
#include "measure/testsuite.hpp"
#include "scion/scionlab.hpp"
#include "select/multipath.hpp"
#include "select/selector.hpp"
#include "upin/controller.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace {

using namespace upin;
using util::SimTime;
using util::Value;

constexpr int kServerId = 3;          // AWS Ireland, the paper's featured dst
constexpr double kDemandMbps = 48.0;  // > one access link, < two
constexpr std::size_t kSubflowCounts[] = {1, 2, 4};

struct Regime {
  const char* name;
  simnet::FaultPlanConfig faults;
};

std::vector<Regime> make_regimes(bool gate) {
  simnet::FaultPlanConfig flap;
  flap.link_flap_per_hour = 2.0;
  flap.link_flap_min_s = 60.0;
  flap.link_flap_max_s = 180.0;
  simnet::FaultPlanConfig dark;
  dark.server_down_per_hour = 1.0;
  dark.server_down_min_s = 120.0;
  dark.server_down_max_s = 600.0;
  if (gate) return {{"link-flap", flap}};
  return {{"calm", {}}, {"link-flap", flap}, {"server-down", dark}};
}

/// The shared measurement substrate: one calm campaign on the multihomed
/// testbed, summarized once, selected per strategy.
struct Substrate {
  scion::ScionlabEnv env;
  docdb::Database db;
  std::map<std::string, select::Selection> selections;  // by strategy key
};

std::unique_ptr<Substrate> run_campaign(std::uint64_t seed) {
  auto sub = std::make_unique<Substrate>();
  sub->env = scion::scionlab_topology_multihomed();
  apps::ScionHost host(sub->env, seed, sub->env.user_as, "10.0.8.1");

  measure::TestSuiteConfig config;
  config.iterations = 4;
  config.server_ids = {{kServerId}};
  measure::TestSuite suite(host, sub->db, config);
  if (!suite.run().ok()) {
    std::fprintf(stderr, "[strategy_tournament] campaign failed\n");
    std::abort();
  }

  const select::PathSelector selector(sub->db, sub->env.topology);
  select::UserRequest request;
  request.server_id = kServerId;
  for (const std::string& key : select::StrategyRegistry::global().keys()) {
    auto selection = selector.select_with(key, request);
    if (!selection.ok()) {
      std::fprintf(stderr, "[strategy_tournament] %s failed: %s\n",
                   key.c_str(), selection.error().message.c_str());
      std::abort();
    }
    sub->selections[key] = std::move(selection).value();
  }
  return sub;
}

/// Median-latency regret of the strategy's top pick against the best
/// median among the paths it admitted.
double regret_ms(const select::Selection& selection) {
  if (selection.ranked.empty()) return 0.0;
  double best = 1e18;
  double winner = 0.0;
  for (std::size_t i = 0; i < selection.ranked.size(); ++i) {
    const auto& latency = selection.ranked[i].summary.latency_ms;
    if (!latency.has_value()) continue;
    best = std::min(best, latency->median);
    if (i == 0) winner = latency->median;
  }
  if (best >= 1e18) return 0.0;
  return winner - best;
}

std::vector<apps::SubflowSpec> specs_of(const select::MultipathPlan& plan) {
  std::vector<apps::SubflowSpec> specs;
  for (const select::MultipathSubflow& subflow : plan.subflows) {
    specs.push_back(apps::SubflowSpec{subflow.summary.sequence,
                                      subflow.weight});
  }
  return specs;
}

/// Identical sample instants for every contender: fixed calm times plus
/// the midpoints of the first flap episodes on the top pick's downstream
/// access link (so fault regimes actually exercise the faults).
std::vector<SimTime> sample_times(const scion::ScionlabEnv& env,
                                  std::uint64_t seed,
                                  const Regime& regime,
                                  const select::Selection& reference) {
  std::vector<SimTime> times;
  for (const double s : {1200.0, 2400.0, 3600.0, 4800.0}) {
    times.push_back(util::sim_seconds(s));
  }
  if (regime.faults.link_flap_per_hour > 0.0 && !reference.ranked.empty()) {
    simnet::NetworkConfig net_config;
    net_config.faults = regime.faults;
    apps::ScionHost probe(env, seed, env.user_as, "10.0.8.1", net_config);
    const auto path = scion::Path::parse_sequence(
        reference.ranked.front().summary.sequence);
    if (path.ok()) {
      const auto route = probe.route_of(path.value());
      if (route.ok() && route.value().size() >= 2) {
        // Downstream traffic enters over (AP -> user AS).
        const auto windows = probe.network().faults().link_flap_windows(
            route.value()[1], route.value()[0]);
        std::size_t used = 0;
        for (const simnet::FaultWindow& window : windows) {
          if (used == 4) break;
          times.push_back(window.start + (window.end - window.start) / 2);
          ++used;
        }
      }
    }
  }
  std::sort(times.begin(), times.end());
  return times;
}

/// Mean achieved Mbps of the fixed demand over the strategy's k-subflow
/// plan, across the sample instants, on a fresh host under the regime's
/// fault plan.  A failed run (e.g. the whole plan revoked) counts as
/// zero goodput — that *is* the cost of the strategy.
double mean_goodput(const scion::ScionlabEnv& env, std::uint64_t seed,
                    const Regime& regime, const select::Selection& selection,
                    std::size_t k, const std::vector<SimTime>& times) {
  const auto plan = select::plan_multipath(selection, k);
  if (!plan.ok()) return 0.0;
  simnet::NetworkConfig net_config;
  net_config.faults = regime.faults;
  apps::ScionHost host(env, seed, env.user_as, "10.0.8.1", net_config);
  const scion::SnetAddress server =
      env.servers[static_cast<std::size_t>(kServerId) - 1];

  apps::MultipathBwtestOptions options;
  options.total_target_mbps = kDemandMbps;
  options.downstream = true;
  double total = 0.0;
  for (const SimTime t : times) {
    host.clock().advance_to(t);
    const auto report =
        host.multipath_bwtest(server, specs_of(plan.value()), options);
    if (report.ok()) total += report.value().achieved_mbps;
  }
  return times.empty() ? 0.0 : total / static_cast<double>(times.size());
}

/// Mean revocation-failover latency (ms) of a k=2 controller pinned on
/// the strategy, pinged through each sample instant.  Negative when the
/// regime never produced a failover.
double mean_failover_ms(const scion::ScionlabEnv& env, std::uint64_t seed,
                        const Regime& regime, const docdb::Database& db,
                        const std::string& strategy,
                        const std::vector<SimTime>& times) {
  if (!regime.faults.any()) return -1.0;
  simnet::NetworkConfig net_config;
  net_config.faults = regime.faults;
  apps::ScionHost host(env, seed, env.user_as, "10.0.8.1", net_config);
  const select::PathSelector selector(db, env.topology);
  upinfw::PathController controller(host, selector, strategy);

  select::UserRequest request;
  request.server_id = kServerId;
  if (!controller.apply_multipath(request, 2).ok()) return -1.0;

  apps::MultipathPingOptions options;
  options.count = 10;
  double latency_sum = 0.0;
  std::size_t failovers_seen = 0;
  for (const SimTime t : times) {
    host.clock().advance_to(t);
    const auto pinned = controller.active_multipath(kServerId);
    if (!pinned.has_value()) break;
    const std::size_t before = controller.failovers();
    (void)controller.multipath_ping(kServerId, options);
    if (controller.failovers() == before) continue;
    // Reconstruct the latency the controller measured: earliest delivered
    // revocation across the old plan's subflows to the detection instant.
    std::optional<SimTime> since;
    for (const select::MultipathSubflow& subflow : pinned->plan.subflows) {
      const auto path = scion::Path::parse_sequence(subflow.summary.sequence);
      if (!path.ok()) continue;
      const auto when =
          host.control_plane().revoked_since(path.value(), host.clock().now());
      if (when.has_value() && (!since.has_value() || *when < *since)) {
        since = when;
      }
    }
    if (since.has_value()) {
      latency_sum += util::to_millis(host.clock().now() - *since);
      ++failovers_seen;
    }
  }
  if (failovers_seen == 0) return -1.0;
  return latency_sum / static_cast<double>(failovers_seen);
}

}  // namespace

int main(int argc, char** argv) {
  bool gate = false;
  bool csv = false;
  std::uint64_t seed = 42;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) gate = true;
    if (std::strcmp(argv[i], "--csv") == 0) csv = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      const auto parsed = util::parse_int(argv[++i]);
      if (!parsed.has_value() || *parsed < 0) {
        std::fprintf(stderr, "bad --seed\n");
        return 2;
      }
      seed = static_cast<std::uint64_t>(*parsed);
    }
  }
  // A gate run covers one strategy in one regime: its subset must not
  // replace the full report unless a path is asked for.
  if (out_path.empty() && !gate) out_path = "BENCH_strategy.json";

  std::fprintf(stderr,
               "[strategy_tournament] calm campaign on the multihomed "
               "testbed (seed %llu)...\n",
               static_cast<unsigned long long>(seed));
  const auto substrate = run_campaign(seed);
  const select::Selection& reference =
      substrate->selections.at(std::string(select::kDisjointnessMax));

  const std::vector<std::string> strategies =
      gate ? std::vector<std::string>{std::string(select::kDisjointnessMax)}
           : select::StrategyRegistry::global().keys();

  if (!csv) {
    std::printf("strategy tournament — seed %llu, server %d, demand %.0f "
                "Mbps downstream\n",
                static_cast<unsigned long long>(seed), kServerId, kDemandMbps);
  } else {
    std::printf(
        "regime,strategy,regret_ms,goodput_k1,goodput_k2,goodput_k4,"
        "failover_ms\n");
  }

  bool gate_ok = true;
  Value::Array regime_rows;
  for (const Regime& regime : make_regimes(gate)) {
    const std::vector<SimTime> times =
        sample_times(substrate->env, seed, regime, reference);
    if (!csv) {
      std::printf("\n[%s] %zu sample instants\n", regime.name, times.size());
      std::printf("  %-18s %9s %11s %11s %11s %11s\n", "strategy",
                  "regret_ms", "goodput_k1", "goodput_k2", "goodput_k4",
                  "failover_ms");
    }
    Value::Array strategy_rows;
    for (const std::string& key : strategies) {
      const select::Selection& selection = substrate->selections.at(key);
      const double regret = regret_ms(selection);
      double goodput[3] = {0.0, 0.0, 0.0};
      for (std::size_t i = 0; i < 3; ++i) {
        goodput[i] = mean_goodput(substrate->env, seed, regime, selection,
                                  kSubflowCounts[i], times);
      }
      const double failover = mean_failover_ms(substrate->env, seed, regime,
                                               substrate->db, key, times);
      if (gate && std::strcmp(regime.name, "link-flap") == 0 &&
          key == select::kDisjointnessMax) {
        gate_ok = goodput[1] > 0.0 && goodput[1] >= 1.5 * goodput[0];
      }
      if (csv) {
        std::printf("%s,%s,%.3f,%.3f,%.3f,%.3f,%.3f\n", regime.name,
                    key.c_str(), regret, goodput[0], goodput[1], goodput[2],
                    failover);
      } else {
        std::printf("  %-18s %9.2f %11.2f %11.2f %11.2f %11.2f\n",
                    key.c_str(), regret, goodput[0], goodput[1], goodput[2],
                    failover);
      }
      strategy_rows.push_back(Value::object({
          {"strategy", key},
          {"regret_ms", regret},
          {"goodput_k1_mbps", goodput[0]},
          {"goodput_k2_mbps", goodput[1]},
          {"goodput_k4_mbps", goodput[2]},
          {"failover_ms", failover},
      }));
    }
    regime_rows.push_back(Value::object({
        {"regime", regime.name},
        {"samples", static_cast<std::int64_t>(times.size())},
        {"strategies", Value(std::move(strategy_rows))},
    }));
  }

  const Value report = Value::object({
      {"bench", "strategy_tournament"},
      {"seed", static_cast<std::int64_t>(seed)},
      {"server_id", kServerId},
      {"demand_mbps", kDemandMbps},
      {"gate", gate},
      {"regimes", Value(std::move(regime_rows))},
  });
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << report.dump(2) << "\n";
    out.close();
    std::fprintf(stderr, "[strategy_tournament] wrote %s\n", out_path.c_str());
  }

  if (gate && !gate_ok) {
    std::fprintf(stderr,
                 "[strategy_tournament] GATE FAILED: disjointness-max k=2 "
                 "goodput is not >= 1.5x its k=1 goodput under link-flap\n");
    return 1;
  }
  return 0;
}
