// The fleet-chaos workload: 64 tenant campaigns (one destination each,
// cycling through the 21 servers, 6 iterations) through the fleet
// scheduler on nproc - 1 workers, with the chaos network of
// bench/fleet_chaos on tenants 0, 16, 32 and 48 at priority 0.
#include <algorithm>
#include <array>
#include <thread>

#include "campaign.hpp"
#include "fleet/fleet.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kTenants = 64;
constexpr int kTenantIterations = 6;
constexpr int kServers = 21;
constexpr std::array<int, 4> kChaosTenants = {0, 16, 32, 48};
/// Set-ups of all tenants timed, back to back, before the fleet runs.
constexpr int kSetups = 21;

bool is_chaos(int campaign_id) {
  return std::find(kChaosTenants.begin(), kChaosTenants.end(), campaign_id) !=
         kChaosTenants.end();
}

/// Garbled frames, dark-server and slow-responder windows, and failing
/// bandwidth servers: the chaos tenant of bench/fleet_chaos.
simnet::NetworkConfig chaos_network() {
  simnet::NetworkConfig config;
  config.server_error_prob = 1.0;
  config.faults.garble_prob = 0.35;
  config.faults.server_down_per_hour = 8.0;
  config.faults.slow_per_hour = 8.0;
  return config;
}

/// Worker threads: one core is left to the scheduler's feeder thread.
std::size_t fleet_workers() {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, cores - 1);
}

fleet::FleetConfig fleet_config(std::uint64_t seed, obs::Registry& metrics) {
  fleet::FleetConfig config;
  config.seed = seed;
  config.threads = fleet_workers();
  config.net_config.server_error_prob = 0.0;
  config.suite.iterations = kTenantIterations;
  config.suite.retry.max_attempts = 2;
  config.metrics = &metrics;
  return config;
}

std::vector<fleet::CampaignSpec> tenant_specs() {
  std::vector<fleet::CampaignSpec> specs(kTenants);
  for (int i = 0; i < kTenants; ++i) {
    fleet::CampaignSpec& spec = specs[static_cast<std::size_t>(i)];
    spec.campaign_id = i;
    spec.server_ids = {1 + i % kServers};
    if (is_chaos(i)) {
      spec.net_config = chaos_network();
      spec.priority = 0;
    }
  }
  return specs;
}

/// What the scheduler sets up per tenant, built by the benchmark: the
/// tenant's split seed, network, private registry, in-memory shard and
/// begun suite.
struct Tenants {
  std::unique_ptr<scion::ScionlabEnv> env;
  std::vector<Rig> rigs;  ///< in spec order
  double setup_s = 0.0;
};

measure::TestSuiteConfig tenant_suite(const fleet::FleetConfig& config,
                                      const fleet::CampaignSpec& spec,
                                      obs::Registry& registry) {
  measure::TestSuiteConfig suite = config.suite;
  suite.server_ids = spec.server_ids;
  suite.registry = &registry;
  return suite;
}

Tenants build_tenants(const fleet::FleetConfig& config,
                      const std::vector<fleet::CampaignSpec>& specs) {
  Tenants tenants;
  const auto start = WallClock::now();
  tenants.env = std::make_unique<scion::ScionlabEnv>(scion::scionlab_topology());
  for (const fleet::CampaignSpec& spec : specs) {
    tenants.rigs.push_back(make_rig(
        tenants.env.get(), fleet::campaign_seed(config.seed, spec.campaign_id),
        spec.net_config.value_or(config.net_config),
        [&](obs::Registry& registry) {
          return tenant_suite(config, spec, registry);
        }));
  }
  tenants.setup_s = seconds_since(start);
  return tenants;
}

CampaignPlan tenant_plan(const fleet::CampaignSpec& spec) {
  return CampaignPlan{spec.server_ids, kTenantIterations,
                      ControllerMode::kInterleaved};
}

std::uint64_t request_seed(std::uint64_t seed, int campaign_id) {
  return seed * std::uint64_t{1000003} + static_cast<std::uint64_t>(campaign_id);
}

/// Probes each tenant's campaign plans: 6 iterations over its paths.
std::vector<std::size_t> planned_probes(const Tenants& tenants,
                                        const std::vector<fleet::CampaignSpec>& specs) {
  std::vector<std::size_t> planned;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::map<int, std::size_t> paths =
        paths_per_server(*tenants.rigs[i].db);
    const auto it = paths.find(specs[i].server_ids.front());
    planned.push_back(kProbesPerPathTest * kTenantIterations *
                      (it == paths.end() ? 0 : it->second));
  }
  return planned;
}

struct FleetRun {
  fleet::FleetResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

FleetRun run_fleet_once(const scion::ScionlabEnv& env,
                        const fleet::FleetConfig& config,
                        const std::vector<fleet::CampaignSpec>& specs) {
  FleetRun run;
  const double cpu_start = process_cpu_seconds();
  const auto start = WallClock::now();
  run.result = must(fleet::FleetScheduler(env, config).run(specs), "fleet run");
  run.wall_s = seconds_since(start);
  run.cpu_s = process_cpu_seconds() - cpu_start;

  for (const fleet::CampaignStatus& status : run.result.campaigns) {
    const std::string tenant = "tenant " + std::to_string(status.campaign_id);
    require(status.progress.stats_inserted == status.progress.path_tests_run,
            tenant + ": stats_inserted != path tests run");
    if (is_chaos(status.campaign_id)) {
      require(status.state != fleet::TenantState::kHealthy,
              tenant + " (chaos) ended healthy");
    } else {
      require(status.state == fleet::TenantState::kHealthy,
              tenant + " ended " + std::string(fleet::to_string(status.state)));
      require(status.units_run == static_cast<std::size_t>(kTenantIterations),
              tenant + " ran " + std::to_string(status.units_run) + " units");
    }
  }
  return run;
}

WorkloadResult untraced(const Options& options) {
  obs::Registry fleet_metrics;
  const fleet::FleetConfig config = fleet_config(options.seed, fleet_metrics);
  const std::vector<fleet::CampaignSpec> specs = tenant_specs();

  WorkloadResult result;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const CpuPin pin(static_cast<std::size_t>(i));
    setups.push_back(build_tenants(config, specs).setup_s);
  }
  std::vector<double> fleet_wall_s;
  std::vector<double> fleet_cpu_s;
  std::vector<std::vector<double>> unit_ms;
  std::vector<std::vector<double>> select_us;
  std::vector<std::size_t> reference_tests;
  double live_bytes = 0.0;
  double stats_docs = 0.0;
  Repeater repeat(options.seconds);
  do {
    Tenants tenants = build_tenants(config, specs);
    const std::vector<std::size_t> planned = planned_probes(tenants, specs);

    const FleetRun run = run_fleet_once(*tenants.env, config, specs);
    fleet_wall_s.push_back(run.wall_s);
    fleet_cpu_s.push_back(run.cpu_s);
    std::vector<std::size_t> tests;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const measure::TestSuiteProgress& p = run.result.campaigns[i].progress;
      tests.push_back(p.path_tests_run);
      if (!is_chaos(specs[i].campaign_id)) {
        result.attempted += planned[i];
        result.failed += planned[i] - delivered_probes(p);
      }
    }
    require(reference_tests.empty() || tests == reference_tests,
            "the same fleet seed ran different path tests");
    reference_tests = std::move(tests);

    // Unit and request latency: the clean tenants' campaigns stepped one
    // at a time on the benchmark's own set-up, each with its controller.
    std::vector<double> units;
    std::vector<double> selects;
    const bool first = unit_ms.empty();
    const CpuPin pin(unit_ms.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (is_chaos(specs[i].campaign_id)) continue;
      Rig& rig = tenants.rigs[i];
      const CampaignOutcome solo =
          run_stepped(rig, tenant_plan(specs[i]),
                      request_seed(options.seed, specs[i].campaign_id));
      require(solo.path_tests == reference_tests[i],
              "tenant " + std::to_string(specs[i].campaign_id) +
                  " ran differently alone than in the fleet");
      units.insert(units.end(), solo.unit_ms.begin(), solo.unit_ms.end());
      selects.insert(selects.end(), solo.controller.select_us.begin(),
                     solo.controller.select_us.end());
      if (first) {
        live_bytes += static_cast<double>(live_record_bytes(*rig.db));
        stats_docs += static_cast<double>(solo.path_tests);
      }
      result.attempted += solo.probes.planned + solo.controller.planned;
      result.failed += solo.probes.failed() +
                       (solo.controller.planned - solo.controller.delivered);
    }
    unit_ms.push_back(std::move(units));
    select_us.push_back(std::move(selects));
  } while (repeat.another());

  double path_tests = 0.0;
  for (const std::size_t tests : reference_tests) {
    path_tests += static_cast<double>(tests);
  }
  const std::vector<double> best_unit_ms = best_of(unit_ms);
  const std::vector<double> best_select_us = best_of(select_us);
  Metrics& m = result.metrics;
  m.set("setup_s", median(setups), "s");
  // The fleet runs repeat identical work: time it by the best run.
  m.set("path_tests_per_s",
        path_tests / *std::min_element(fleet_wall_s.begin(), fleet_wall_s.end()),
        "1/s");
  m.set("cpu_ms_per_path_test",
        *std::min_element(fleet_cpu_s.begin(), fleet_cpu_s.end()) * 1e3 /
            path_tests,
        "ms");
  m.set("unit_p50_ms", quantile(best_unit_ms, 0.50), "ms");
  m.set("unit_p95_ms", typical_quantile(unit_ms, 0.95), "ms");
  m.set("select_p50_us", quantile(best_select_us, 0.50), "us");
  m.set("select_p99_us", typical_quantile(select_us, 0.99), "us");
  m.set("journal_bytes_per_stats_doc", live_bytes / stats_docs, "B/doc");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  return result;
}

/// One traced pass over the fleet: fleet.* from a fleet run, host
/// builds and solo runs; the other layers from replaying the clean
/// tenants, with spans into `log`.
WorkloadResult traced_pass(const Options& options, SpanLog& log) {
  obs::Registry fleet_metrics;
  const fleet::FleetConfig config = fleet_config(options.seed, fleet_metrics);
  const std::vector<fleet::CampaignSpec> specs = tenant_specs();
  const auto workers = static_cast<double>(config.threads);
  Metrics m = zero_per_layer_metrics();
  WorkloadResult result;

  Tenants tenants = build_tenants(config, specs);
  const std::vector<std::size_t> planned = planned_probes(tenants, specs);
  const FleetRun run = run_fleet_once(*tenants.env, config, specs);
  OpsCount ops;
  double backpressure = 0.0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const fleet::CampaignStatus& status = run.result.campaigns[i];
    ops.add(planned[i], delivered_probes(status.progress));
    backpressure += static_cast<double>(status.backpressure_rejections);
  }
  m.set("fleet.busy_ratio", run.cpu_s / (run.wall_s * workers), "ratio");
  m.set("fleet.backpressure_rejections", backpressure, "count");
  m.set("fleet.degraded", static_cast<double>(run.result.degraded), "count");
  m.set("fleet.quarantined", static_cast<double>(run.result.quarantined),
        "count");

  // Host construction and solo campaign time, per tenant.
  double host_build_s = 0.0;
  double solo_s = 0.0;
  for (const fleet::CampaignSpec& spec : specs) {
    const auto build_start = WallClock::now();
    const apps::ScionHost host(*tenants.env,
                               fleet::campaign_seed(config.seed, spec.campaign_id),
                               tenants.env->user_as, "10.0.8.1",
                               spec.net_config.value_or(config.net_config));
    host_build_s += seconds_since(build_start);
    const auto solo_start = WallClock::now();
    const fleet::CampaignStatus solo =
        must(fleet::run_campaign_solo(*tenants.env, config, spec), "solo run");
    solo_s += seconds_since(solo_start);
    require(solo.progress.path_tests_run ==
                run.result.campaigns[static_cast<std::size_t>(spec.campaign_id)]
                    .progress.path_tests_run,
            "tenant " + std::to_string(spec.campaign_id) +
                " ran differently solo than in the fleet");
  }
  m.set("fleet.host_build_ms", host_build_s * 1e3, "ms");
  m.set("fleet.parallel_efficiency", solo_s / (run.wall_s * workers), "ratio");

  // The clean tenants' campaigns, stepped untraced on the benchmark's
  // set-up and replayed traced on a second one.
  Tenants replay_tenants = build_tenants(config, specs);
  ReplayTotals totals;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (is_chaos(specs[i].campaign_id)) continue;
    const std::uint64_t seed = request_seed(options.seed, specs[i].campaign_id);
    const CampaignOutcome stepped =
        run_stepped(tenants.rigs[i], tenant_plan(specs[i]), seed);
    Rig& rig = replay_tenants.rigs[i];
    const ReplayOutcome replay = run_replayed(
        rig, tenant_plan(specs[i]), tenant_suite(config, specs[i], *rig.registry),
        seed, log);
    require(replay.digest == stepped.digest,
            "tenant " + std::to_string(specs[i].campaign_id) +
                ": traced replay stored a different paths_stats digest");
    totals.add(rig, replay);
    totals.untraced_wall_s += stepped.loop_wall_s;
  }
  totals.report(log, ops, m);

  result.metrics = std::move(m);
  // Benchmark operations: every planned probe of the clean tenants and
  // every controller request.  The chaos tenants' undelivered probes are
  // the workload's intended outcome and show in ops_failed_ratio.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (is_chaos(specs[i].campaign_id)) continue;
    result.attempted += planned[i];
    result.failed +=
        planned[i] - delivered_probes(run.result.campaigns[i].progress);
  }
  result.attempted += totals.requests.planned;
  result.failed += totals.requests.planned - totals.requests.delivered;
  return result;
}

WorkloadResult traced(const Options& options) {
  WorkloadResult result;
  std::vector<Metrics> passes;
  SpanLog last_log;
  Repeater repeat(options.seconds);
  do {
    SpanLog log;
    WorkloadResult pass = traced_pass(options, log);
    passes.push_back(std::move(pass.metrics));
    result.attempted += pass.attempted;
    result.failed += pass.failed;
    last_log = std::move(log);
  } while (repeat.another());
  write_spans(last_log, options);
  result.metrics = Metrics::median_of(passes);
  return result;
}

}  // namespace

WorkloadResult run_fleet(const Options& options) {
  return options.trace ? traced(options) : untraced(options);
}

}  // namespace perfbench
