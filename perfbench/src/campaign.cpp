#include "campaign.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "measure/schema.hpp"
#include "select/selector.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// kRequestsPerUnit requests over the destinations measured after
/// `units` committed units (the suite walks destinations in plan order
/// within each iteration).
void send_requests(const select::PathSelector& selector,
                   const CampaignPlan& plan, std::size_t units,
                   RequestGenerator& requests, ControllerStats& stats,
                   SpanLog* log) {
  const std::vector<int> measured(
      plan.servers.begin(),
      plan.servers.begin() +
          static_cast<std::ptrdiff_t>(std::min(units, plan.servers.size())));
  for (int i = 0; i < kRequestsPerUnit; ++i) {
    serve(selector, requests.next(measured), stats, log);
  }
}

std::size_t planned_probes(const docdb::Database& db, const CampaignPlan& plan) {
  const std::map<int, std::size_t> paths = paths_per_server(db);
  std::size_t per_iteration = 0;
  for (const int server : plan.servers) {
    const auto it = paths.find(server);
    if (it != paths.end()) per_iteration += it->second;
  }
  return kProbesPerPathTest * per_iteration *
         static_cast<std::size_t>(plan.iterations);
}

/// Per-layer metrics derived from span self times.
void add_span_metrics(const SpanLog& log, Metrics& metrics) {
  const std::map<std::string, SpanLog::Totals> totals = log.totals();
  const auto of = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanLog::Totals{} : it->second;
  };
  const auto p50 = [&](const char* name) {
    const SpanLog::Totals t = of(name);
    return t.durations_us.empty() ? 0.0 : median(t.durations_us);
  };
  const SpanLog::Totals ping = of("apps.ping");
  const SpanLog::Totals bwtest = of("apps.bwtest");
  const double simnet_ping = of("simnet.ping").total_ms;
  const double simnet_bwtest = of("simnet.bwtest").total_ms;
  metrics.set("apps.ping_ms", ping.self_ms, "ms");
  metrics.set("apps.ping_calls", static_cast<double>(ping.count), "count");
  metrics.set("apps.bwtest_ms", bwtest.self_ms, "ms");
  metrics.set("apps.bwtest_calls", static_cast<double>(bwtest.count), "count");
  metrics.set("simnet.ping_ms", simnet_ping, "ms");
  metrics.set("simnet.bwtest_ms", simnet_bwtest, "ms");
  // Path lookup, revocation checks and routing: the apps calls minus the
  // simnet computation they contain.
  metrics.set("scion.route_ms",
              ping.self_ms + bwtest.self_ms - simnet_ping - simnet_bwtest, "ms");
  metrics.set("scion.checkpoint_ms", of("scion.checkpoint").self_ms, "ms");
  metrics.set("measure.checkpoint_encode_ms",
              of("measure.checkpoint_encode").self_ms, "ms");
  metrics.set("docdb.find_ms", of("docdb.find").self_ms, "ms");
  metrics.set("docdb.insert_many_ms", of("docdb.insert_many").self_ms, "ms");
  metrics.set("docdb.insert_one_ms", of("docdb.insert_one").self_ms, "ms");
  metrics.set("docdb.delete_ms", of("docdb.delete").self_ms, "ms");
  metrics.set("obs.snapshot_ms", of("obs.snapshot").self_ms, "ms");
  metrics.set("select.summarize_us_p50", p50("select.summarize"), "us");
  metrics.set("select.rank_us_p50", p50("select.rank"), "us");
}

}  // namespace

CampaignOutcome run_stepped(Rig& rig, const CampaignPlan& plan,
                            std::uint64_t request_seed) {
  CampaignOutcome out;
  const select::PathSelector selector(*rig.db, rig.host->env().topology);
  RequestGenerator requests(request_seed);
  const std::size_t planned = planned_probes(*rig.db, plan);
  std::size_t units = 0;
  const auto loop_start = WallClock::now();
  for (;;) {
    const auto start = WallClock::now();
    const double cpu_start = process_cpu_seconds();
    const measure::TestSuite::StepOutcome step =
        must(rig.suite->step(), "TestSuite::step");
    const double wall = seconds_since(start);
    const double cpu = process_cpu_seconds() - cpu_start;
    if (step == measure::TestSuite::StepOutcome::kDone) break;
    require(step == measure::TestSuite::StepOutcome::kRan,
            "a fresh campaign fast-forwarded a unit");
    out.unit_ms.push_back(wall * 1e3);
    out.unit_cpu_ms.push_back(cpu * 1e3);
    ++units;
    if (plan.controller == ControllerMode::kInterleaved) {
      send_requests(selector, plan, units, requests, out.controller, nullptr);
    }
  }
  if (plan.controller == ControllerMode::kAfterCampaign) {
    for (std::size_t i = 0; i < units; ++i) {
      send_requests(selector, plan, plan.servers.size(), requests,
                    out.controller, nullptr);
    }
  }
  out.loop_wall_s = seconds_since(loop_start);
  must(rig.suite->finish(), "TestSuite::finish");

  const measure::TestSuiteProgress& progress = rig.suite->progress();
  require(progress.stats_inserted == progress.path_tests_run,
          "stats_inserted " + std::to_string(progress.stats_inserted) +
              " != path tests run " + std::to_string(progress.path_tests_run));
  require(units == plan.servers.size() * static_cast<std::size_t>(plan.iterations),
          "campaign ran " + std::to_string(units) + " units");
  out.path_tests = progress.path_tests_run;
  out.probes.add(planned, delivered_probes(progress));
  out.digest = stats_digest(*rig.db);
  return out;
}

ReplayOutcome run_replayed(Rig& rig, const CampaignPlan& plan,
                           measure::TestSuiteConfig config,
                           std::uint64_t request_seed, SpanLog& log) {
  ReplayOutcome out;
  const select::PathSelector selector(*rig.db, rig.host->env().topology);
  RequestGenerator requests(request_seed);
  CampaignReplay replay(*rig.host, *rig.db, std::move(config), *rig.registry,
                        log);
  std::size_t units = 0;
  const auto loop_start = WallClock::now();
  for (int iteration = 0; iteration < plan.iterations; ++iteration) {
    for (const int server : plan.servers) {
      replay.run_unit(server, iteration);
      ++units;
      if (plan.controller == ControllerMode::kInterleaved) {
        send_requests(selector, plan, units, requests, out.controller, &log);
      }
    }
  }
  if (plan.controller == ControllerMode::kAfterCampaign) {
    for (std::size_t i = 0; i < units; ++i) {
      send_requests(selector, plan, plan.servers.size(), requests,
                    out.controller, &log);
    }
  }
  out.loop_wall_s = seconds_since(loop_start);
  replay.finish();
  out.stats = replay.stats();
  out.digest = stats_digest(*rig.db);
  return out;
}

Metrics zero_per_layer_metrics() {
  static constexpr std::array<std::pair<const char*, const char*>, 41>
      kPerLayer = {{
          {"apps.ping_ms", "ms"},
          {"apps.ping_calls", "count"},
          {"apps.bwtest_ms", "ms"},
          {"apps.bwtest_calls", "count"},
          {"apps.attempt_failed_ratio", "ratio"},
          {"simnet.ping_ms", "ms"},
          {"simnet.bwtest_ms", "ms"},
          {"scion.route_ms", "ms"},
          {"scion.checkpoint_ms", "ms"},
          {"scion.checkpoint_bytes_per_unit", "B/unit"},
          {"scion.cache_entries", "count"},
          {"scion.cache_hit_ratio", "ratio"},
          {"measure.checkpoint_encode_ms", "ms"},
          {"measure.begin_ms", "ms"},
          {"measure.retries", "count"},
          {"docdb.find_ms", "ms"},
          {"docdb.insert_many_ms", "ms"},
          {"docdb.insert_one_ms", "ms"},
          {"docdb.delete_ms", "ms"},
          {"obs.snapshot_ms", "ms"},
          {"docdb.vfs_appends", "count"},
          {"docdb.vfs_append_bytes", "B"},
          {"docdb.vfs_append_ms", "ms"},
          {"docdb.vfs_syncs", "count"},
          {"docdb.vfs_sync_ms", "ms"},
          {"docdb.docs_per_sync", "docs/sync"},
          {"docdb.journal_bytes.paths_stats", "B"},
          {"docdb.journal_bytes.campaign_checkpoints", "B"},
          {"docdb.journal_bytes.campaign_metrics", "B"},
          {"select.summarize_us_p50", "us"},
          {"select.rank_us_p50", "us"},
          {"select.docs_per_request", "docs/request"},
          {"fleet.busy_ratio", "ratio"},
          {"fleet.backpressure_rejections", "count"},
          {"fleet.host_build_ms", "ms"},
          {"fleet.parallel_efficiency", "ratio"},
          {"fleet.degraded", "count"},
          {"fleet.quarantined", "count"},
          {"ops_failed_ratio", "ratio"},
          {"trace.coverage", "ratio"},
          {"trace.overhead_ms", "ms"},
      }};
  Metrics metrics;
  for (const auto& [name, unit] : kPerLayer) metrics.set(name, 0.0, unit);
  return metrics;
}

void write_spans(const SpanLog& log, const Options& options) {
  require(log.write(options.workdir + "/spans-" + options.workload + "-seed" +
                    std::to_string(options.seed) + ".csv"),
          "cannot write the span file");
}

void ReplayTotals::add(const Rig& rig, const ReplayOutcome& replay) {
  stats.ping_attempts += replay.stats.ping_attempts;
  stats.bwtest_attempts += replay.stats.bwtest_attempts;
  stats.failed_attempts += replay.stats.failed_attempts;
  stats.units += replay.stats.units;
  stats.retry.retries += replay.stats.retry.retries;
  stats.probes.add(replay.stats.probes.planned, replay.stats.probes.delivered);
  requests.planned += replay.controller.planned;
  requests.delivered += replay.controller.delivered;
  requests.docs += replay.controller.docs;
  begin_s += rig.begin_s;
  traced_wall_s += replay.loop_wall_s;
  const scion::PathCache& cache = rig.host->control_plane().cache();
  cache_entries += static_cast<double>(cache.size());
  cache_served +=
      static_cast<double>(cache.stats().hits + cache.stats().stale_served);
  cache_misses += static_cast<double>(cache.stats().misses);
  rig.db->find_collection(measure::kCampaignCheckpoints)
      ->for_each([&](const docdb::Document& doc) {
        checkpoint_bytes += static_cast<double>(doc.dump().size());
      });
}

void ReplayTotals::report(const SpanLog& log, OpsCount probes,
                          Metrics& metrics) const {
  add_span_metrics(log, metrics);
  const double timed_wall_s = traced_wall_s - log.side_seconds();
  metrics.set("trace.coverage", log.leaf_seconds() / timed_wall_s, "ratio");
  metrics.set("trace.overhead_ms", (timed_wall_s - untraced_wall_s) * 1e3,
              "ms");
  metrics.set("measure.begin_ms", begin_s * 1e3, "ms");
  metrics.set("measure.retries", static_cast<double>(stats.retry.retries),
              "count");
  metrics.set("apps.attempt_failed_ratio",
              static_cast<double>(stats.failed_attempts) /
                  static_cast<double>(stats.ping_attempts +
                                      stats.bwtest_attempts),
              "ratio");
  metrics.set("scion.cache_entries", cache_entries, "count");
  metrics.set("scion.cache_hit_ratio",
              cache_served / (cache_served + cache_misses), "ratio");
  metrics.set("scion.checkpoint_bytes_per_unit",
              checkpoint_bytes / static_cast<double>(stats.units), "B/unit");
  metrics.set("select.docs_per_request",
              static_cast<double>(requests.docs) /
                  static_cast<double>(requests.planned),
              "docs/request");
  probes.add(requests.planned, requests.delivered);
  metrics.set("ops_failed_ratio", probes.failed_ratio(), "ratio");
}

}  // namespace perfbench
