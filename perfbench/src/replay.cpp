#include "replay.hpp"

#include "measure/schema.hpp"
#include "util/strings.hpp"

namespace perfbench {

using util::ErrorCode;
using util::Result;

namespace {

bool control_plane_death(const util::Error& error) {
  return error.code == ErrorCode::kRevoked || error.code == ErrorCode::kExpired;
}

}  // namespace

CampaignReplay::CampaignReplay(apps::ScionHost& host, docdb::Database& db,
                               measure::TestSuiteConfig config,
                               obs::Registry& registry, SpanLog& log)
    : host_(host),
      db_(db),
      config_(std::move(config)),
      registry_(registry),
      log_(log) {}

measure::CircuitBreaker& CampaignReplay::breaker_for(int server_id) {
  auto it = breakers_.find(server_id);
  if (it == breakers_.end()) {
    it = breakers_.emplace(server_id, measure::CircuitBreaker(config_.breaker))
             .first;
  }
  return it->second;
}

Result<apps::PingReport> CampaignReplay::ping(const scion::SnetAddress& dst,
                                              const apps::PingOptions& options) {
  const util::SimTime start = host_.clock().now();
  Result<apps::PingReport> report = [&] {
    const SpanLog::Scope span = log_.open("apps.ping");
    return host_.ping(dst, options);
  }();
  ++stats_.ping_attempts;
  if (!report.ok()) {
    ++stats_.failed_attempts;
    return report;
  }
  const SpanLog::Scope side = log_.open("simnet.ping", true);
  simnet::PingOptions probe;
  probe.count = options.count;
  probe.interval = util::sim_seconds(options.interval_s);
  probe.payload_bytes = options.payload_bytes;
  const std::vector<simnet::NodeId> route =
      must(host_.route_of(report.value().path), "route_of");
  const simnet::PingStats again =
      must(host_.network().ping(route, probe, start), "side ping");
  require(again.rtt_ms == report.value().stats.rtt_ms,
          "side ping diverged from the host's ping");
  return report;
}

Result<apps::BwtestReport> CampaignReplay::bwtest(
    const scion::SnetAddress& dst, const apps::BwtestOptions& options) {
  const util::SimTime start = host_.clock().now();
  Result<apps::BwtestReport> report = [&] {
    const SpanLog::Scope span = log_.open("apps.bwtest");
    return host_.bwtestclient(dst, options);
  }();
  ++stats_.bwtest_attempts;
  if (!report.ok()) {
    ++stats_.failed_attempts;
    return report;
  }
  const SpanLog::Scope side = log_.open("simnet.bwtest", true);
  const auto probe_options = [](const apps::BwSpec& spec) {
    simnet::BwtestOptions probe;
    probe.duration_s = spec.duration_s.value_or(0.0);
    probe.packet_bytes = spec.packet_bytes.value_or(0.0);
    probe.target_mbps = spec.target_mbps.value_or(0.0);
    return probe;
  };
  const std::vector<simnet::NodeId> route =
      must(host_.route_of(report.value().path), "route_of");
  const std::vector<simnet::NodeId> reverse(route.rbegin(), route.rend());
  const simnet::BwtestOptions cs = probe_options(report.value().cs_resolved);
  const simnet::BwtestResult up =
      must(host_.network().bwtest(route, cs, start), "side bwtest up");
  const simnet::BwtestResult down = must(
      host_.network().bwtest(reverse,
                             probe_options(report.value().sc_resolved),
                             start + util::sim_seconds(cs.duration_s)),
      "side bwtest down");
  require(up.achieved_mbps == report.value().client_to_server.achieved_mbps &&
              down.achieved_mbps ==
                  report.value().server_to_client.achieved_mbps,
          "side bwtest diverged from the host's bwtest");
  return report;
}

void CampaignReplay::record_metrics_snapshot(const std::string& id,
                                             const std::string& stage) {
  docdb::Collection& metrics = db_.collection(measure::kCampaignMetrics);
  {
    const SpanLog::Scope span = log_.open("docdb.delete");
    metrics.delete_by_id(id);
  }
  util::Value snapshot;
  {
    const SpanLog::Scope span = log_.open("obs.snapshot");
    snapshot = registry_.snapshot();
  }
  docdb::Document doc;
  {
    const SpanLog::Scope span = log_.open("measure.metrics_document");
    doc = measure::metrics_document(id, stage, host_.clock().now(),
                                    std::move(snapshot));
  }
  const SpanLog::Scope span = log_.open("docdb.insert_one");
  must(metrics.insert_one(std::move(doc)), "campaign_metrics insert");
}

void CampaignReplay::run_unit(int server_id, int iteration) {
  const SpanLog::Scope unit_span = log_.open("measure.unit");
  ++stats_.units;
  const scion::SnetAddress destination =
      host_.env().servers.at(static_cast<std::size_t>(server_id - 1));

  util::JsonObject query;
  query.set("server_id", util::Value(server_id));
  const docdb::Filter by_server =
      must(docdb::Filter::compile(util::Value(std::move(query))), "filter");
  docdb::FindOptions in_order;
  in_order.sort_by = "path_index";
  const std::vector<docdb::Document> path_docs = [&] {
    const SpanLog::Scope span = log_.open("docdb.find");
    return db_.collection(measure::kPaths).find(by_server, in_order);
  }();

  measure::CircuitBreaker& breaker = breaker_for(server_id);
  std::vector<docdb::Document> batch;
  batch.reserve(path_docs.size());
  std::size_t path_tests = 0;
  std::size_t bw_failures = 0;

  for (const docdb::Document& path_doc : path_docs) {
    const measure::PathRecord record = [&] {
      const SpanLog::Scope span = log_.open("measure.parse_path");
      return must(measure::parse_path_document(path_doc), "path document");
    }();
    if (!breaker.allow(host_.clock().now())) continue;
    const SpanLog::Scope path_span = log_.open("measure.path_test");

    measure::StatsSample sample;
    sample.path_id = record.id;
    sample.server_id = server_id;
    sample.hop_count = record.hop_count;
    sample.isds = record.isds;
    sample.target_mbps = config_.bw_target_mbps;

    apps::PingOptions ping_options;
    ping_options.count = config_.ping_count;
    ping_options.interval_s = config_.ping_interval_s;
    ping_options.sequence = record.sequence;
    const Result<apps::PingReport> ping =
        measure::run_with_retry<apps::PingReport>(
            config_.retry, host_.clock(), "ping:" + sample.path_id,
            stats_.retry, [&] { return this->ping(destination, ping_options); });
    if (!ping.ok()) {
      if (!control_plane_death(ping.error())) {
        breaker.record_failure(host_.clock().now());
      }
      continue;
    }
    sample.latency_ms = ping.value().stats.avg_ms();
    sample.loss_pct = ping.value().stats.loss_pct();
    sample.jitter_ms = ping.value().stats.stddev_ms();

    const auto bw_spec = [&](std::string_view size) {
      return util::format("%g,%.*s,?,%gMbps", config_.bw_duration_s,
                          static_cast<int>(size.size()), size.data(),
                          config_.bw_target_mbps);
    };
    const auto run_bwtest = [&](const std::string& spec,
                                std::string_view label) {
      apps::BwtestOptions options;
      options.cs_spec = spec;
      options.sequence = record.sequence;
      return measure::run_with_retry<apps::BwtestReport>(
          config_.retry, host_.clock(),
          std::string(label) + ":" + sample.path_id, stats_.retry,
          [&] { return bwtest(destination, options); });
    };
    const Result<apps::BwtestReport> small = run_bwtest(
        bw_spec(util::format("%g", config_.small_packet_bytes)), "bw64");
    const Result<apps::BwtestReport> mtu = run_bwtest(bw_spec("MTU"), "bwmtu");

    bool operation_failed = false;
    bool data_plane_failed = false;
    if (small.ok()) {
      sample.bw_up_64 = small.value().client_to_server.achieved_mbps;
      sample.bw_down_64 = small.value().server_to_client.achieved_mbps;
    } else {
      ++bw_failures;
      operation_failed = true;
      data_plane_failed |= !control_plane_death(small.error());
    }
    if (mtu.ok()) {
      sample.bw_up_mtu = mtu.value().client_to_server.achieved_mbps;
      sample.bw_down_mtu = mtu.value().server_to_client.achieved_mbps;
    } else {
      ++bw_failures;
      operation_failed = true;
      data_plane_failed |= !control_plane_death(mtu.error());
    }
    if (operation_failed) {
      if (data_plane_failed) breaker.record_failure(host_.clock().now());
    } else {
      breaker.record_success();
    }

    sample.timestamp = host_.clock().now();
    {
      const SpanLog::Scope span = log_.open("measure.stats_document");
      batch.push_back(measure::stats_document(sample));
    }
    ++path_tests;
    host_.clock().advance(util::sim_seconds(config_.inter_test_gap_s));
  }
  stats_.probes.add(kProbesPerPathTest * path_docs.size(),
                    kProbesPerPathTest * path_tests - bw_failures);

  const std::size_t batch_size = batch.size();
  if (batch_size > 0) {
    const SpanLog::Scope span = log_.open("docdb.insert_many");
    must(db_.collection(measure::kPathsStats).insert_many(std::move(batch)),
         "paths_stats batch insert");
  }
  if (!config_.checkpoints) return;

  measure::CampaignCheckpoint checkpoint;
  checkpoint.server_id = server_id;
  checkpoint.iteration = iteration;
  checkpoint.clock_end = host_.clock().now();
  checkpoint.samples_stored = batch_size;
  checkpoint.breaker_failures = breaker.consecutive_failures();
  checkpoint.breaker_open = breaker.is_open();
  checkpoint.breaker_opened_at = breaker.opened_at();
  {
    const SpanLog::Scope span = log_.open("scion.checkpoint");
    checkpoint.path_cache = host_.control_plane().checkpoint();
  }
  docdb::Document doc;
  {
    const SpanLog::Scope span = log_.open("measure.checkpoint_encode");
    doc = measure::checkpoint_document(checkpoint);
  }
  docdb::Collection& checkpoints = db_.collection(measure::kCampaignCheckpoints);
  {
    const SpanLog::Scope span = log_.open("docdb.delete");
    checkpoints.delete_by_id(measure::checkpoint_doc_id(server_id, iteration));
  }
  {
    const SpanLog::Scope span = log_.open("docdb.insert_one");
    must(checkpoints.insert_one(std::move(doc)), "checkpoint insert");
  }
  if (config_.metrics_snapshots) record_metrics_snapshot("latest", "checkpoint");
}

void CampaignReplay::finish() {
  if (config_.metrics_snapshots) record_metrics_snapshot("final", "final");
}

}  // namespace perfbench
