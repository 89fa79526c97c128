// Integration: cross-build golden values for the seeded simulator.
//
// The determinism tests elsewhere compare two runs of the same build, so
// a change that silently moves every RNG fork seed (a different label
// text, a different hash) would pass them all.  This file pins fixed-seed
// outputs as constants instead: the simnet samples on the SCIONLab
// testbed with garble and link-flap faults enabled, a digest of a small
// in-memory campaign's stored documents, and what the path selector reads
// out of that campaign: every PathSummary field and every built-in
// strategy's ranking over a fixed list of requests.  A failure here means
// the sampled or selected behaviour changed, not that a test needs
// regenerating.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/host.hpp"
#include "docdb/database.hpp"
#include "measure/schema.hpp"
#include "measure/testsuite.hpp"
#include "scion/scionlab.hpp"
#include "select/selector.hpp"
#include "simnet/network.hpp"
#include "util/sha256.hpp"

namespace upin {
namespace {

using simnet::NodeId;
using util::sim_seconds;
using util::SimTime;

simnet::NetworkConfig faulty_config() {
  simnet::NetworkConfig config;
  config.faults.garble_prob = 0.15;
  config.faults.link_flap_per_hour = 4.0;
  return config;
}

std::string hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

std::string hex(const std::optional<double>& value) {
  return value.has_value() ? hex(*value) : std::string("lost");
}

std::string digest(const std::string& text) {
  return util::to_hex(util::Sha256::hash(text));
}

/// Every stored document of `collection`, ordered by id, one per line.
std::string dump_collection(const docdb::Database& db, const std::string& name) {
  const docdb::Collection* collection = db.find_collection(name);
  if (collection == nullptr) return {};
  std::vector<std::pair<std::string, std::string>> docs;
  collection->for_each([&](const docdb::Document& doc) {
    docs.emplace_back(std::string(docdb::document_id(doc).value_or("")),
                      doc.dump());
  });
  std::sort(docs.begin(), docs.end());
  std::string text;
  for (const auto& [id, body] : docs) {
    text += body;
    text.push_back('\n');
  }
  return text;
}

class CrossBuildGolden : public ::testing::Test {
 protected:
  CrossBuildGolden()
      : env_(scion::scionlab_topology()),
        host_(env_, 2023, env_.user_as, "10.0.8.1", faulty_config()) {}

  /// Simnet routes of the first showpaths rows to servers 1..5.
  std::vector<std::vector<NodeId>> routes() const {
    std::vector<std::vector<NodeId>> out;
    for (std::size_t server = 0; server < 5; ++server) {
      const auto listings =
          host_.showpaths(env_.servers[server].ia, {.max_paths = 3});
      EXPECT_TRUE(listings.ok());
      if (!listings.ok()) continue;
      for (const apps::PathListing& listing : listings.value()) {
        const auto route = host_.route_of(listing.path);
        EXPECT_TRUE(route.ok());
        if (route.ok()) out.push_back(route.value());
      }
    }
    return out;
  }

  /// The small fixed-seed campaign both document and selection goldens
  /// read: servers 1, 3 and 5, two iterations, in memory.
  void run_campaign(docdb::Database& db) {
    measure::TestSuiteConfig config;
    config.iterations = 2;
    config.server_ids = {{1, 3, 5}};
    measure::TestSuite suite(host_, db, config);
    ASSERT_TRUE(suite.run().ok());
  }

  scion::ScionlabEnv env_;
  apps::ScionHost host_;
};

TEST_F(CrossBuildGolden, PingRttsAreHexFloatExact) {
  const simnet::Network& net = host_.network();
  const std::vector<std::vector<NodeId>> all = routes();
  ASSERT_EQ(all.size(), 15u);

  std::ostringstream transcript;
  std::size_t garbled = 0;
  std::size_t lost = 0;
  for (std::size_t r = 0; r < all.size(); ++r) {
    for (int step = 0; step < 24; ++step) {
      const SimTime start = sim_seconds(137.0 * step + 11.0 * static_cast<double>(r));
      const auto stats = net.ping(all[r], {.count = 10}, start);
      transcript << r << '@' << start.count() << ':';
      if (!stats.ok()) {
        ++garbled;
        transcript << " error " << stats.error().message << '\n';
        continue;
      }
      for (const auto& rtt : stats.value().rtt_ms) {
        if (!rtt.has_value()) ++lost;
        transcript << ' ' << hex(rtt);
      }
      transcript << '\n';
    }
  }
  // Both injected fault classes and ordinary loss show up in the sample.
  EXPECT_GT(garbled, 0u);
  EXPECT_GT(lost, 0u);

  const auto first = net.ping(all[0], {.count = 3}, sim_seconds(0.0));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(hex(first.value().rtt_ms[0]), "0x1.1149d2a740187p+4");
  EXPECT_EQ(hex(first.value().rtt_ms[1]), "0x1.04b9211ac5007p+4");
  EXPECT_EQ(hex(first.value().rtt_ms[2]), "0x1.00b6ea8f8e0dap+4");
  EXPECT_EQ(garbled, 53u);
  EXPECT_EQ(lost, 787u);
  EXPECT_EQ(digest(transcript.str()), "ad1563009e0bd8dd1e3095bfa19007729676b90068783edb1e7f9bce1f03409e");
}

TEST_F(CrossBuildGolden, LinkStateBwtestAndTracerouteAreExact) {
  const simnet::Network& net = host_.network();
  const std::vector<std::vector<NodeId>> all = routes();
  ASSERT_EQ(all.size(), 15u);

  std::ostringstream links;
  std::size_t flapped = 0;
  for (NodeId from = 0; from < net.node_count(); ++from) {
    for (NodeId to = 0; to < net.node_count(); ++to) {
      if (net.find_link(from, to) == nullptr) continue;
      for (int step = 0; step < 6; ++step) {
        const SimTime t = sim_seconds(601.0 * step + 0.25);
        if (net.faults().link_flapped(from, to, t)) ++flapped;
        links << from << '>' << to << '@' << t.count() << ' '
              << hex(net.utilization(from, to, t)) << ' '
              << hex(net.frame_loss(from, to, t)) << '\n';
      }
    }
  }

  std::ostringstream bw;
  for (std::size_t r = 0; r < all.size(); ++r) {
    for (int step = 0; step < 8; ++step) {
      const SimTime start = sim_seconds(401.0 * step + 3.0 * static_cast<double>(r));
      for (const double packet : {64.0, 1000.0, 1472.0}) {
        const auto result = net.bwtest(
            all[r], {.duration_s = 3.0, .packet_bytes = packet, .target_mbps = 12.0},
            start);
        bw << r << '@' << start.count() << '/' << hex(packet) << ':';
        if (!result.ok()) {
          bw << " error " << result.error().message << '\n';
          continue;
        }
        const simnet::BwtestResult& value = result.value();
        bw << ' ' << hex(value.attempted_mbps) << ' ' << hex(value.achieved_mbps)
           << ' ' << value.packets_sent << ' ' << value.packets_lost << ' '
           << value.frames_per_packet << ' '
           << hex(value.bottleneck_available_mbps) << '\n';
      }
    }
  }

  std::ostringstream trace;
  for (std::size_t r = 0; r < all.size(); ++r) {
    for (int step = 0; step < 4; ++step) {
      const SimTime start = sim_seconds(977.0 * step + 5.0 * static_cast<double>(r));
      const auto result = net.traceroute(all[r], start);
      ASSERT_TRUE(result.ok());
      trace << r << '@' << start.count() << ':';
      for (const simnet::TraceHop& hop : result.value().hops) {
        trace << ' ' << hop.node << '=' << hex(hop.rtt_ms);
      }
      trace << '\n';
    }
  }

  std::ostringstream multi;
  for (int step = 0; step < 6; ++step) {
    const SimTime start = sim_seconds(733.0 * step);
    std::vector<simnet::FlowSpec> flows;
    for (std::size_t r = 0; r < 3; ++r) {
      flows.push_back({all[r], {.duration_s = 3.0,
                                .packet_bytes = 1000.0,
                                .target_mbps = 40.0 + 10.0 * static_cast<double>(r)}});
    }
    const auto outcome = net.multibwtest(flows, start);
    ASSERT_TRUE(outcome.ok());
    multi << start.count() << ':';
    for (const auto& flow : outcome.value().flows) {
      if (flow.ok) {
        multi << ' ' << hex(flow.result.achieved_mbps);
      } else {
        multi << " error " << flow.error.message;
      }
    }
    for (const simnet::SharedBottleneck& shared :
         outcome.value().shared_bottlenecks) {
      multi << " | " << shared.from << '>' << shared.to << ' '
            << hex(shared.available_mbps) << ' ' << hex(shared.offered_wire_mbps);
    }
    multi << '\n';
  }

  EXPECT_EQ(flapped, 20u);  // injected flaps are part of the sample
  EXPECT_EQ(digest(links.str()), "52f5e2cbf8e3b8229041dcbf68e48f6d8b0286bf8de17f92873f05a3a34bb307");
  EXPECT_EQ(digest(bw.str()), "4ff536784239c1857889821e6fa597ff2ec72f6d3dfb0b41e48719b8338572dd");
  EXPECT_EQ(digest(trace.str()), "fade0a54d43c44c742d7deb4dde6f22fc0ccaa8d35105f069ac477662dc9a2a9");
  EXPECT_EQ(digest(multi.str()), "f9ea181c0ec1ca810234bf66d6de0bf6e47d45f33e29b896e0f079cc426679d7");
}

TEST_F(CrossBuildGolden, CampaignDocumentsDigest) {
  docdb::Database db;  // in memory
  run_campaign(db);

  const std::string stats = dump_collection(db, measure::kPathsStats);
  const std::string checkpoints =
      dump_collection(db, measure::kCampaignCheckpoints);
  ASSERT_FALSE(stats.empty());
  ASSERT_FALSE(checkpoints.empty());
  EXPECT_EQ(stats.size(), 12627u);
  EXPECT_EQ(checkpoints.size(), 2726u);
  EXPECT_EQ(digest(stats), "319bf3e778fc0099eb7e687c05fc56ea290cb0beae0c813ed69ff1d54c20c2b4");
  EXPECT_EQ(digest(checkpoints), "ca19d0849a0496f603749d940c5e3fd47f50f3f2d362dbb40ae3c1d30b6906eb");
}

/// Every PathSummary field on one line; doubles as hex floats.
std::string render(const select::PathSummary& summary) {
  const auto optional = [](const std::optional<double>& value) {
    return value.has_value() ? hex(*value) : std::string("none");
  };
  std::ostringstream out;
  out << summary.path_id << " server=" << summary.server_id
      << " seq=" << summary.sequence << " hops=";
  for (const scion::IsdAsn& hop : summary.hops) out << hop.to_string() << ',';
  out << " hop_count=" << summary.hop_count << " isds=";
  for (const std::int64_t isd : summary.isds) out << isd << ',';
  out << " mtu=" << hex(summary.mtu) << " samples=" << summary.samples
      << " latency_samples=" << summary.latency_samples << " latency=";
  if (summary.latency_ms.has_value()) {
    const util::BoxStats& box = *summary.latency_ms;
    out << box.count << ' ' << hex(box.minimum) << ' ' << hex(box.maximum)
        << ' ' << hex(box.mean) << ' ' << hex(box.q1) << ' ' << hex(box.median)
        << ' ' << hex(box.q3) << ' ' << hex(box.iqr) << ' '
        << hex(box.whisker_low) << ' ' << hex(box.whisker_high) << " outliers";
    for (const double outlier : box.outliers) out << ' ' << hex(outlier);
  } else {
    out << "none";
  }
  out << " loss=" << hex(summary.mean_loss_pct)
      << " jitter=" << optional(summary.mean_jitter_ms)
      << " bw=" << optional(summary.mean_bw_down_mtu) << ' '
      << optional(summary.mean_bw_up_mtu) << ' '
      << optional(summary.mean_bw_down_64) << ' '
      << optional(summary.mean_bw_up_64) << '\n';
  return out.str();
}

/// Requests covering every objective, both bandwidth directions, every
/// constraint kind and the freshness window, spread over the campaign's
/// three servers.  kSince falls between the campaign's two iterations.
constexpr std::int64_t kSince = 600000;

std::vector<select::UserRequest> golden_requests() {
  using select::BwDirection;
  using select::Objective;
  std::vector<select::UserRequest> requests;
  const auto add = [&](int server, Objective objective) -> select::UserRequest& {
    select::UserRequest& request = requests.emplace_back();
    request.server_id = server;
    request.objective = objective;
    return request;
  };
  add(1, Objective::kLowestLatency);
  add(3, Objective::kHighestBandwidth).bw_direction = BwDirection::kDownstream;
  add(5, Objective::kHighestBandwidth).bw_direction = BwDirection::kUpstream;
  add(1, Objective::kHighestBandwidth).bw_probe_bytes = 64.0;
  add(3, Objective::kLowestLoss);
  add(5, Objective::kMostConsistent);
  add(1, Objective::kLowestLatency).max_latency_ms = 23.0;
  {
    select::UserRequest& request = add(3, Objective::kHighestBandwidth);
    request.bw_direction = BwDirection::kUpstream;
    request.min_bandwidth_mbps = 6.0;
    request.bw_probe_bytes = 1400.0;
  }
  add(5, Objective::kLowestLatency).min_bandwidth_mbps = 11.8;
  add(1, Objective::kLowestLoss).max_loss_pct = 1.0;
  add(3, Objective::kMostConsistent).max_jitter_ms = 1.0;
  add(1, Objective::kLowestLatency).min_samples = 2;
  add(3, Objective::kLowestLatency).exclude_countries = {"US"};
  add(1, Objective::kLowestLatency).exclude_operators = {"AWS"};
  add(3, Objective::kMostConsistent).exclude_ases = {scion::scionlab::kOhio};
  add(5, Objective::kLowestLoss).exclude_isds = {26};
  add(5, Objective::kHighestBandwidth).allowed_isds = {16, 17, 20};
  add(1, Objective::kLowestLatency).since_timestamp_ms = kSince;
  {
    select::UserRequest& request = add(1, Objective::kHighestBandwidth);
    request.bw_direction = BwDirection::kUpstream;
    request.since_timestamp_ms = kSince;
  }
  add(7, Objective::kLowestLatency);  // never measured: empty selection
  return requests;
}

TEST_F(CrossBuildGolden, SelectionSummariesAreHexFloatExact) {
  docdb::Database db;  // in memory
  run_campaign(db);
  const select::PathSelector selector(db, env_.topology);

  std::string transcript;
  std::size_t summaries = 0;
  for (const int server : {1, 2, 3, 5}) {
    for (const std::optional<std::int64_t> since :
         {std::optional<std::int64_t>{}, std::optional<std::int64_t>{kSince}}) {
      const auto summarized = selector.summarize(server, since);
      ASSERT_TRUE(summarized.ok());
      std::string block = "server " + std::to_string(server) + " since " +
                          (since ? std::to_string(*since) : "-") + '\n';
      for (const select::PathSummary& summary : summarized.value()) {
        block += render(summary);
      }
      summaries += summarized.value().size();
      transcript += block;
    }
  }

  const auto first = selector.summarize(1);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first.value().empty());
  const select::PathSummary& path = first.value().front();
  EXPECT_EQ(path.path_id, "1_0");
  ASSERT_TRUE(path.latency_ms.has_value());
  EXPECT_EQ(hex(path.latency_ms->median), "0x1.0b3abbf25c1d6p+4");
  EXPECT_EQ(hex(path.mean_loss_pct), "0x0p+0");
  EXPECT_EQ(summaries, 82u);
  EXPECT_EQ(digest(transcript), "48a334a72e604375195a84ad61696f6c8a5a9ae907e7ffccbbcf69d8f8b0ea29") << transcript;
}

TEST_F(CrossBuildGolden, SelectionRankingsAreExact) {
  docdb::Database db;  // in memory
  run_campaign(db);
  const select::PathSelector selector(db, env_.topology);

  std::string transcript;
  std::size_t ranked = 0;
  std::size_t rejected = 0;
  for (const select::UserRequest& request : golden_requests()) {
    for (const std::string_view strategy :
         {select::kPaperObjective, select::kLatencyGreedy, select::kLossAverse,
          select::kGeoConstrained, select::kDisjointnessMax}) {
      const auto selection = selector.select_with(strategy, request);
      ASSERT_TRUE(selection.ok()) << strategy << ' ' << request.describe();
      transcript += std::string(strategy) + " | " + request.describe() + " |";
      for (const select::RankedPath& path : selection.value().ranked) {
        transcript += ' ' + path.summary.path_id + '=' + hex(path.score);
      }
      transcript += " | rejected";
      for (const auto& [path_id, reason] : selection.value().rejected) {
        transcript += ' ' + path_id;
      }
      transcript += '\n';
      ranked += selection.value().ranked.size();
      rejected += selection.value().rejected.size();
    }
  }

  select::UserRequest lowest_latency;
  lowest_latency.server_id = 1;
  const auto best = selector.best(lowest_latency);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best.value().summary.path_id, "1_0");
  EXPECT_EQ(ranked, 737u);
  EXPECT_EQ(rejected, 538u);
  EXPECT_EQ(digest(transcript), "d83e3db7d2f64a9f575e37a1d6b6e1678ce31de9ebabed008da98e939359b97a") << transcript;
}

}  // namespace
}  // namespace upin
