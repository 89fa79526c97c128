// Integration: cross-build golden values for the seeded simulator.
//
// The determinism tests elsewhere compare two runs of the same build, so
// a change that silently moves every RNG fork seed (a different label
// text, a different hash) would pass them all.  This file pins fixed-seed
// outputs as constants instead: the simnet samples on the SCIONLab
// testbed with garble and link-flap faults enabled, and a digest of a
// small in-memory campaign's stored documents.  A failure here means the
// sampled behaviour changed, not that a test needs regenerating.
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
  measure::TestSuiteConfig config;
  config.iterations = 2;
  config.server_ids = {{1, 3, 5}};
  measure::TestSuite suite(host_, db, config);
  ASSERT_TRUE(suite.run().ok());

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

}  // namespace
}  // namespace upin
