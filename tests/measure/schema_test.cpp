// Tests for measure/schema: document ids, builders, round trips.
#include "measure/schema.hpp"

#include <gtest/gtest.h>

#include <functional>

namespace upin::measure {
namespace {

using scion::IsdAsn;
using scion::make_asn;
using scion::Path;
using scion::PathHop;

Path sample_path() {
  std::vector<PathHop> hops{
      {IsdAsn(17, make_asn(1, 0xf00)), 0, 1},
      {IsdAsn(17, make_asn(0, 0x1107)), 4, 1},
      {IsdAsn(16, make_asn(0, 0x1002)), 1, 0},
  };
  return Path(std::move(hops), 1452.0, util::sim_millis(23.0));
}

TEST(Schema, PathDocIdMatchesPaperFormat) {
  // "a path whose id is 2_15 identifies the path 15 of the destination 2".
  EXPECT_EQ(path_doc_id(2, 15), "2_15");
}

TEST(Schema, StatsDocIdAppendsTimestamp) {
  EXPECT_EQ(stats_doc_id("2_15", util::sim_seconds(12.0)),
            "2_15_000000012000");
}

TEST(Schema, ServerDocumentFields) {
  const scion::SnetAddress addr{IsdAsn(16, make_asn(0, 0x1002)), "172.31.43.7"};
  const docdb::Document doc = server_document(3, addr);
  EXPECT_EQ(doc.get("_id")->as_string(), "3");
  EXPECT_EQ(doc.get("server_id")->as_int(), 3);
  EXPECT_EQ(doc.get("address")->as_string(), "16-ffaa:0:1002,[172.31.43.7]");
  EXPECT_EQ(doc.get("isd_as")->as_string(), "16-ffaa:0:1002");
  EXPECT_EQ(doc.get("host")->as_string(), "172.31.43.7");
}

TEST(Schema, PathDocumentFields) {
  const docdb::Document doc = path_document(3, 7, sample_path());
  EXPECT_EQ(doc.get("_id")->as_string(), "3_7");
  EXPECT_EQ(doc.get("server_id")->as_int(), 3);
  EXPECT_EQ(doc.get("path_index")->as_int(), 7);
  EXPECT_EQ(doc.get("hop_count")->as_int(), 3);
  EXPECT_EQ(doc.get("hops")->as_array().size(), 3u);
  EXPECT_EQ(doc.get("isds")->as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(doc.get("mtu")->as_double(), 1452.0);
  EXPECT_EQ(doc.get("status")->as_string(), "alive");
  EXPECT_NEAR(doc.get("static_latency_ms")->as_double(), 23.0, 1e-6);
}

TEST(Schema, PathDocumentRoundTrip) {
  const docdb::Document doc = path_document(3, 7, sample_path());
  const auto record = parse_path_document(doc);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record.value().id, "3_7");
  EXPECT_EQ(record.value().server_id, 3);
  EXPECT_EQ(record.value().path_index, 7);
  EXPECT_EQ(record.value().hop_count, 3u);
  EXPECT_EQ(record.value().isds, (std::vector<std::int64_t>{16, 17}));
  EXPECT_EQ(record.value().sequence, sample_path().sequence());
}

TEST(Schema, ParsePathDocumentRejectsMalformed) {
  EXPECT_FALSE(parse_path_document(util::Value()).ok());
  EXPECT_FALSE(
      parse_path_document(util::Value::object({{"_id", "x"}})).ok());
  docdb::Document no_isds = path_document(1, 0, sample_path());
  no_isds.as_object().erase("isds");
  EXPECT_FALSE(parse_path_document(no_isds).ok());
}

StatsSample full_sample() {
  StatsSample sample;
  sample.path_id = "3_7";
  sample.server_id = 3;
  sample.timestamp = util::sim_seconds(100.0);
  sample.hop_count = 5;
  sample.isds = {16, 17};
  sample.latency_ms = 41.5;
  sample.loss_pct = 3.3;
  sample.jitter_ms = 0.6;
  sample.bw_up_64 = 4.1;
  sample.bw_down_64 = 11.2;
  sample.bw_up_mtu = 9.0;
  sample.bw_down_mtu = 11.7;
  sample.target_mbps = 12.0;
  return sample;
}

TEST(Schema, StatsDocumentRoundTrip) {
  const docdb::Document doc = stats_document(full_sample());
  EXPECT_EQ(doc.get("_id")->as_string(), "3_7_000000100000");
  const auto parsed = parse_stats_document(doc);
  ASSERT_TRUE(parsed.ok());
  const StatsSample& s = parsed.value();
  EXPECT_EQ(s.path_id, "3_7");
  EXPECT_EQ(s.server_id, 3);
  EXPECT_EQ(s.timestamp, util::sim_seconds(100.0));
  EXPECT_EQ(s.hop_count, 5u);
  EXPECT_EQ(s.isds, (std::vector<std::int64_t>{16, 17}));
  EXPECT_DOUBLE_EQ(*s.latency_ms, 41.5);
  EXPECT_DOUBLE_EQ(s.loss_pct, 3.3);
  EXPECT_DOUBLE_EQ(*s.jitter_ms, 0.6);
  EXPECT_DOUBLE_EQ(*s.bw_up_64, 4.1);
  EXPECT_DOUBLE_EQ(*s.bw_down_mtu, 11.7);
  EXPECT_DOUBLE_EQ(s.target_mbps, 12.0);
}

TEST(Schema, StatsDocumentOmitsUnavailableMetrics) {
  // A fully lost ping has no latency/jitter; failed bwtests no bandwidth.
  StatsSample sample = full_sample();
  sample.latency_ms.reset();
  sample.jitter_ms.reset();
  sample.bw_up_64.reset();
  sample.bw_down_64.reset();
  sample.bw_up_mtu.reset();
  sample.bw_down_mtu.reset();
  sample.loss_pct = 100.0;
  const docdb::Document doc = stats_document(sample);
  EXPECT_EQ(doc.get("latency_ms"), nullptr);
  EXPECT_EQ(doc.get("jitter_ms"), nullptr);
  const auto parsed = parse_stats_document(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().latency_ms.has_value());
  EXPECT_FALSE(parsed.value().bw_down_mtu.has_value());
  EXPECT_DOUBLE_EQ(parsed.value().loss_pct, 100.0);
}

TEST(Schema, ParseStatsDocumentRejectsMalformed) {
  EXPECT_FALSE(parse_stats_document(util::Value()).ok());
  docdb::Document missing = stats_document(full_sample());
  missing.as_object().erase("path_id");
  EXPECT_FALSE(parse_stats_document(missing).ok());
}

TEST(Schema, StatsReaderAndParserAcceptTheSameDocuments) {
  struct Row {
    const char* name;
    std::function<void(util::JsonObject&)> edit;
    bool accepted;
  };
  const auto set = [](const char* field, util::Value value) {
    return [field, value](util::JsonObject& doc) { doc.set(field, value); };
  };
  const auto erase = [](const char* field) {
    return [field](util::JsonObject& doc) { doc.erase(field); };
  };
  const std::vector<Row> table = {
      {"as written", [](util::JsonObject&) {}, true},
      {"no path_id", erase("path_id"), false},
      {"integer path_id", set("path_id", util::Value(7)), false},
      {"no server_id", erase("server_id"), false},
      {"double server_id", set("server_id", util::Value(3.0)), false},
      {"string timestamp_ms", set("timestamp_ms", util::Value("soon")), false},
      {"no hop_count", erase("hop_count"), false},
      {"no loss_pct", erase("loss_pct"), false},
      {"string loss_pct", set("loss_pct", util::Value("3%")), false},
      {"integer loss_pct", set("loss_pct", util::Value(3)), true},
      {"no isds", erase("isds"), false},
      {"object isds", set("isds", util::Value::object({{"a", 16}})), false},
      {"non-int isds entry",
       set("isds", util::Value(util::Value::Array{util::Value(16),
                                                  util::Value("17")})),
       false},
      {"empty isds", set("isds", util::Value(util::Value::Array{})), true},
      {"string latency_ms", set("latency_ms", util::Value("fast")), true},
      {"null jitter_ms", set("jitter_ms", util::Value()), true},
      {"number bw", set("bw", util::Value(11.0)), true},
      {"array bw", set("bw", util::Value(util::Value::Array{util::Value(1)})),
       true},
      {"string bw field",
       set("bw", util::Value::object({{"up_64", "x"}, {"down_mtu", 9.5}})),
       true},
      {"string target_mbps", set("target_mbps", util::Value("12")), true},
  };

  for (const Row& row : table) {
    util::JsonObject fields = stats_document(full_sample()).as_object();
    row.edit(fields);
    const docdb::Document doc(std::move(fields));
    const std::optional<StatsView> view = read_stats_document(doc);
    const util::Result<StatsSample> parsed = parse_stats_document(doc);
    EXPECT_EQ(view.has_value(), row.accepted) << row.name;
    EXPECT_EQ(parsed.ok(), row.accepted) << row.name;
    if (!view.has_value() || !parsed.ok()) continue;

    // An accepted document reads the same through both.
    const StatsSample& sample = parsed.value();
    EXPECT_EQ(view->path_id, sample.path_id) << row.name;
    EXPECT_EQ(view->server_id, sample.server_id) << row.name;
    EXPECT_EQ(util::SimTime(view->timestamp_ms * 1'000'000), sample.timestamp)
        << row.name;
    EXPECT_EQ(static_cast<std::size_t>(view->hop_count), sample.hop_count)
        << row.name;
    ASSERT_NE(view->isds, nullptr) << row.name;
    ASSERT_EQ(view->isds->size(), sample.isds.size()) << row.name;
    for (std::size_t i = 0; i < sample.isds.size(); ++i) {
      EXPECT_EQ((*view->isds)[i].as_int(), sample.isds[i]) << row.name;
    }
    EXPECT_EQ(view->loss_pct, sample.loss_pct) << row.name;
    EXPECT_EQ(view->latency_ms, sample.latency_ms) << row.name;
    EXPECT_EQ(view->jitter_ms, sample.jitter_ms) << row.name;
    EXPECT_EQ(view->bw_up_64, sample.bw_up_64) << row.name;
    EXPECT_EQ(view->bw_down_64, sample.bw_down_64) << row.name;
    EXPECT_EQ(view->bw_up_mtu, sample.bw_up_mtu) << row.name;
    EXPECT_EQ(view->bw_down_mtu, sample.bw_down_mtu) << row.name;
    EXPECT_EQ(view->target_mbps.value_or(0.0), sample.target_mbps) << row.name;
  }

  for (const util::Value& not_an_object :
       {util::Value(), util::Value(5), util::Value(util::Value::Array{})}) {
    EXPECT_FALSE(read_stats_document(not_an_object).has_value());
    EXPECT_FALSE(parse_stats_document(not_an_object).ok());
  }

  // Spot-check the partial reads the table only compares.
  util::JsonObject partial = stats_document(full_sample()).as_object();
  partial.set("latency_ms", util::Value("fast"));
  partial.set("bw", util::Value::object({{"up_64", "x"}, {"down_mtu", 9.5}}));
  const std::optional<StatsView> view =
      read_stats_document(util::Value(std::move(partial)));
  ASSERT_TRUE(view.has_value());
  EXPECT_FALSE(view->latency_ms.has_value());
  EXPECT_FALSE(view->bw_up_64.has_value());
  EXPECT_EQ(view->bw_down_mtu, 9.5);
  EXPECT_EQ(view->loss_pct, 3.3);
}

TEST(Schema, CollectionNamesMatchPaperFig3) {
  EXPECT_STREQ(kAvailableServers, "availableServers");
  EXPECT_STREQ(kPaths, "paths");
  EXPECT_STREQ(kPathsStats, "paths_stats");
}

}  // namespace
}  // namespace upin::measure
