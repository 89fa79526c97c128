// Tests for obs/metrics: counters, gauges, latency histograms, registry.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace upin::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ConcurrentAddsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
}

TEST(LatencyHistogram, PlacesSamplesInBuckets) {
  LatencyHistogram h(0.0, 10.0, 5);
  h.observe(0.5);   // bin 0
  h.observe(3.0);   // bin 1
  h.observe(9.99);  // bin 4
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 3.0 + 9.99);
  EXPECT_DOUBLE_EQ(h.mean(), (0.5 + 3.0 + 9.99) / 3.0);
}

TEST(LatencyHistogram, ClampsOutOfRangeAndInfinities) {
  LatencyHistogram h(0.0, 10.0, 5);
  h.observe(-7.0);                                     // below lo -> bin 0
  h.observe(-std::numeric_limits<double>::infinity());  // -> bin 0
  h.observe(50.0);                                     // above hi -> last bin
  h.observe(std::numeric_limits<double>::infinity());   // -> last bin
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(LatencyHistogram, BinEdges) {
  LatencyHistogram h(10.0, 20.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_low(0), 10.0);
  EXPECT_DOUBLE_EQ(h.bin_high(0), 12.5);
  EXPECT_DOUBLE_EQ(h.bin_low(3), 17.5);
  EXPECT_DOUBLE_EQ(h.bin_high(3), 20.0);
}

TEST(LatencyHistogram, QuantileReturnsBucketUpperEdge) {
  LatencyHistogram h(0.0, 100.0, 10);
  for (int i = 0; i < 9; ++i) h.observe(5.0);  // bin 0, edge 10
  h.observe(95.0);                             // bin 9, edge 100
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(LatencyHistogram, EmptyQuantileAndMeanAreZero) {
  LatencyHistogram h(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogram, SingleBinSwallowsEverything) {
  LatencyHistogram h(0.0, 1.0, 1);
  h.observe(-5.0);
  h.observe(0.5);
  h.observe(99.0);
  EXPECT_EQ(h.bin_count(), 1u);
  EXPECT_EQ(h.count(0), 3u);
}

TEST(Registry, GetOrCreateReturnsSameInstance) {
  Registry registry;
  Counter& a = registry.counter("upin_test_total");
  Counter& b = registry.counter("upin_test_total");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  // First histogram registration fixes the bucket layout.
  LatencyHistogram& h1 = registry.histogram("upin_test_us", 0.0, 10.0, 5);
  LatencyHistogram& h2 = registry.histogram("upin_test_us", 0.0, 999.0, 99);
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bin_count(), 5u);
}

TEST(Registry, PrometheusExposition) {
  Registry registry;
  registry.counter("upin_b_total").add(2);
  registry.counter("upin_a_total").add(1);
  registry.gauge("upin_g").set(-4);
  LatencyHistogram& h = registry.histogram("upin_lat_us", 0.0, 10.0, 2);
  h.observe(1.0);
  h.observe(7.0);
  const std::string text = registry.to_prometheus();
  // Counters are sorted by name; histogram buckets are cumulative.
  EXPECT_LT(text.find("upin_a_total 1"), text.find("upin_b_total 2"));
  EXPECT_NE(text.find("# TYPE upin_a_total counter"), std::string::npos);
  EXPECT_NE(text.find("upin_g -4"), std::string::npos);
  EXPECT_NE(text.find("upin_lat_us_bucket{le=\"5\"} 1"), std::string::npos);
  EXPECT_NE(text.find("upin_lat_us_bucket{le=\"10\"} 2"), std::string::npos);
  EXPECT_NE(text.find("upin_lat_us_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("upin_lat_us_sum 8"), std::string::npos);
  EXPECT_NE(text.find("upin_lat_us_count 2"), std::string::npos);
}

TEST(Registry, SnapshotShape) {
  Registry registry;
  registry.counter("upin_c_total").add(5);
  registry.gauge("upin_g").set(9);
  registry.histogram("upin_h_us", 0.0, 4.0, 2).observe(1.0);
  const util::Value snap = registry.snapshot();
  ASSERT_TRUE(snap.is_object());
  const util::Value* c = snap.get_path("counters.upin_c_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->as_int(), 5);
  const util::Value* g = snap.get_path("gauges.upin_g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->as_int(), 9);
  const util::Value* h = snap.get_path("histograms.upin_h_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->get("total")->as_int(), 1);
  EXPECT_DOUBLE_EQ(h->get("lo")->as_double(), 0.0);
  EXPECT_DOUBLE_EQ(h->get("width")->as_double(), 2.0);
  ASSERT_TRUE(h->get("buckets")->is_array());
  EXPECT_EQ(h->get("buckets")->as_array().size(), 2u);
  EXPECT_EQ(h->get("buckets")->as_array()[0].as_int(), 1);
}

TEST(PipelineSummary, ReportsJournalCounters) {
  Registry registry;
  registry.counter("upin_journal_events_enqueued_total").add(40);
  registry.counter("upin_journal_groups_committed_total").add(10);
  registry.counter("upin_journal_backpressure_stalls_total").add(2);
  registry.histogram("upin_journal_flush_latency_us", 0.0, 5000.0, 50)
      .observe(120.0);
  const std::string table = pipeline_summary(registry);
  EXPECT_NE(table.find("40 in 10 groups (mean group size 4.00)"),
            std::string::npos);
  EXPECT_NE(table.find("2 stalls"), std::string::npos);
  EXPECT_NE(table.find("flush latency"), std::string::npos);
}

TEST(LabeledMetrics, SeriesAreSeparablePerCampaign) {
  Registry registry;
  registry.counter("upin_fleet_units_total", "0").add(3);
  registry.counter("upin_fleet_units_total", "1").add(7);
  registry.gauge("upin_fleet_campaign_state", "0").set(2);
  registry.histogram("upin_fleet_unit_clock_s", "1", 0.0, 100.0, 10)
      .observe(12.0);

  // Same (family, campaign) resolves to the same instance.
  EXPECT_EQ(registry.counter("upin_fleet_units_total", "0").value(), 3u);
  EXPECT_EQ(registry.counter("upin_fleet_units_total", "1").value(), 7u);
  // A different campaign is an independent series.
  EXPECT_EQ(registry.counter("upin_fleet_units_total", "2").value(), 0u);
  // The labeled family does not collide with an unlabeled metric.
  EXPECT_EQ(registry.counter("upin_fleet_units_total2").value(), 0u);
}

TEST(LabeledMetrics, PrometheusExpositionCarriesTheCampaignLabel) {
  Registry registry;
  registry.counter("upin_fleet_units_total", "0").add(5);
  registry.counter("upin_fleet_units_total", "3").add(1);
  registry.gauge("upin_fleet_campaign_state", "3").set(1);
  registry.histogram("upin_fleet_unit_clock_s", "3", 0.0, 10.0, 2)
      .observe(4.0);
  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("# TYPE upin_fleet_units_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("upin_fleet_units_total{campaign=\"0\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("upin_fleet_units_total{campaign=\"3\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("upin_fleet_campaign_state{campaign=\"3\"} 1"),
            std::string::npos);
  EXPECT_NE(
      text.find("upin_fleet_unit_clock_s_bucket{campaign=\"3\",le=\"5\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("upin_fleet_unit_clock_s_count{campaign=\"3\"} 1"),
            std::string::npos);
  // One TYPE line per family, not one per labeled series.
  std::size_t type_lines = 0;
  for (std::size_t at = text.find("# TYPE upin_fleet_units_total counter");
       at != std::string::npos;
       at = text.find("# TYPE upin_fleet_units_total counter", at + 1)) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
}

TEST(LabeledMetrics, SnapshotCoversLabeledSeries) {
  Registry registry;
  registry.counter("upin_fleet_errors_total", "2").add(4);
  registry.gauge("upin_fleet_lane_depth", "2").set(3);
  const util::Value snap = registry.snapshot();
  const util::Value* counter =
      snap.get_path("counters.upin_fleet_errors_total{campaign=\"2\"}");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->try_int().value_or(-1), 4);
  const util::Value* gauge =
      snap.get_path("gauges.upin_fleet_lane_depth{campaign=\"2\"}");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->try_int().value_or(-1), 3);
}

TEST(PipelineSummary, EmptyRegistryIsAllZeros) {
  Registry registry;
  const std::string table = pipeline_summary(registry);
  EXPECT_NE(table.find("0 in 0 groups"), std::string::npos);
  EXPECT_NE(table.find("0 stalls"), std::string::npos);
}

}  // namespace
}  // namespace upin::obs
