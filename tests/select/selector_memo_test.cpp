// Tests for the selector's path catalog and per-path summary memo: after
// any mutation of `paths` or `paths_stats`, a long-lived selector must
// answer exactly as a freshly built one, and summaries taken while a
// writer inserts must each be a path's summary before or after some batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "measure/schema.hpp"
#include "measure/testsuite.hpp"
#include "select/selector.hpp"

namespace upin::select {
namespace {

using docdb::Document;
using util::Value;

std::string hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

std::string hex(const std::optional<double>& value) {
  return value.has_value() ? hex(*value) : std::string("none");
}

/// Every PathSummary field on one line; doubles as hex floats.
std::string render(const PathSummary& summary) {
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
      << " jitter=" << hex(summary.mean_jitter_ms)
      << " bw=" << hex(summary.mean_bw_down_mtu) << ' '
      << hex(summary.mean_bw_up_mtu) << ' ' << hex(summary.mean_bw_down_64)
      << ' ' << hex(summary.mean_bw_up_64) << '\n';
  return out.str();
}

template <typename T>
std::string render_error(const util::Result<T>& result) {
  return "error " + std::to_string(static_cast<int>(result.error().code)) +
         ' ' + result.error().message + '\n';
}

std::string render(const util::Result<std::vector<PathSummary>>& summaries) {
  if (!summaries.ok()) return render_error(summaries);
  std::string out;
  for (const PathSummary& summary : summaries.value()) out += render(summary);
  return out;
}

std::string render(const util::Result<Selection>& selection) {
  if (!selection.ok()) return render_error(selection);
  std::string out = selection.value().strategy + " |";
  for (const RankedPath& path : selection.value().ranked) {
    out += ' ' + path.summary.path_id + '=' + hex(path.score) + ' ' +
           path.rationale + ';';
  }
  out += " | rejected";
  for (const auto& [path_id, reason] : selection.value().rejected) {
    out += ' ' + path_id + ": " + reason + ';';
  }
  return out + '\n';
}

std::string render(const util::Result<RankedPath>& best) {
  if (!best.ok()) return render_error(best);
  return best.value().summary.path_id + '=' + hex(best.value().score) + ' ' +
         best.value().rationale + '\n';
}

/// Servers {1, 3}, two iterations: real path and stats documents.
void run_campaign(const scion::ScionlabEnv& env, docdb::Database& db) {
  apps::ScionHost host(env, 42, env.user_as, "10.0.8.1");
  measure::TestSuiteConfig config;
  config.iterations = 2;
  config.server_ids = {{1, 3}};
  measure::TestSuite suite(host, db, config);
  ASSERT_TRUE(suite.run().ok());
}

/// A paths_stats document for `path_id` stamped `timestamp_ms`; `scale`
/// moves every measured value so documents are told apart.
Document sample(const std::string& path_id, int server_id,
                std::int64_t timestamp_ms, double scale) {
  measure::StatsSample out;
  out.path_id = path_id;
  out.server_id = server_id;
  out.timestamp = util::sim_millis(static_cast<double>(timestamp_ms));
  out.hop_count = 3;
  out.isds = {16, 17};
  out.latency_ms = 20.0 * scale;
  out.loss_pct = 1.5 * scale;
  out.jitter_ms = 0.5 * scale;
  out.bw_down_mtu = 11.0 / scale;
  out.bw_up_mtu = 10.0 / scale;
  out.bw_down_64 = 3.0 / scale;
  out.bw_up_64 = 2.5 / scale;
  return measure::stats_document(out);
}

std::vector<std::string> path_ids(const docdb::Database& db, int server_id) {
  std::vector<std::string> ids;
  db.find_collection(measure::kPaths)->for_each([&](const Document& doc) {
    if (doc.get("server_id")->as_int() == server_id) {
      ids.emplace_back(doc.get("_id")->as_string());
    }
  });
  return ids;
}

std::int64_t latest_timestamp(const docdb::Database& db) {
  std::int64_t latest = 0;
  db.find_collection(measure::kPathsStats)->for_each([&](const Document& doc) {
    latest = std::max(latest, doc.get("timestamp_ms")->as_int());
  });
  return latest;
}

std::vector<UserRequest> requests(int server_id,
                                  std::optional<std::int64_t> since) {
  std::vector<UserRequest> out;
  const auto add = [&](Objective objective) -> UserRequest& {
    UserRequest& request = out.emplace_back();
    request.server_id = server_id;
    request.objective = objective;
    request.since_timestamp_ms = since;
    return request;
  };
  add(Objective::kLowestLatency);
  add(Objective::kHighestBandwidth).bw_direction = BwDirection::kUpstream;
  add(Objective::kLowestLoss).max_latency_ms = 60.0;
  add(Objective::kMostConsistent).min_samples = 3;
  add(Objective::kLowestLatency).exclude_countries = {"US"};
  return out;
}

class SelectorMemo : public ::testing::Test {
 protected:
  static constexpr int kServers[] = {1, 3, 7};  // 7 is never measured

  void SetUp() override {
    run_campaign(env_, db_);
    // Between the campaign's two iterations.
    since_ = latest_timestamp(db_) / 2;
    windows_ = {std::nullopt, since_};
    // One selector per window, so a memo entry keyed by that window is
    // in place when the next mutation lands, and one that alternates.
    for (std::size_t i = 0; i <= windows_.size(); ++i) {
      selectors_.push_back(std::make_unique<PathSelector>(db_, env_.topology));
    }
    expect_fresh("campaign");
  }

  /// Every answer of every long-lived selector equals a fresh selector's.
  void expect_fresh(const std::string& step) {
    const PathSelector fresh(db_, env_.topology);
    for (std::size_t w = 0; w <= windows_.size(); ++w) {
      PathSelector& memo = *selectors_[w];
      for (const int server : kServers) {
        for (std::size_t v = 0; v < windows_.size(); ++v) {
          if (w < windows_.size() && v != w) continue;
          const std::optional<std::int64_t> since = windows_[v];
          const std::string where = step + ": selector " + std::to_string(w) +
                                    " server " + std::to_string(server) +
                                    " window " + std::to_string(v);
          EXPECT_EQ(render(memo.summarize(server, since)),
                    render(fresh.summarize(server, since)))
              << where;
          for (const UserRequest& request : requests(server, since)) {
            for (const std::string& strategy :
                 StrategyRegistry::global().keys()) {
              EXPECT_EQ(render(memo.select_with(strategy, request)),
                        render(fresh.select_with(strategy, request)))
                  << where << ' ' << strategy << ' ' << request.describe();
            }
            EXPECT_EQ(render(memo.best(request)), render(fresh.best(request)))
                << where << ' ' << request.describe();
            const auto summaries = fresh.summarize(server, since);
            if (!summaries.ok()) continue;
            for (const PathSummary& summary : summaries.value()) {
              EXPECT_EQ(memo.rejection_reason(summary, request),
                        fresh.rejection_reason(summary, request))
                  << where << ' ' << summary.path_id;
            }
          }
        }
      }
    }
  }

  docdb::Collection& stats() { return db_.collection(measure::kPathsStats); }
  docdb::Collection& paths() { return db_.collection(measure::kPaths); }

  scion::ScionlabEnv env_ = scion::scionlab_topology();
  docdb::Database db_;
  std::int64_t since_ = 0;
  std::vector<std::optional<std::int64_t>> windows_;
  std::vector<std::unique_ptr<PathSelector>> selectors_;
};

TEST_F(SelectorMemo, AnswersMatchAFreshSelectorAfterEveryMutation) {
  const std::vector<std::string> server1 = path_ids(db_, 1);
  const std::vector<std::string> server3 = path_ids(db_, 3);
  ASSERT_GE(server1.size(), 2u);
  ASSERT_GE(server3.size(), 1u);
  const std::int64_t later = latest_timestamp(db_) + 1000;

  ASSERT_TRUE(stats().insert_many({sample(server1[0], 1, later, 1.0)}).ok());
  expect_fresh("insert for one path");

  ASSERT_TRUE(stats().insert_many({sample(server3[0], 3, later, 2.0)}).ok());
  expect_fresh("insert for another destination");

  ASSERT_TRUE(
      stats().insert_many({sample(server1[1], 1, since_ - 1, 3.0)}).ok());
  expect_fresh("insert before the window");

  ASSERT_TRUE(stats().insert_many({sample(server1[1], 1, since_, 0.5)}).ok());
  expect_fresh("insert at the window's start");

  ASSERT_TRUE(stats().delete_by_id(measure::stats_doc_id(
      server1[0], util::sim_millis(static_cast<double>(later)))));
  expect_fresh("delete_by_id");

  const auto by_path = docdb::Filter::compile(
      Value::object({{"path_id", Value(server1[1])}}));
  ASSERT_TRUE(by_path.ok());
  const auto updated = stats().update_many(
      by_path.value(),
      Value::object({{"$set", Value::object({{"loss_pct", 42.5}})}}));
  ASSERT_TRUE(updated.ok());
  ASSERT_GT(updated.value(), 0u);
  expect_fresh("update_many");

  // Re-collection: path 1_0 vanished, a new path appeared (with samples).
  ASSERT_TRUE(paths().delete_by_id(server1[0]));
  Document added = paths().find_by_id(server1[1]).value();
  added.as_object().set("_id", Value("1_99"));
  added.as_object().set("path_index", Value(99));
  ASSERT_TRUE(paths().insert_one(std::move(added)).ok());
  ASSERT_TRUE(stats().insert_many({sample("1_99", 1, later + 5, 1.25)}).ok());
  expect_fresh("re-collection adds one path and drops another");

  // Same documents per path, other contents: counts alone cannot tell.
  std::vector<Document> rewritten;
  stats().for_each([&](const Document& doc) {
    Document copy = doc;
    if (const Value* latency = copy.get("latency_ms"); latency != nullptr) {
      copy.as_object().set("latency_ms", Value(latency->as_double() * 2.0));
    }
    rewritten.push_back(std::move(copy));
  });
  ASSERT_TRUE(db_.drop_collection(measure::kPathsStats));
  expect_fresh("paths_stats dropped");
  stats().create_index("path_id");
  ASSERT_TRUE(stats().insert_many(std::move(rewritten)).ok());
  expect_fresh("paths_stats re-created with as many documents");

  std::vector<Document> repathed;
  paths().for_each([&](const Document& doc) {
    Document copy = doc;
    copy.as_object().set("mtu", Value(copy.get("mtu")->as_double() - 8.0));
    repathed.push_back(std::move(copy));
  });
  ASSERT_TRUE(db_.drop_collection(measure::kPaths));
  expect_fresh("paths dropped");
  for (Document& doc : repathed) {
    ASSERT_TRUE(paths().insert_one(std::move(doc)).ok());
  }
  expect_fresh("paths re-created with as many documents");
}

TEST(SelectorMemoConcurrency, SummariesDuringInsertsMatchAFreshSelector) {
  // One writer inserts per-unit batches (one sample per path) while two
  // readers summarize the same destination.  A batch lands between the
  // readers' per-path walks, so each path's summary, not each whole
  // answer, must be that path's fresh summary before or after some
  // batch, and a reader never sees a path go back in time.
  constexpr int kServer = 3;
  constexpr int kBatches = 24;
  const scion::ScionlabEnv env = scion::scionlab_topology();
  docdb::Database db;
  docdb::Database replica;
  run_campaign(env, db);
  run_campaign(env, replica);
  const std::vector<std::string> ids = path_ids(db, kServer);
  ASSERT_FALSE(ids.empty());
  const std::int64_t start = latest_timestamp(db) + 1000;
  const auto batch = [&](int b) {
    std::vector<Document> docs;
    for (std::size_t p = 0; p < ids.size(); ++p) {
      const double scale = 1.0 + 0.01 * static_cast<double>(b) +
                           0.01 * static_cast<double>(p);
      docs.push_back(sample(ids[p], kServer, start + b, scale));
    }
    return docs;
  };

  // Expected: each path's render after 0..kBatches batches, built on a
  // replica by fresh selectors.
  // path id -> render -> batches inserted before it
  std::map<std::string, std::map<std::string, int>> state_of;
  const auto record = [&](int batches) {
    const auto summaries =
        PathSelector(replica, env.topology).summarize(kServer);
    ASSERT_TRUE(summaries.ok());
    for (const PathSummary& summary : summaries.value()) {
      state_of[summary.path_id].emplace(render(summary), batches);
    }
  };
  record(0);
  for (int b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(
        replica.collection(measure::kPathsStats).insert_many(batch(b)).ok());
    record(b + 1);
  }

  const PathSelector shared(db, env.topology);
  std::atomic<bool> done{false};
  std::vector<std::string> failures[2];
  const auto reader = [&](std::vector<std::string>& failed) {
    std::map<std::string, int> seen;  // path -> batches last seen
    bool last = false;
    while (!last) {
      last = done.load();
      const auto summaries = shared.summarize(kServer);
      if (!summaries.ok()) {
        failed.push_back(summaries.error().message);
        return;
      }
      for (const PathSummary& summary : summaries.value()) {
        const auto& states = state_of[summary.path_id];
        const auto state = states.find(render(summary));
        if (state == states.end()) {
          failed.push_back("no fresh state renders " + render(summary));
        } else if (state->second < seen[summary.path_id]) {
          failed.push_back(summary.path_id + " went back in time");
        } else {
          seen[summary.path_id] = state->second;
        }
      }
    }
  };
  std::thread first(reader, std::ref(failures[0]));
  std::thread second(reader, std::ref(failures[1]));
  for (int b = 0; b < kBatches; ++b) {
    EXPECT_TRUE(db.collection(measure::kPathsStats).insert_many(batch(b)).ok());
  }
  done.store(true);
  first.join();
  second.join();
  EXPECT_TRUE(failures[0].empty()) << failures[0].front();
  EXPECT_TRUE(failures[1].empty()) << failures[1].front();

  EXPECT_EQ(render(shared.summarize(kServer)),
            render(PathSelector(replica, env.topology).summarize(kServer)));
}

}  // namespace
}  // namespace upin::select
