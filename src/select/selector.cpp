#include "select/selector.hpp"

#include <algorithm>
#include <utility>

#include "measure/schema.hpp"
#include "scion/path.hpp"

namespace upin::select {

using docdb::Document;
using docdb::Filter;
using measure::PathRecord;
using measure::StatsView;
using util::ErrorCode;
using util::Result;
using util::Value;

PathSelector::PathSelector(const docdb::Database& db,
                           const scion::Topology& topology)
    : db_(db), topology_(topology) {}

namespace {

Result<Filter> equals(std::string_view field, Value value) {
  util::JsonObject query;
  query.set(std::string(field), std::move(value));
  return Filter::compile(Value(std::move(query)));
}

/// Aggregate the paths_stats documents `by_path` matches into the sample
/// fields of `summary`.
void aggregate(const docdb::Collection& stats, const Filter& by_path,
               PathSummary& summary) {
  std::vector<double> latencies;
  std::vector<double> losses;
  std::vector<double> jitters;
  std::vector<double> bw_down_mtu, bw_up_mtu, bw_down_64, bw_up_64;
  const auto push = [](std::vector<double>& to,
                       const std::optional<double>& value) {
    if (value.has_value()) to.push_back(*value);
  };
  stats.find_each(by_path, {}, [&](const Document& doc) {
    const std::optional<StatsView> sample = measure::read_stats_document(doc);
    if (!sample.has_value()) return true;  // tolerate foreign documents
    ++summary.samples;
    losses.push_back(sample->loss_pct);
    push(latencies, sample->latency_ms);
    push(jitters, sample->jitter_ms);
    push(bw_down_mtu, sample->bw_down_mtu);
    push(bw_up_mtu, sample->bw_up_mtu);
    push(bw_down_64, sample->bw_down_64);
    push(bw_up_64, sample->bw_up_64);
    return true;
  });

  summary.latency_samples = latencies.size();
  if (!latencies.empty()) summary.latency_ms = util::box_stats(latencies);
  if (!losses.empty()) summary.mean_loss_pct = util::mean(losses);
  if (!jitters.empty()) summary.mean_jitter_ms = util::mean(jitters);
  if (!bw_down_mtu.empty()) summary.mean_bw_down_mtu = util::mean(bw_down_mtu);
  if (!bw_up_mtu.empty()) summary.mean_bw_up_mtu = util::mean(bw_up_mtu);
  if (!bw_down_64.empty()) summary.mean_bw_down_64 = util::mean(bw_down_64);
  if (!bw_up_64.empty()) summary.mean_bw_up_64 = util::mean(bw_up_64);
}

}  // namespace

std::optional<PathSelector::Stamp> PathSelector::stamp_of(
    const docdb::Collection& collection, const Filter* filter) {
  const std::uint64_t epoch = collection.rewrite_epoch();
  const std::size_t count =
      filter == nullptr ? collection.size() : collection.count(*filter);
  if (collection.rewrite_epoch() != epoch) return std::nullopt;
  return Stamp{epoch, count};
}

Result<PathSelector::Catalog*> PathSelector::catalog_locked(
    const docdb::Collection& paths, int server_id) const {
  const std::optional<Stamp> stamp = stamp_of(paths, nullptr);
  const auto cached = catalogs_.find(server_id);
  if (cached != catalogs_.end() && stamp.has_value() &&
      cached->second.paths_stamp == stamp) {
    return &cached->second;
  }
  if (cached != catalogs_.end()) catalogs_.erase(cached);

  Result<Filter> by_server = equals("server_id", Value(server_id));
  if (!by_server.ok()) return Result<Catalog*>(by_server.error());
  Catalog catalog{stamp, {}};
  std::optional<util::Error> failed;
  docdb::FindOptions in_order;
  in_order.sort_by = "path_index";
  paths.find_each(by_server.value(), in_order, [&](const Document& doc) {
    Result<PathRecord> record = measure::parse_path_document(doc);
    if (!record.ok()) {
      failed = record.error();
      return false;
    }
    Result<Filter> by_path = equals("path_id", Value(record.value().id));
    if (!by_path.ok()) {
      failed = by_path.error();
      return false;
    }
    PathSummary identity;
    identity.path_id = record.value().id;
    identity.server_id = record.value().server_id;
    identity.sequence = record.value().sequence;
    identity.hop_count = record.value().hop_count;
    identity.isds = record.value().isds;
    identity.mtu = record.value().mtu;
    Result<scion::Path> parsed =
        scion::Path::parse_sequence(record.value().sequence);
    if (parsed.ok()) {
      for (const scion::PathHop& hop : parsed.value().hops()) {
        identity.hops.push_back(hop.ia);
      }
    }
    catalog.paths.push_back(
        CatalogPath{std::move(identity), std::move(by_path).value(), {}});
    return true;
  });
  if (failed.has_value()) return *failed;
  if (catalog.paths.empty()) return static_cast<Catalog*>(nullptr);
  return &catalogs_.insert_or_assign(server_id, std::move(catalog))
              .first->second;
}

Result<std::vector<PathSummary>> PathSelector::summarize(
    int server_id, std::optional<std::int64_t> since_ms) const {
  const docdb::Collection* paths = db_.find_collection(measure::kPaths);
  if (paths == nullptr) {
    return util::Error{ErrorCode::kNotFound, "paths collection does not exist"};
  }
  const std::lock_guard<std::mutex> lock(memo_mutex_);
  Result<Catalog*> catalog = catalog_locked(*paths, server_id);
  if (!catalog.ok()) return Result<std::vector<PathSummary>>(catalog.error());
  std::vector<PathSummary> summaries;
  if (catalog.value() == nullptr) return summaries;

  const docdb::Collection* stats = db_.find_collection(measure::kPathsStats);
  if (stats == nullptr) {
    return util::Error{ErrorCode::kNotFound, "paths_stats does not exist"};
  }
  summaries.reserve(catalog.value()->paths.size());
  for (CatalogPath& path : catalog.value()->paths) {
    // The stamp is taken before the walk: documents inserted meanwhile
    // may be in the summary but not in the stamp, which then never
    // matches again, so a memo can run ahead of its stamp but never
    // behind it.
    const std::optional<Stamp> stamp = stamp_of(*stats, &path.by_path);
    if (path.memo.has_value() && stamp.has_value() &&
        path.memo->since_ms == since_ms && path.memo->stamp == *stamp) {
      summaries.push_back(path.memo->summary);
      continue;
    }
    PathSummary summary = path.identity;
    if (since_ms.has_value()) {
      util::JsonObject query;
      query.set("path_id", Value(summary.path_id));
      query.set("timestamp_ms", Value::object({{"$gte", Value(*since_ms)}}));
      Result<Filter> windowed = Filter::compile(Value(std::move(query)));
      if (!windowed.ok()) {
        return Result<std::vector<PathSummary>>(windowed.error());
      }
      aggregate(*stats, windowed.value(), summary);
    } else {
      aggregate(*stats, path.by_path, summary);
    }
    if (stamp.has_value()) {
      path.memo = CatalogPath::Memo{since_ms, *stamp, summary};
    }
    summaries.push_back(std::move(summary));
  }
  return summaries;
}

namespace {

/// The shared paper-objective instance the façade entry points delegate
/// to (it is stateless, so one is enough).
const PathSelectionStrategy& paper_strategy() {
  static const std::unique_ptr<PathSelectionStrategy> strategy =
      std::move(StrategyRegistry::global().create(kPaperObjective)).value();
  return *strategy;
}

}  // namespace

std::optional<std::string> PathSelector::rejection_reason(
    const PathSummary& summary, const UserRequest& request) const {
  return check_admission(summary, request, context(), paper_strategy())
      .rejection;
}

Result<Selection> PathSelector::select(const UserRequest& request) const {
  return select_with(kPaperObjective, request);
}

Result<Selection> PathSelector::select_with(std::string_view strategy_key,
                                            const UserRequest& request,
                                            const util::JsonObject& knobs) const {
  Result<std::unique_ptr<PathSelectionStrategy>> strategy =
      StrategyRegistry::global().create(strategy_key, knobs);
  if (!strategy.ok()) return Result<Selection>(strategy.error());
  Result<std::vector<PathSummary>> summaries =
      summarize(request.server_id, request.since_timestamp_ms);
  if (!summaries.ok()) return Result<Selection>(summaries.error());
  return strategy.value()->rank(summaries.value(), request, context());
}

Result<RankedPath> PathSelector::best(const UserRequest& request) const {
  Result<Selection> selection = select(request);
  if (!selection.ok()) return Result<RankedPath>(selection.error());
  if (selection.value().ranked.empty()) {
    return util::Error{ErrorCode::kNotFound,
                       "no path satisfies: " + request.describe()};
  }
  return selection.value().ranked.front();
}

}  // namespace upin::select
