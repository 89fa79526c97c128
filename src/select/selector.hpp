// selector.hpp — query the measurement database and pick paths.
//
// The selection pipeline of paper §6: aggregate paths_stats per path into
// summaries (box statistics over latency, mean loss, mean bandwidths),
// drop paths violating the user's constraints (performance + sovereignty),
// rank the survivors under the chosen objective, and return them with a
// rationale.
//
// A request costs O(paths whose samples changed), not O(all samples):
//
//   * Catalog.  Per destination, the selector keeps each `paths`
//     document decoded once: its PathRecord fields, its parsed hops and
//     its compiled {"path_id": id} filter.  A catalog is rebuilt only
//     when the `paths` collection's stamp moves (below).
//   * Memo.  Each catalogued path keeps at most one PathSummary, keyed
//     by the request's `since_ms` and by the stamp of the path's
//     paths_stats documents.  A request reuses it only when both match,
//     and otherwise walks the path's samples again (through
//     `Collection::find_each`, validated by `measure::read_stats_document`)
//     and replaces it.
//   * Stamp.  (`Collection::rewrite_epoch()`, match count), taken
//     *before* the walk, and dropped (nothing is memoized) when a delete
//     or update moved the epoch during the count.  Inserts only grow
//     counts and every delete or update moves the epoch, which is also
//     new for a dropped and re-created collection, so equal stamps mean
//     the same documents.  An insert-only history therefore recomputes
//     exactly the paths that got new samples; any delete or update
//     recomputes everything once.  For the catalog the count is the
//     whole `paths` collection's size.
//
// Answers are bit-identical to recomputing from scratch: a memoized
// summary is the one the same walk over the same documents produced.
// The memo sits behind a mutex, so one selector may be shared by
// reference (PathController, Recommender) and called from several
// threads.
//
// Since the strategy-lab redesign, PathSelector is a thin façade over the
// StrategyRegistry: `select()` delegates to the `paper-objective`
// strategy (bit-identical to the pre-registry pipeline) and
// `select_with()` runs any registered strategy over the same summaries.
// The data model (PathSummary, RankedPath, Selection) lives in
// select/types.hpp; the strategy interface in select/strategy.hpp.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "docdb/database.hpp"
#include "scion/control_plane.hpp"
#include "scion/topology.hpp"
#include "select/request.hpp"
#include "select/strategy.hpp"
#include "select/types.hpp"
#include "util/clock.hpp"
#include "util/stats.hpp"

namespace upin::select {

/// Read-side engine over the measurement database.
class PathSelector {
 public:
  /// `topology` supplies the AS metadata for sovereignty filters.
  PathSelector(const docdb::Database& db, const scion::Topology& topology);

  /// Attach control-plane liveness: selections made after this reject
  /// paths whose revocation was delivered by `clock->now()`.  Both
  /// pointers must outlive the selector; pass nullptrs to detach.
  void attach_liveness(const scion::ControlPlane* control_plane,
                       const util::VirtualClock* clock) noexcept {
    control_plane_ = control_plane;
    liveness_clock_ = clock;
  }

  /// Aggregate every measured path of `server_id`.  When `since_ms` is
  /// set, only measurements taken at or after that virtual timestamp
  /// contribute (freshness window).
  [[nodiscard]] util::Result<std::vector<PathSummary>> summarize(
      int server_id, std::optional<std::int64_t> since_ms = std::nullopt) const;

  /// Full selection under a request — the `paper-objective` strategy.
  [[nodiscard]] util::Result<Selection> select(const UserRequest& request) const;

  /// Full selection under any registered strategy: summarize, then rank
  /// with `StrategyRegistry::global().create(strategy_key, knobs)`.
  /// Propagates kNotFound for unknown keys and kInvalidArgument for bad
  /// knobs.
  [[nodiscard]] util::Result<Selection> select_with(
      std::string_view strategy_key, const UserRequest& request,
      const util::JsonObject& knobs = {}) const;

  /// The single best path, or kNotFound when nothing qualifies.
  [[nodiscard]] util::Result<RankedPath> best(const UserRequest& request) const;

  /// The selection context this selector ranks in (topology + attached
  /// liveness), for callers driving strategies directly.
  [[nodiscard]] SelectionContext context() const noexcept {
    return SelectionContext{&topology_, control_plane_, liveness_clock_};
  }

  /// Constraint check used by select(); exposed for tests.  Returns the
  /// rejection reason or nullopt when admissible.
  [[nodiscard]] std::optional<std::string> rejection_reason(
      const PathSummary& summary, const UserRequest& request) const;

 private:
  /// (rewrite epoch, match count) of one collection reading.
  struct Stamp {
    std::uint64_t epoch = 0;
    std::size_t count = 0;
    bool operator==(const Stamp&) const = default;
  };
  /// One catalogued path and its memoized summary.
  struct CatalogPath {
    PathSummary identity;    ///< path fields and hops; no samples
    docdb::Filter by_path;   ///< {"path_id": identity.path_id}
    struct Memo {
      std::optional<std::int64_t> since_ms;
      Stamp stamp;           ///< of the path's paths_stats documents
      PathSummary summary;
    };
    std::optional<Memo> memo;
  };
  /// One destination's `paths` documents in `path_index` order.
  struct Catalog {
    /// Of the whole `paths` collection; nullopt rebuilds on next use.
    std::optional<Stamp> paths_stamp;
    std::vector<CatalogPath> paths;
  };

  /// `collection`'s rewrite epoch and the count of `filter`'s matches (of
  /// every document when null), or nullopt when a delete or update
  /// landed during the count: such a reading pins nothing.
  [[nodiscard]] static std::optional<Stamp> stamp_of(
      const docdb::Collection& collection, const docdb::Filter* filter);
  /// The destination's catalog, rebuilt when `paths` moved.  Null when
  /// the destination has no paths.  Requires memo_mutex_.
  [[nodiscard]] util::Result<Catalog*> catalog_locked(
      const docdb::Collection& paths, int server_id) const;

  const docdb::Database& db_;
  const scion::Topology& topology_;
  const scion::ControlPlane* control_plane_ = nullptr;
  const util::VirtualClock* liveness_clock_ = nullptr;
  mutable std::mutex memo_mutex_;
  mutable std::map<int, Catalog> catalogs_;  ///< by server id
};

}  // namespace upin::select
