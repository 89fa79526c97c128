// support.hpp — shared pieces of the campaign benchmark: wall/CPU clocks,
// order statistics, the paths_stats digest, correctness failures, the
// result printer and the survey/fleet configurations every workload
// agrees on.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/host.hpp"
#include "docdb/database.hpp"
#include "measure/testsuite.hpp"
#include "obs/metrics.hpp"
#include "scion/scionlab.hpp"

namespace perfbench {

using namespace upin;
using WallClock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(WallClock::time_point start);

/// Pins the calling thread to one CPU while in scope, then restores its
/// previous affinity.  Repetition r runs on the r-th allowed CPU (round
/// robin), so the best-of-K timings sample every core instead of being
/// hostage to one that a neighbour keeps busy.  Threads the pinned
/// thread starts inherit the pin: take it after set-up.
class CpuPin {
 public:
  explicit CpuPin(std::size_t repetition);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Paces the repetitions of a run within its time budget:
///   Repeater repeat(seconds);
///   do { ...one repetition... } while (repeat.another());
/// runs at least one repetition, and another one only while it would
/// still end in budget if it took as long as the last one.
class Repeater {
 public:
  explicit Repeater(double seconds)
      : seconds_(seconds), start_(WallClock::now()), last_(start_) {}
  [[nodiscard]] bool another() {
    const auto now = WallClock::now();
    const double repetition_s = std::chrono::duration<double>(now - last_).count();
    last_ = now;
    return seconds_since(start_) + repetition_s <= seconds_;
  }

 private:
  double seconds_;
  WallClock::time_point start_;
  WallClock::time_point last_;
};
/// CPU time of the whole process (all threads), in seconds.
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set size of the process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// Linear-interpolated quantile (q in [0, 1]); requires a non-empty input.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double sum(const std::vector<double>& values);
/// Element i is the least of element i over `repetitions`, which must be
/// non-empty and of equal length: the per-operation best of K repetitions
/// of the same inputs, which filters out interference from other
/// processes (it only ever adds time).
[[nodiscard]] std::vector<double> best_of(
    const std::vector<std::vector<double>>& repetitions);
/// The q-quantile of each repetition, then the median of those over the
/// repetitions: the tail a typical repetition shows.  Tails are reported
/// this way rather than from best_of: the tail of the per-operation bests
/// rests on a handful of operations, and on a shared host their best
/// time still moves with the host's load from run to run.
[[nodiscard]] double typical_quantile(
    const std::vector<std::vector<double>>& repetitions, double q);

/// A correctness check failed: the run prints no result and exits non-zero.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};
void require(bool condition, const std::string& what);
/// Unwrap a Result or fail the run with `what` and its error.
template <typename T>
T must(util::Result<T> result, const std::string& what) {
  require(result.ok(),
          what + ": " + (result.ok() ? std::string() : result.error().message));
  return std::move(result).value();
}
void must(const util::Status& status, const std::string& what);

/// SHA-256 over every paths_stats document, in _id order.
[[nodiscard]] std::string stats_digest(const docdb::Database& db);
/// Encoded size of the database's live documents as journal insert
/// records (CRC frame and newline included): the bytes a compacted
/// journal of the dataset holds.
[[nodiscard]] std::size_t live_record_bytes(const docdb::Database& db);
/// paths per destination, read from the `paths` collection.
[[nodiscard]] std::map<int, std::size_t> paths_per_server(
    const docdb::Database& db);

/// Probes a path test plans: one ping and two bandwidth tests.
inline constexpr std::size_t kProbesPerPathTest = 3;
/// Probes a campaign delivered (planned minus failed, shed or skipped).
[[nodiscard]] std::size_t delivered_probes(const measure::TestSuiteProgress& p);

/// Name -> (value, unit), printed as the benchmark's result line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string result_line(std::size_t attempted,
                                        std::size_t failed) const;
  /// Median of each metric over `runs`; every run must carry the same keys.
  [[nodiscard]] static Metrics median_of(const std::vector<Metrics>& runs);

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Entry> entries_;
};

/// Planned and delivered operations (probes + controller requests).
struct OpsCount {
  std::size_t planned = 0;
  std::size_t delivered = 0;
  void add(std::size_t planned_ops, std::size_t delivered_ops) {
    planned += planned_ops;
    delivered += delivered_ops;
  }
  [[nodiscard]] std::size_t failed() const { return planned - delivered; }
  [[nodiscard]] double failed_ratio() const {
    return planned == 0 ? 0.0
                        : static_cast<double>(failed()) /
                              static_cast<double>(planned);
  }
};

// ---- the paper's §6 survey --------------------------------------------

inline constexpr int kSurveyIterations = 55;
[[nodiscard]] std::vector<int> survey_servers();  // the five featured ids
[[nodiscard]] measure::TestSuiteConfig survey_config(obs::Registry& registry);

/// One campaign's machinery: topology, host, database, suite.  `setup_s`
/// times construction through TestSuite::begin(); `begin_s` the begin()
/// call alone.
struct Rig {
  std::unique_ptr<scion::ScionlabEnv> env;
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<docdb::Database> db;
  std::unique_ptr<apps::ScionHost> host;
  std::unique_ptr<measure::TestSuite> suite;
  std::string journal_path;  ///< empty for an in-memory database
  double setup_s = 0.0;
  double begin_s = 0.0;
};

/// Build a rig on `env` (nullptr: construct the topology inside the timed
/// setup).  An empty `journal_path` keeps the database in memory.
[[nodiscard]] Rig make_rig(const scion::ScionlabEnv* shared_env,
                           std::uint64_t host_seed,
                           const simnet::NetworkConfig& net_config,
                           const std::function<measure::TestSuiteConfig(
                               obs::Registry&)>& configure,
                           const std::string& journal_path = {},
                           docdb::Vfs* vfs = nullptr);

}  // namespace perfbench
