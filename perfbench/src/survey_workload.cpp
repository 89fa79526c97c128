// The survey workloads: the paper's §6 campaign (servers 1-5 x 55
// iterations = 275 units, 3245 path tests) in memory with an
// interleaved controller client (survey-mem), or journaled to disk with
// the client's requests sent after the campaign (survey-durable).
#include <unistd.h>

#include <filesystem>

#include "campaign.hpp"
#include "timing_vfs.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

/// Set-ups timed, back to back, before the campaigns.
constexpr int kSetups = 51;

/// A per-process directory for journals, removed when the run ends.
class RunDir {
 public:
  explicit RunDir(const std::string& parent)
      : path_(fs::path(parent) / ("run-" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~RunDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

class Survey {
 public:
  Survey(const Options& options, bool durable)
      : options_(options),
        durable_(durable),
        plan_{survey_servers(), kSurveyIterations,
              durable ? ControllerMode::kAfterCampaign
                      : ControllerMode::kInterleaved},
        run_dir_(options.workdir) {}

  [[nodiscard]] WorkloadResult untraced();
  [[nodiscard]] WorkloadResult traced();

 private:
  /// A fresh rig: in memory, or on a new journal through `vfs`.
  [[nodiscard]] Rig rig(TimingVfs& vfs) {
    const std::string path =
        durable_ ? run_dir_.file("campaign-" + std::to_string(journals_++) +
                                 ".jsonl")
                 : std::string();
    return make_rig(nullptr, options_.seed, {}, survey_config, path,
                    durable_ ? &vfs : nullptr);
  }
  /// An untraced campaign on a fresh rig, its database closed.
  [[nodiscard]] CampaignOutcome reference_campaign() {
    TimingVfs vfs(real_vfs_);
    Rig reference = rig(vfs);
    CampaignOutcome outcome = run_stepped(reference, plan_, options_.seed);
    close(reference);
    return outcome;
  }
  /// Close the rig's database (draining its journal) and return the
  /// journal path, empty in memory.
  static std::string close(Rig& rig) {
    rig.suite.reset();
    rig.db.reset();
    return rig.journal_path;
  }

  const Options& options_;
  const bool durable_;
  const CampaignPlan plan_;
  RunDir run_dir_;
  std::size_t journals_ = 0;
  docdb::RealVfs real_vfs_;
};

WorkloadResult Survey::untraced() {
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    TimingVfs vfs(real_vfs_);
    const CpuPin pin(static_cast<std::size_t>(i));
    Rig setup = rig(vfs);
    setups.push_back(setup.setup_s);
    close(setup);
  }

  std::vector<CampaignOutcome> runs;
  double journal_bytes_per_doc = 0.0;
  Repeater repeat(options_.seconds);
  do {
    TimingVfs vfs(real_vfs_);
    Rig campaign = rig(vfs);
    CampaignOutcome run = [&] {
      const CpuPin pin(runs.size());
      return run_stepped(campaign, plan_, options_.seed);
    }();
    const double docs = static_cast<double>(run.path_tests);
    if (durable_) {
      const std::string path = close(campaign);
      if (runs.empty()) {
        journal_bytes_per_doc = static_cast<double>(fs::file_size(path)) / docs;
        // The closed journal must replay to the same dataset on a fresh
        // VFS (once: later repetitions store the same digest).
        docdb::RealVfs fresh;
        docdb::DatabaseOptions reopen_options;
        reopen_options.vfs = &fresh;
        const std::unique_ptr<docdb::Database> reopened =
            must(docdb::Database::open(path, reopen_options), "reopen journal");
        require(stats_digest(*reopened) == run.digest,
                "reopened journal has a different paths_stats digest");
      }
    } else if (runs.empty()) {
      journal_bytes_per_doc =
          static_cast<double>(live_record_bytes(*campaign.db)) / docs;
    }
    require(runs.empty() || run.digest == runs.front().digest,
            "the same seed gave two different paths_stats digests");
    runs.push_back(std::move(run));
  } while (repeat.another());
  const double rss_mb = peak_rss_mb();

  if (durable_) {
    // survey-mem and survey-durable must store the same dataset.
    Rig memory = make_rig(nullptr, options_.seed, {}, survey_config);
    const CampaignPlan no_requests{plan_.servers, plan_.iterations,
                                   ControllerMode::kNone};
    require(run_stepped(memory, no_requests, options_.seed).digest ==
                runs.front().digest,
            "in-memory and durable campaigns stored different paths_stats");
  }

  WorkloadResult result;
  std::vector<std::vector<double>> unit_ms;
  std::vector<std::vector<double>> unit_cpu_ms;
  std::vector<std::vector<double>> select_us;
  for (const CampaignOutcome& run : runs) {
    unit_ms.push_back(run.unit_ms);
    unit_cpu_ms.push_back(run.unit_cpu_ms);
    select_us.push_back(run.controller.select_us);
    result.attempted += run.probes.planned + run.controller.planned;
    result.failed += run.probes.failed() +
                     (run.controller.planned - run.controller.delivered);
  }
  // Every repetition ran the same units and requests: time each one by
  // its best repetition for throughput and medians; tails come from the
  // typical repetition.
  const std::vector<double> best_unit_ms = best_of(unit_ms);
  const std::vector<double> best_select_us = best_of(select_us);
  const auto path_tests = static_cast<double>(runs.front().path_tests);
  Metrics& m = result.metrics;
  m.set("setup_s", median(setups), "s");
  m.set("path_tests_per_s", path_tests * 1e3 / sum(best_unit_ms), "1/s");
  m.set("unit_p50_ms", quantile(best_unit_ms, 0.50), "ms");
  m.set("unit_p95_ms", typical_quantile(unit_ms, 0.95), "ms");
  m.set("select_p50_us", quantile(best_select_us, 0.50), "us");
  m.set("select_p99_us", typical_quantile(select_us, 0.99), "us");
  m.set("cpu_ms_per_path_test", sum(best_of(unit_cpu_ms)) / path_tests, "ms");
  m.set("journal_bytes_per_stats_doc", journal_bytes_per_doc, "B/doc");
  m.set("peak_rss_mb", rss_mb, "MB");
  return result;
}

WorkloadResult Survey::traced() {
  std::vector<Metrics> repetitions;
  WorkloadResult result;
  SpanLog last_log;
  Repeater repeat(options_.seconds);
  do {
    const CampaignOutcome untraced = reference_campaign();

    TimingVfs vfs(real_vfs_);
    Rig campaign = rig(vfs);
    SpanLog log;
    const ReplayOutcome replay =
        run_replayed(campaign, plan_, survey_config(*campaign.registry),
                     options_.seed, log);
    require(replay.digest == untraced.digest,
            "traced replay stored a different paths_stats digest (" +
                replay.digest + " vs " + untraced.digest + ")");

    ReplayTotals totals;
    totals.add(campaign, replay);
    // Untraced references on both sides of the replay, so warm-up lands
    // on neither side of the overhead.
    totals.untraced_wall_s =
        (untraced.loop_wall_s + reference_campaign().loop_wall_s) / 2.0;
    Metrics m = zero_per_layer_metrics();
    totals.report(log, replay.stats.probes, m);
    result.attempted += replay.stats.probes.planned + replay.controller.planned;
    result.failed += replay.stats.probes.failed() +
                     (replay.controller.planned - replay.controller.delivered);

    if (const std::string path = close(campaign); !path.empty()) {
      const VfsCounters& io = vfs.counters();
      const JournalScan scan = scan_journal(path);
      m.set("docdb.vfs_appends", static_cast<double>(io.appends), "count");
      m.set("docdb.vfs_append_bytes", static_cast<double>(io.append_bytes), "B");
      m.set("docdb.vfs_append_ms", static_cast<double>(io.append_ns) * 1e-6, "ms");
      m.set("docdb.vfs_syncs", static_cast<double>(io.syncs), "count");
      m.set("docdb.vfs_sync_ms", static_cast<double>(io.sync_ns) * 1e-6, "ms");
      m.set("docdb.docs_per_sync",
            static_cast<double>(scan.records) / static_cast<double>(io.syncs),
            "docs/sync");
      for (const char* collection :
           {"paths_stats", "campaign_checkpoints", "campaign_metrics"}) {
        const auto it = scan.bytes.find(collection);
        m.set(std::string("docdb.journal_bytes.") + collection,
              it == scan.bytes.end() ? 0.0 : static_cast<double>(it->second),
              "B");
      }
    }
    repetitions.push_back(std::move(m));
    last_log = std::move(log);
  } while (repeat.another());

  write_spans(last_log, options_);
  result.metrics = Metrics::median_of(repetitions);
  return result;
}

}  // namespace

WorkloadResult run_survey(const Options& options, bool durable) {
  Survey survey(options, durable);
  return options.trace ? survey.traced() : survey.untraced();
}

}  // namespace perfbench
