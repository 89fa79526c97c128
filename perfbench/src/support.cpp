#include "support.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <utility>

#include "docdb/journal.hpp"
#include "measure/schema.hpp"
#include "util/sha256.hpp"

namespace perfbench {

double seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuPin::CpuPin(std::size_t repetition) {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  std::vector<std::size_t> allowed;
  for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) allowed.push_back(cpu);
  }
  if (allowed.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(allowed[repetition % allowed.size()], &one);
  pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

double quantile(std::vector<double> values, double q) {
  require(!values.empty(), "quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double value : values) total += value;
  return total;
}

std::vector<double> best_of(const std::vector<std::vector<double>>& repetitions) {
  require(!repetitions.empty(), "best_of without repetitions");
  std::vector<double> best = repetitions.front();
  for (const std::vector<double>& repetition : repetitions) {
    require(repetition.size() == best.size(),
            "repetitions of one campaign differ in length");
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], repetition[i]);
    }
  }
  return best;
}

double typical_quantile(const std::vector<std::vector<double>>& repetitions,
                        double q) {
  require(!repetitions.empty(), "typical_quantile without repetitions");
  std::vector<double> per_repetition;
  per_repetition.reserve(repetitions.size());
  for (const std::vector<double>& repetition : repetitions) {
    per_repetition.push_back(quantile(repetition, q));
  }
  return median(std::move(per_repetition));
}

void require(bool condition, const std::string& what) {
  if (!condition) throw CheckFailure(what);
}

void must(const util::Status& status, const std::string& what) {
  require(status.ok(),
          what + ": " + (status.ok() ? std::string() : status.error().message));
}

std::string stats_digest(const docdb::Database& db) {
  const docdb::Collection* stats = db.find_collection(measure::kPathsStats);
  require(stats != nullptr, "paths_stats collection missing");
  std::vector<std::pair<std::string, std::string>> docs;
  stats->for_each([&](const docdb::Document& doc) {
    docs.emplace_back(std::string(docdb::document_id(doc).value_or("")),
                      doc.dump());
  });
  std::sort(docs.begin(), docs.end());
  util::Sha256 hasher;
  for (const auto& [id, body] : docs) {
    hasher.update(body);
    hasher.update("\n");
  }
  return util::to_hex(hasher.finish());
}

std::size_t live_record_bytes(const docdb::Database& db) {
  // "crc32=XXXXXXXX " before each record and the newline after it.
  constexpr std::size_t kFrameBytes = 16;
  std::size_t bytes = 0;
  for (const std::string& name : db.collection_names()) {
    db.find_collection(name)->for_each([&](const docdb::Document& doc) {
      const std::string id(docdb::document_id(doc).value_or(""));
      bytes += docdb::Journal::encode_insert(name, id, doc).size() + kFrameBytes;
    });
  }
  return bytes;
}

std::map<int, std::size_t> paths_per_server(const docdb::Database& db) {
  std::map<int, std::size_t> counts;
  const docdb::Collection* paths = db.find_collection(measure::kPaths);
  require(paths != nullptr, "paths collection missing");
  paths->for_each([&](const docdb::Document& doc) {
    const util::Result<measure::PathRecord> record =
        measure::parse_path_document(doc);
    require(record.ok(), "malformed path document");
    ++counts[record.value().server_id];
  });
  return counts;
}

std::size_t delivered_probes(const measure::TestSuiteProgress& p) {
  // A path test is recorded only after its ping answered; its two
  // bandwidth probes then either ran, failed or were shed.
  return kProbesPerPathTest * p.path_tests_run - p.bwtest_failures -
         p.probes_shed;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  require(std::isfinite(value), "metric " + name + " is not finite");
  entries_[name] = Entry{value, unit};
}

std::string Metrics::result_line(std::size_t attempted,
                                 std::size_t failed) const {
  std::string line = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : entries_) {
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", entry.value);
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + number +
            ", \"unit\": \"" + entry.unit + "\"}";
    first = false;
  }
  line += "}}";
  return line;
}

Metrics Metrics::median_of(const std::vector<Metrics>& runs) {
  require(!runs.empty(), "no runs to summarise");
  Metrics out;
  for (const auto& [name, entry] : runs.front().entries_) {
    std::vector<double> values;
    for (const Metrics& run : runs) {
      const auto it = run.entries_.find(name);
      require(it != run.entries_.end(), "metric " + name + " missing in a run");
      values.push_back(it->second.value);
    }
    out.set(name, median(std::move(values)), entry.unit);
  }
  return out;
}

std::vector<int> survey_servers() { return {1, 2, 3, 4, 5}; }

measure::TestSuiteConfig survey_config(obs::Registry& registry) {
  measure::TestSuiteConfig config;
  config.iterations = kSurveyIterations;
  config.server_ids = survey_servers();
  config.registry = &registry;
  return config;
}

Rig make_rig(const scion::ScionlabEnv* shared_env, std::uint64_t host_seed,
             const simnet::NetworkConfig& net_config,
             const std::function<measure::TestSuiteConfig(obs::Registry&)>&
                 configure,
             const std::string& journal_path, docdb::Vfs* vfs) {
  Rig rig;
  const auto start = WallClock::now();
  if (shared_env == nullptr) {
    rig.env = std::make_unique<scion::ScionlabEnv>(scion::scionlab_topology());
    shared_env = rig.env.get();
  }
  rig.registry = std::make_unique<obs::Registry>();
  if (journal_path.empty()) {
    rig.db = std::make_unique<docdb::Database>();
  } else {
    docdb::DatabaseOptions options;
    options.vfs = vfs;
    rig.db = must(docdb::Database::open(journal_path, options),
                  "open journal " + journal_path);
    rig.journal_path = journal_path;
  }
  rig.host = std::make_unique<apps::ScionHost>(
      *shared_env, host_seed, shared_env->user_as, "10.0.8.1", net_config);
  rig.suite = std::make_unique<measure::TestSuite>(*rig.host, *rig.db,
                                                   configure(*rig.registry));
  const auto begin_start = WallClock::now();
  must(rig.suite->begin(), "TestSuite::begin");
  rig.begin_s = seconds_since(begin_start);
  rig.setup_s = seconds_since(start);
  return rig;
}

}  // namespace perfbench
