// perfbench — the campaign benchmark.
//
//   perfbench --workload survey-mem|survey-durable|fleet-chaos
//             --seed N --seconds S --trace 0|1 --workdir DIR
//
// Runs one workload with inputs made from the seed, checks its outputs,
// and prints as its last stdout line one JSON object:
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced replay (--trace 1).  A failed check prints no result and exits 1;
// bad arguments exit 2.  Journals and span files go under DIR.
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "util/log.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

int usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "survey-mem|survey-durable|fleet-chaos --seed N --seconds S "
               "--trace 0|1 --workdir DIR\n",
               problem);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  bool have_workdir = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--workdir") {
        options.workdir = value;
        have_workdir = true;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_workload || !have_workdir) {
    return usage("--workload and --workdir are required");
  }

  // Engine warnings (retries, quarantines) are expected on fleet-chaos.
  upin::util::Log::set_level(upin::util::LogLevel::kError);
  try {
    std::filesystem::create_directories(options.workdir);
    perfbench::WorkloadResult result;
    if (options.workload == "survey-mem") {
      result = perfbench::run_survey(options, /*durable=*/false);
    } else if (options.workload == "survey-durable") {
      result = perfbench::run_survey(options, /*durable=*/true);
    } else if (options.workload == "fleet-chaos") {
      result = perfbench::run_fleet(options);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
    std::printf("%s\n",
                result.metrics.result_line(result.attempted, result.failed)
                    .c_str());
    return 0;
  } catch (const perfbench::CheckFailure& failure) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.what());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: error: %s\n", error.what());
  }
  return 1;
}
