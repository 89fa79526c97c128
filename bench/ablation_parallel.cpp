// ablation_parallel — scale-out throughput of the survey engine
// (paper §4.1.1's scalability requirement, measured).
//
// Runs the full 21-destination survey as a fleet of one tenant per
// destination (own host, shard, registry and RNG stream each) with
// increasing worker counts, reporting wall time and speedup.  The
// degradation ladder and the watchdog are off, so every tenant runs the
// plain campaign.  The wall time includes building and beginning every
// tenant, which the fleet does before its workers start.
#include <thread>
#include <vector>

#include "common.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"

int main(int argc, char** argv) {
  using namespace upin;
  const bool csv = bench::want_csv(argc, argv);
  const scion::ScionlabEnv env = scion::scionlab_topology();

  if (csv) {
    std::printf("threads,wall_s,speedup,samples\n");
  } else {
    bench::print_header(
        "Ablation — survey scale-out (21 destinations, 4 iterations)",
        "a fleet of one in-memory tenant per destination");
    std::printf("hardware concurrency: %u (speedup is bounded by this)\n\n",
                std::thread::hardware_concurrency());
    std::printf("%-9s %-10s %-9s %s\n", "threads", "wall s", "speedup",
                "samples");
  }

  std::vector<fleet::CampaignSpec> specs;
  for (std::size_t i = 0; i < env.servers.size(); ++i) {
    fleet::CampaignSpec& spec = specs.emplace_back();
    spec.campaign_id = static_cast<int>(i) + 1;
    spec.server_ids = {spec.campaign_id};
  }

  double baseline = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    obs::Registry metrics;  // per run: no fleet series pooled across runs
    fleet::FleetConfig config;
    config.suite.iterations = 4;
    config.threads = threads;
    config.error_budget = 0;
    config.watchdog_deadline_s = 0.0;
    config.metrics = &metrics;
    const auto result = fleet::FleetScheduler(env, config).run(specs);
    if (!result.ok()) {
      std::fprintf(stderr, "survey failed: %s\n",
                   result.error().message.c_str());
      return 1;
    }
    if (result.value().failed > 0) {
      std::fprintf(stderr, "survey failed: %zu tenants failed\n",
                   result.value().failed);
      return 1;
    }
    std::size_t samples = 0;
    for (const fleet::CampaignStatus& status : result.value().campaigns) {
      samples += status.progress.stats_inserted;
    }
    const double wall_s = result.value().wall_seconds;
    if (threads == 1) baseline = wall_s;
    const double speedup = baseline / wall_s;
    if (csv) {
      std::printf("%zu,%.3f,%.2f,%zu\n", threads, wall_s, speedup, samples);
    } else {
      std::printf("%-9zu %-10.3f %-9.2f %zu\n", threads, wall_s, speedup,
                  samples);
    }
  }
  return 0;
}
