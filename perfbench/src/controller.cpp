#include "controller.hpp"

#include <array>

#include "select/strategy.hpp"
#include "support.hpp"

namespace perfbench {

RequestGenerator::RequestGenerator(std::uint64_t seed)
    : rng_(seed ^ 0xC0117A0117E5ULL),
      strategies_(select::StrategyRegistry::global().keys()) {
  require(!strategies_.empty(), "no registered path-selection strategies");
}

ControllerRequest RequestGenerator::next(const std::vector<int>& servers) {
  require(!servers.empty(), "controller request before any measured unit");
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  ControllerRequest out;
  out.strategy = strategies_[pick(strategies_.size())];
  select::UserRequest& r = out.request;
  r.server_id = servers[pick(servers.size())];
  r.objective = static_cast<select::Objective>(pick(4));
  r.bw_direction = rng_.bernoulli(0.5) ? select::BwDirection::kDownstream
                                       : select::BwDirection::kUpstream;
  r.min_samples = 1 + pick(3);
  static constexpr std::array<const char*, 6> kCountries = {"US", "DE", "SG",
                                                            "KR", "IE", "CH"};
  switch (pick(6)) {
    case 0: break;  // objective only
    case 1: r.max_latency_ms = rng_.uniform(40.0, 400.0); break;
    case 2:
      r.min_bandwidth_mbps = rng_.uniform(1.0, 12.0);
      r.bw_probe_bytes = rng_.bernoulli(0.5) ? 64.0 : 1400.0;
      break;
    case 3: r.max_loss_pct = rng_.uniform(0.5, 5.0); break;
    case 4: r.exclude_countries = {kCountries[pick(kCountries.size())]}; break;
    default: r.max_jitter_ms = rng_.uniform(0.5, 10.0); break;
  }
  return out;
}

void serve(const select::PathSelector& selector,
           const ControllerRequest& request, ControllerStats& stats,
           SpanLog* log) {
  ++stats.planned;
  util::Result<select::Selection> selection =
      util::Error{util::ErrorCode::kInternal, "not served"};
  if (log == nullptr) {
    const auto start = WallClock::now();
    selection = selector.select_with(request.strategy, request.request);
    stats.select_us.push_back(seconds_since(start) * 1e6);
  } else {
    util::Result<std::vector<select::PathSummary>> summaries = [&] {
      const SpanLog::Scope span = log->open("select.summarize");
      return selector.summarize(request.request.server_id,
                                request.request.since_timestamp_ms);
    }();
    if (summaries.ok()) {
      for (const select::PathSummary& summary : summaries.value()) {
        stats.docs += summary.samples;
      }
      const SpanLog::Scope span = log->open("select.rank");
      util::Result<std::unique_ptr<select::PathSelectionStrategy>> strategy =
          select::StrategyRegistry::global().create(request.strategy);
      if (strategy.ok()) {
        selection = strategy.value()->rank(summaries.value(), request.request,
                                           selector.context());
      } else {
        selection = strategy.error();
      }
    } else {
      selection = summaries.error();
    }
  }
  if (!selection.ok()) return;  // not delivered
  ++stats.delivered;
  // rejection_reason is the paper objective's admission: the hard
  // constraints every strategy shares, then whether the paper objective
  // has data for the path.  Other strategies score from other data (one
  // latency sample has no IQR, yet a latency median), so their answers
  // are checked against the hard constraints alone, under the objective
  // whose paper score never lacks data.
  select::UserRequest hard_constraints = request.request;
  if (request.strategy != select::kPaperObjective) {
    hard_constraints.objective = select::Objective::kLowestLoss;
  }
  for (const select::RankedPath& ranked : selection.value().ranked) {
    const std::optional<std::string> reason =
        selector.rejection_reason(ranked.summary, hard_constraints);
    require(!reason.has_value(),
            "controller answer " + ranked.summary.path_id + " (" +
                request.strategy + ", " + request.request.describe() +
                ") is inadmissible: " + reason.value_or(""));
  }
}

}  // namespace perfbench
