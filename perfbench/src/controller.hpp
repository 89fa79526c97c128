// controller.hpp — the closed-loop Path Controller client.
//
// After each committed unit the client sends a few seeded requests, one
// at a time, each waiting for its answer: a destination measured so far,
// one of the registered strategies, an objective and one constraint set.
// Every answer is checked against PathSelector::rejection_reason; an
// empty answer ("no admissible path") is correct.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "select/selector.hpp"
#include "span_log.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Requests the client sends after every committed unit.
inline constexpr int kRequestsPerUnit = 4;

struct ControllerRequest {
  std::string strategy;
  upin::select::UserRequest request;
};

class RequestGenerator {
 public:
  explicit RequestGenerator(std::uint64_t seed);
  [[nodiscard]] ControllerRequest next(const std::vector<int>& servers);

 private:
  upin::util::Rng rng_;
  std::vector<std::string> strategies_;
};

struct ControllerStats {
  std::vector<double> select_us;  ///< untraced: one sample per request
  std::size_t planned = 0;
  std::size_t delivered = 0;
  std::size_t docs = 0;  ///< traced: paths_stats documents summarized
};

/// Send one request.  With a span log the call is split into its two
/// public steps, `summarize` and the strategy's `rank`, each in a span;
/// without one, `select_with` is timed whole.
void serve(const upin::select::PathSelector& selector,
           const ControllerRequest& request, ControllerStats& stats,
           SpanLog* log);

}  // namespace perfbench
