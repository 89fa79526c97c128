#include "obs/metrics.hpp"

#include <algorithm>

#include "util/stats.hpp"
#include "util/strings.hpp"

namespace upin::obs {

using util::Value;

std::size_t Counter::shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  // One slot per thread, assigned on first use: threads never migrate
  // between shards, so increments stay on a warm cache line.
  static thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

LatencyHistogram::LatencyHistogram(double lo, double hi, std::size_t bins)
    : lo_(lo),
      width_((hi - lo) / static_cast<double>(bins == 0 ? 1 : bins)),
      counts_(bins == 0 ? 1 : bins) {}

void LatencyHistogram::observe(double sample) noexcept {
  counts_[util::bucket_index(lo_, width_, counts_.size(), sample)].fetch_add(
      1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> is C++20 but not universally lowered;
  // a CAS loop is portable and this is off every per-event fast path.
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + sample,
                                     std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::mean() const noexcept {
  const std::uint64_t n = total();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double LatencyHistogram::bin_low(std::size_t bin) const noexcept {
  return lo_ + width_ * static_cast<double>(bin);
}

double LatencyHistogram::bin_high(std::size_t bin) const noexcept {
  return lo_ + width_ * static_cast<double>(bin + 1);
}

double LatencyHistogram::quantile(double q) const noexcept {
  const std::uint64_t n = total();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  double seen = 0.0;
  for (std::size_t bin = 0; bin < counts_.size(); ++bin) {
    seen += static_cast<double>(count(bin));
    if (seen >= target) return bin_high(bin);
  }
  return bin_high(counts_.size() - 1);
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

LatencyHistogram& Registry::histogram(std::string_view name, double lo,
                                      double hi, std::size_t bins) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<LatencyHistogram>(lo, hi, bins))
             .first;
  }
  return *it->second;
}

namespace {

/// `name{campaign="label"}` — the exposition key for a labeled series.
std::string series_key(std::string_view name, std::string_view campaign) {
  std::string key;
  key.reserve(name.size() + campaign.size() + 13);
  key.append(name);
  key.append("{campaign=\"");
  key.append(campaign);
  key.append("\"}");
  return key;
}

template <typename T, typename Family, typename Make>
T& labeled_get_or_create(Family& family, std::string_view name,
                         std::string_view campaign, const Make& make) {
  auto family_it = family.find(name);
  if (family_it == family.end()) {
    family_it = family.emplace(std::string(name),
                               typename Family::mapped_type{}).first;
  }
  auto series_it = family_it->second.find(campaign);
  if (series_it == family_it->second.end()) {
    series_it =
        family_it->second.emplace(std::string(campaign), make()).first;
  }
  return *series_it->second;
}

}  // namespace

Counter& Registry::counter(std::string_view name, std::string_view campaign) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return labeled_get_or_create<Counter>(
      labeled_counters_, name, campaign,
      [] { return std::make_unique<Counter>(); });
}

Gauge& Registry::gauge(std::string_view name, std::string_view campaign) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return labeled_get_or_create<Gauge>(
      labeled_gauges_, name, campaign,
      [] { return std::make_unique<Gauge>(); });
}

LatencyHistogram& Registry::histogram(std::string_view name,
                                      std::string_view campaign, double lo,
                                      double hi, std::size_t bins) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return labeled_get_or_create<LatencyHistogram>(
      labeled_histograms_, name, campaign,
      [&] { return std::make_unique<LatencyHistogram>(lo, hi, bins); });
}

std::string Registry::to_prometheus() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(counter->value()) + "\n";
  }
  for (const auto& [name, series] : labeled_counters_) {
    out += "# TYPE " + name + " counter\n";
    for (const auto& [campaign, counter] : series) {
      out += series_key(name, campaign) + " " +
             std::to_string(counter->value()) + "\n";
    }
  }
  for (const auto& [name, gauge] : gauges_) {
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + std::to_string(gauge->value()) + "\n";
  }
  for (const auto& [name, series] : labeled_gauges_) {
    out += "# TYPE " + name + " gauge\n";
    for (const auto& [campaign, gauge] : series) {
      out += series_key(name, campaign) + " " +
             std::to_string(gauge->value()) + "\n";
    }
  }
  for (const auto& [name, histogram] : histograms_) {
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t bin = 0; bin < histogram->bin_count(); ++bin) {
      cumulative += histogram->count(bin);
      out += name + "_bucket{le=\"" +
             util::format("%g", histogram->bin_high(bin)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(histogram->total()) +
           "\n";
    out += name + "_sum " + util::format("%g", histogram->sum()) + "\n";
    out += name + "_count " + std::to_string(histogram->total()) + "\n";
  }
  for (const auto& [name, series] : labeled_histograms_) {
    out += "# TYPE " + name + " histogram\n";
    for (const auto& [campaign, histogram] : series) {
      std::uint64_t cumulative = 0;
      for (std::size_t bin = 0; bin < histogram->bin_count(); ++bin) {
        cumulative += histogram->count(bin);
        out += name + "_bucket{campaign=\"" + campaign + "\",le=\"" +
               util::format("%g", histogram->bin_high(bin)) + "\"} " +
               std::to_string(cumulative) + "\n";
      }
      out += name + "_bucket{campaign=\"" + campaign + "\",le=\"+Inf\"} " +
             std::to_string(histogram->total()) + "\n";
      out += series_key(name + "_sum", campaign) + " " +
             util::format("%g", histogram->sum()) + "\n";
      out += series_key(name + "_count", campaign) + " " +
             std::to_string(histogram->total()) + "\n";
    }
  }
  return out;
}

Value Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  util::JsonObject counters;
  for (const auto& [name, counter] : counters_) {
    counters.set(name, Value(counter->value()));
  }
  for (const auto& [name, series] : labeled_counters_) {
    for (const auto& [campaign, counter] : series) {
      counters.set(series_key(name, campaign), Value(counter->value()));
    }
  }
  util::JsonObject gauges;
  for (const auto& [name, gauge] : gauges_) {
    gauges.set(name, Value(gauge->value()));
  }
  for (const auto& [name, series] : labeled_gauges_) {
    for (const auto& [campaign, gauge] : series) {
      gauges.set(series_key(name, campaign), Value(gauge->value()));
    }
  }
  util::JsonObject histograms;
  const auto histogram_entry = [](const LatencyHistogram& histogram) {
    Value::Array buckets;
    buckets.reserve(histogram.bin_count());
    for (std::size_t bin = 0; bin < histogram.bin_count(); ++bin) {
      buckets.emplace_back(static_cast<std::size_t>(histogram.count(bin)));
    }
    // Built field-by-field: GCC 12's -Wmaybe-uninitialized misfires on
    // moving variant temporaries out of a nested initializer list here.
    util::JsonObject entry;
    entry.set("lo", Value(histogram.bin_low(0)));
    entry.set("width", Value(histogram.bin_high(0) - histogram.bin_low(0)));
    entry.set("total", Value(histogram.total()));
    entry.set("sum", Value(histogram.sum()));
    entry.set("buckets", Value(std::move(buckets)));
    return Value(std::move(entry));
  };
  for (const auto& [name, histogram] : histograms_) {
    histograms.set(name, histogram_entry(*histogram));
  }
  for (const auto& [name, series] : labeled_histograms_) {
    for (const auto& [campaign, histogram] : series) {
      histograms.set(series_key(name, campaign), histogram_entry(*histogram));
    }
  }
  util::JsonObject root;
  root.set("counters", Value(std::move(counters)));
  root.set("gauges", Value(std::move(gauges)));
  root.set("histograms", Value(std::move(histograms)));
  return Value(std::move(root));
}

std::string pipeline_summary(const Registry& registry) {
  // The registry parameter is non-const in spirit (get-or-create), but
  // summaries read existing metrics only; cast through the public API by
  // snapshotting.  Reading via snapshot keeps this function usable on
  // `const Registry&` without exposing internal maps.
  const Value snap = registry.snapshot();
  const auto counter_of = [&](const char* name) -> std::uint64_t {
    const Value* v = snap.get_path(std::string("counters.") + name);
    return v == nullptr
               ? 0
               : static_cast<std::uint64_t>(v->try_int().value_or(0));
  };
  const auto histogram_stats = [&](const char* name, double& mean_out,
                                   double& p50, double& p90, double& p99) {
    mean_out = p50 = p90 = p99 = 0.0;
    const Value* h = snap.get_path(std::string("histograms.") + name);
    if (h == nullptr) return;
    const Value* buckets = h->get("buckets");
    const Value* lo = h->get("lo");
    const Value* width = h->get("width");
    const Value* total = h->get("total");
    const Value* sum = h->get("sum");
    if (buckets == nullptr || !buckets->is_array() || lo == nullptr ||
        width == nullptr || total == nullptr || sum == nullptr) {
      return;
    }
    const double n = total->as_double();
    if (n <= 0.0) return;
    mean_out = sum->as_double() / n;
    const auto quantile = [&](double q) {
      const double target = q * n;
      double seen = 0.0;
      for (std::size_t bin = 0; bin < buckets->as_array().size(); ++bin) {
        seen += buckets->as_array()[bin].as_double();
        if (seen >= target) {
          return lo->as_double() +
                 width->as_double() * static_cast<double>(bin + 1);
        }
      }
      return lo->as_double() +
             width->as_double() *
                 static_cast<double>(buckets->as_array().size());
    };
    p50 = quantile(0.5);
    p90 = quantile(0.9);
    p99 = quantile(0.99);
  };

  const std::uint64_t groups = counter_of("upin_journal_groups_committed_total");
  const std::uint64_t events = counter_of("upin_journal_events_enqueued_total");
  const std::uint64_t stalls =
      counter_of("upin_journal_backpressure_stalls_total");

  double flush_mean = 0.0, flush_p50 = 0.0, flush_p90 = 0.0, flush_p99 = 0.0;
  histogram_stats("upin_journal_flush_latency_us", flush_mean, flush_p50,
                  flush_p90, flush_p99);
  double sync_mean = 0.0, sync_p50 = 0.0, sync_p90 = 0.0, sync_p99 = 0.0;
  histogram_stats("upin_journal_sync_wait_us", sync_mean, sync_p50, sync_p90,
                  sync_p99);

  const double mean_group =
      groups == 0 ? 0.0
                  : static_cast<double>(events) / static_cast<double>(groups);
  std::string out;
  out += "journal pipeline metrics:\n";
  out += util::format("  events enqueued   : %llu in %llu groups (mean group size %.2f)\n",
                      static_cast<unsigned long long>(events),
                      static_cast<unsigned long long>(groups), mean_group);
  out += util::format("  flush latency     : mean %.0f us | p50 <= %.0f | p90 <= %.0f | p99 <= %.0f\n",
                      flush_mean, flush_p50, flush_p90, flush_p99);
  out += util::format("  sync wait         : mean %.0f us | p50 <= %.0f | p90 <= %.0f | p99 <= %.0f\n",
                      sync_mean, sync_p50, sync_p90, sync_p99);
  out += util::format("  backpressure      : %llu stalls\n",
                      static_cast<unsigned long long>(stalls));
  return out;
}

}  // namespace upin::obs
