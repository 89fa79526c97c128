// rng.hpp — deterministic random number generation.
//
// Every stochastic component of the simulator (jitter, background traffic,
// overflow episodes) draws from an Rng seeded from a single experiment
// seed, so a full survey run is bit-reproducible.  Substreams are forked
// by label (`fork("link:AMS-FRA")`), which keeps draws independent of the
// order in which other components consume randomness.  Hot paths stream
// a label's pieces through `Fnv1a` instead of building the string: the
// fork seed is the same 64-bit value either way.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string_view>
#include <vector>

namespace upin::util {

/// SplitMix64: used to expand seeds and hash labels into stream seeds.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Streaming FNV-1a 64-bit hash.  Absorbing a label piece by piece gives
/// the hash of the concatenated text, so a fork label never has to exist
/// as a string.  A hasher is a plain value: copy one to continue a shared
/// prefix (`Fnv1a(prefix).add_int(bucket)`).
class Fnv1a {
 public:
  Fnv1a& add(std::string_view piece) noexcept {
    for (const char c : piece) {
      hash_ ^= static_cast<std::uint8_t>(c);
      hash_ *= 0x100000001B3ULL;
    }
    return *this;
  }

  /// Absorb `value` as decimal text — the same bytes `std::to_string`
  /// writes for an integer.
  template <std::integral T>
    requires(!std::same_as<T, bool> && sizeof(T) <= 8)
  Fnv1a& add_int(T value) noexcept {
    char digits[24];  // "-9223372036854775808" is 20 bytes
    const auto end = std::to_chars(digits, digits + sizeof digits, value).ptr;
    return add(std::string_view(digits, static_cast<std::size_t>(end - digits)));
  }

  /// Absorb `value` as `std::to_string(double)` writes it (`%f`).
  Fnv1a& add_fixed(double value) noexcept;

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// FNV-1a 64-bit hash of a string, for label-derived substreams.
[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view text) noexcept {
  return Fnv1a().add(text).value();
}

/// xoshiro256** PRNG — fast, high-quality, deterministic across platforms.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// Derive an independent substream tied to `label`.  Forking the same
  /// label from the same parent always yields the same stream.
  [[nodiscard]] Rng fork(std::string_view label) const noexcept;
  /// The same fork, keyed by a label already streamed into `label`.
  [[nodiscard]] Rng fork(const Fnv1a& label) const noexcept;

  /// Raw 64 random bits (UniformRandomBitGenerator interface).
  std::uint64_t operator()() noexcept { return next(); }
  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept { return ~0ULL; }

  std::uint64_t next() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
  /// Standard normal via Box–Muller (cached spare).
  double normal() noexcept;
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;
  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate) noexcept;
  /// Pareto with scale xm > 0 and shape alpha > 0 (heavy-tailed jitter).
  double pareto(double xm, double alpha) noexcept;
  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;
  /// Log-normal: exp(Normal(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept;

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    if (items.empty()) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i)));
      using std::swap;
      swap(items[i], items[j]);
    }
  }

 private:
  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace upin::util
