// Deterministic random number generation.
//
// All stochastic behaviour in the simulators (traffic arrivals, fading,
// thermal noise, payload bits) flows through this generator so that every
// experiment in the paper reproduction is bit-for-bit repeatable from a seed.
// The engine is xoshiro256** (Blackman & Vigna) seeded via SplitMix64; it is
// much faster than std::mt19937_64 and has no observable linear artifacts in
// the outputs we use.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace speccal::util {

/// SplitMix64 step; used for seeding and as a cheap stateless hash.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** PRNG with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept;

  /// Next raw 64-bit value.
  [[nodiscard]] std::uint64_t next() noexcept;

  // UniformRandomBitGenerator interface so Rng works with <algorithm>.
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ull; }
  result_type operator()() noexcept { return next(); }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box-Muller (cached second variate). For
  /// per-object draws (aircraft tracks, oscillator offsets); per-sample
  /// noise uses fill_normal.
  [[nodiscard]] double normal() noexcept;

  /// Normal with mean/stddev.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Fills `out` with independent N(0, sigma^2) floats: a 128-layer
  /// ziggurat (Marsaglia & Tsang) with exact tail and wedge rejection. Each
  /// 32-bit half of one next() gives a 7-bit layer and a 25-bit signed
  /// value, so one draw yields two normals. An odd-length fill discards the
  /// second normal of its last draw: fills split at even offsets equal one
  /// whole fill. Does not touch normal()'s cached variate.
  void fill_normal(std::span<float> out, float sigma) noexcept;

  /// out[i] += sigma * z[i], with the draws fill_normal would make.
  void add_normal(std::span<float> out, float sigma) noexcept;

  /// Exponential with the given rate (events per unit).
  [[nodiscard]] double exponential(double rate) noexcept;

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64).
  [[nodiscard]] std::uint32_t poisson(double mean) noexcept;

  /// Bernoulli trial.
  [[nodiscard]] bool chance(double probability) noexcept;

  /// Fork an independent child stream (stable function of parent state
  /// and `stream_id`, does not advance this generator).
  [[nodiscard]] Rng fork(std::uint64_t stream_id) const noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace speccal::util
