#include "util/rng.hpp"

#include <array>
#include <cmath>

#include "util/units.hpp"

namespace speccal::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {
[[nodiscard]] std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// One xoshiro256** step on `s`.
[[nodiscard]] inline std::uint64_t xoshiro_next(std::array<std::uint64_t, 4>& s) noexcept {
  const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

/// 53 random mantissa bits -> [0, 1).
[[nodiscard]] inline double unit_double(std::uint64_t bits) noexcept {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next() noexcept { return xoshiro_next(state_); }

double Rng::uniform() noexcept { return unit_double(next()); }

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t v = next();
  while (v >= limit) v = next();
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * kPi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

namespace {

// The 128-layer ziggurat for the standard normal density f(x) =
// exp(-x^2 / 2) (Marsaglia & Tsang, "The Ziggurat Method for Generating
// Random Variables", J. Stat. Softw. 5(8), 2000), sized for a 25-bit signed
// value j in [-2^24, 2^24), which converts to float exactly. Layer i spans
// |x| < x_i with x = j * w[i]; layer 0 is the base strip, whose part beyond
// r is the tail. |j| < k[i] lands in the part of the layer that lies wholly
// under the density and is accepted at once (97.2% of draws).
struct Ziggurat {
  static constexpr double kR = 3.442619855899;          // x_127: the tail starts here
  static constexpr double kArea = 9.91256303526217e-3;  // area of every layer
  static constexpr double kScale = 16777216.0;          // 2^24

  std::array<std::uint32_t, 128> k{};
  std::array<float, 128> w{};
  std::array<double, 128> f{};  // f(x_i)

  Ziggurat() noexcept {
    double x = kR;
    double x_above = kR;
    const double base_width = kArea / std::exp(-0.5 * x * x);
    k[0] = static_cast<std::uint32_t>(x / base_width * kScale);
    k[1] = 0;
    w[0] = static_cast<float>(base_width / kScale);
    w[127] = static_cast<float>(x / kScale);
    f[0] = 1.0;
    f[127] = std::exp(-0.5 * x * x);
    for (std::size_t i = 126; i >= 1; --i) {
      x = std::sqrt(-2.0 * std::log(kArea / x + std::exp(-0.5 * x * x)));
      k[i + 1] = static_cast<std::uint32_t>(x / x_above * kScale);
      x_above = x;
      f[i] = std::exp(-0.5 * x * x);
      w[i] = static_cast<float>(x / kScale);
    }
  }
};

const Ziggurat& ziggurat() noexcept {
  static const Ziggurat table;  // built once; looked up once per fill
  return table;
}

[[nodiscard]] inline std::uint32_t magnitude(std::int32_t j) noexcept {
  return j < 0 ? 0u - static_cast<std::uint32_t>(j) : static_cast<std::uint32_t>(j);
}

/// A draw that left the fast path, and the stream state after it.
struct SlowDraw {
  float z;
  std::array<std::uint64_t, 4> s;
};

/// The rejection path for the 32 bits `u` (2.8% of draws): the tail beyond r
/// for layer 0, the exact wedge test otherwise, and a fresh draw on
/// rejection. The state goes in and out by value, so the caller's copy is
/// never address-taken and stays in registers.
SlowDraw draw_slow(const Ziggurat& zig, std::uint32_t u,
                   std::array<std::uint64_t, 4> s) noexcept {
  for (;;) {
    const std::uint32_t layer = u & 127u;
    const std::int32_t j = static_cast<std::int32_t>(u) >> 7;
    const float x = static_cast<float>(j) * zig.w[layer];
    if (magnitude(j) < zig.k[layer]) return {x, s};
    if (layer == 0) {
      // Marsaglia (1964); 1 - unit_double is in (0, 1].
      double t = 0.0, y = 0.0;
      do {
        t = -std::log(1.0 - unit_double(xoshiro_next(s))) / Ziggurat::kR;
        y = -std::log(1.0 - unit_double(xoshiro_next(s)));
      } while (y + y < t * t);
      return {static_cast<float>(j < 0 ? -(Ziggurat::kR + t) : Ziggurat::kR + t), s};
    }
    // Wedge: accept when a uniform height in the layer lies under f(x).
    const double xd = x;
    const double height =
        zig.f[layer] + unit_double(xoshiro_next(s)) * (zig.f[layer - 1] - zig.f[layer]);
    if (height < std::exp(-0.5 * xd * xd)) return {x, s};
    u = static_cast<std::uint32_t>(xoshiro_next(s) >> 32);
  }
}

/// out[i] = sigma * z[i] (or += when kAdd), on a local copy of `state`
/// written back at the end.
template <bool kAdd>
void normal_fill(std::array<std::uint64_t, 4>& state, std::span<float> out,
                 float sigma) noexcept {
  const Ziggurat& zig = ziggurat();
  std::array<std::uint64_t, 4> s = state;
  const auto draw = [&](std::uint32_t u) noexcept {
    const std::uint32_t layer = u & 127u;
    const std::int32_t j = static_cast<std::int32_t>(u) >> 7;
    if (magnitude(j) < zig.k[layer]) [[likely]]
      return static_cast<float>(j) * zig.w[layer];
    const SlowDraw slow = draw_slow(zig, u, s);
    s = slow.s;
    return slow.z;
  };
  const auto put = [&](std::size_t i, float z) noexcept {
    if constexpr (kAdd)
      out[i] += sigma * z;
    else
      out[i] = sigma * z;
  };
  std::size_t i = 0;
  for (; i + 2 <= out.size(); i += 2) {
    const std::uint64_t bits = xoshiro_next(s);
    put(i, draw(static_cast<std::uint32_t>(bits)));
    put(i + 1, draw(static_cast<std::uint32_t>(bits >> 32)));
  }
  if (i < out.size()) put(i, draw(static_cast<std::uint32_t>(xoshiro_next(s))));
  state = s;
}

}  // namespace

void Rng::fill_normal(std::span<float> out, float sigma) noexcept {
  normal_fill<false>(state_, out, sigma);
}

void Rng::add_normal(std::span<float> out, float sigma) noexcept {
  normal_fill<true>(state_, out, sigma);
}

double Rng::exponential(double rate) noexcept {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / rate;
}

std::uint32_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 64.0) {
    // Knuth's multiplication method.
    const double limit = std::exp(-mean);
    double product = uniform();
    std::uint32_t count = 0;
    while (product > limit) {
      ++count;
      product *= uniform();
    }
    return count;
  }
  // Normal approximation with continuity correction for large means.
  const double sample = normal(mean, std::sqrt(mean));
  return sample <= 0.0 ? 0u : static_cast<std::uint32_t>(sample + 0.5);
}

bool Rng::chance(double probability) noexcept {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  return uniform() < probability;
}

Rng Rng::fork(std::uint64_t stream_id) const noexcept {
  std::uint64_t s = state_[0] ^ rotl(state_[3], 13) ^ (stream_id * 0xD1B54A32D192ED03ull);
  Rng child(0);
  for (auto& word : child.state_) word = splitmix64(s);
  return child;
}

}  // namespace speccal::util
