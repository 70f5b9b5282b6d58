// Microbenchmarks: DSP primitives behind the TV power meter and the
// spectrum tooling (google-benchmark), plus a self-contained before/after
// comparison of the plan-based engine against the pre-plan free-function
// implementation, written to BENCH_dsp.json (schema in DESIGN.md §8).
//
// Usage:
//   micro_dsp [gbench flags] [--json=PATH] [--compare-iters=N]
// --json defaults to BENCH_dsp.json in the working directory;
// --compare-iters caps the comparison loop (0 = auto-calibrate to ~0.25 s
// per variant; CI's bench-smoke job passes a small fixed count).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <complex>
#include <fstream>
#include <iostream>
#include <numbers>
#include <string>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/plan.hpp"
#include "dsp/simd.hpp"
#include "dsp/welch.hpp"
#include "dsp/window.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

using namespace speccal;

namespace {

// ------------------------------------------------------------ pre-PR ref ----

/// The pre-plan power_spectrum, kept verbatim as the comparison baseline:
/// widens the I/Q block to complex<double>, allocates a fresh work buffer
/// and recomputes twiddles by recurrence on every call.
namespace legacy {

void fft_inplace(std::span<std::complex<double>> data) {
  const std::size_t n = data.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

std::vector<double> power_spectrum(std::span<const std::complex<float>> block,
                                   std::span<const double> window) {
  if (block.empty()) return {};
  std::size_t n = 1;
  while (n < block.size()) n <<= 1;

  std::vector<std::complex<double>> work(n, {0.0, 0.0});
  double window_power = 0.0;
  for (std::size_t i = 0; i < block.size(); ++i) {
    const double w = (i < window.size()) ? window[i] : 1.0;
    window_power += w * w;
    work[i] = std::complex<double>(block[i].real(), block[i].imag()) * w;
  }
  if (window.empty()) window_power = static_cast<double>(block.size());

  fft_inplace(work);

  const double scale = 1.0 / (window_power * static_cast<double>(block.size()));
  std::vector<double> spectrum(n);
  for (std::size_t k = 0; k < n; ++k) spectrum[k] = std::norm(work[k]) * scale;
  return spectrum;
}

/// The pre-streaming goertzel_power, verbatim: one bin per pass, a
/// complex<double> rotation-accumulate (two double complex multiplies per
/// sample) instead of the two-real-multiply recurrence.
double goertzel_power(std::span<const std::complex<float>> block, double freq_hz,
                      double sample_rate_hz) noexcept {
  if (block.empty()) return 0.0;
  const double w = 2.0 * std::numbers::pi * freq_hz / sample_rate_hz;
  const std::complex<double> coeff(std::cos(w), std::sin(w));
  std::complex<double> acc{};
  std::complex<double> phasor(1.0, 0.0);
  for (const auto& s : block) {
    acc += std::complex<double>(s.real(), s.imag()) * std::conj(phasor);
    phasor *= coeff;
  }
  const double n = static_cast<double>(block.size());
  return std::norm(acc) / (n * n);
}

/// The pre-gate ADS-B first stage, verbatim: scalar |x|^2 followed by the
/// per-position pulse-min / quiet-max compare.
std::size_t preamble_scan(std::span<const std::complex<float>> samples,
                          std::size_t n_positions) {
  constexpr std::size_t kPulse[] = {0, 2, 7, 9};
  constexpr std::size_t kQuiet[] = {1, 3, 5, 11, 13, 15};
  std::vector<float> mag(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) mag[i] = std::norm(samples[i]);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < n_positions; ++i) {
    float pulse_min = mag[i + kPulse[0]];
    for (std::size_t p : kPulse) pulse_min = std::min(pulse_min, mag[i + p]);
    float quiet_max = 0.0f;
    for (std::size_t q : kQuiet) quiet_max = std::max(quiet_max, mag[i + q]);
    if (pulse_min > quiet_max) ++hits;
  }
  return hits;
}

}  // namespace legacy

std::vector<std::complex<float>> noise_block(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::complex<float>> block(n);
  for (auto& v : block)
    v = {static_cast<float>(rng.normal()), static_cast<float>(rng.normal())};
  return block;
}

// ------------------------------------------------------- gbench: engines ----

void BM_FftCachedPlanDouble(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<std::complex<double>> data(n);
  for (auto& v : data) v = {rng.normal(), rng.normal()};
  for (auto _ : state) {
    auto work = data;
    dsp::PlanCache::shared().plan_f64(n)->forward(work);  // per-call lookup
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FftCachedPlanDouble)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_FftPlanFloat(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = noise_block(n, 1);
  const dsp::FftPlan plan(n);
  auto work = data;
  for (auto _ : state) {
    work = data;
    plan.forward(work);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FftPlanFloat)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_PowerSpectrumLegacy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = noise_block(n, 2);
  const auto window = dsp::make_window(dsp::WindowType::kBlackmanHarris, n);
  for (auto _ : state)
    benchmark::DoNotOptimize(legacy::power_spectrum(data, window));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_PowerSpectrumLegacy)->Arg(4096)->Arg(8192);

void BM_PowerSpectrumPlan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = noise_block(n, 2);
  const auto window = dsp::make_window(dsp::WindowType::kBlackmanHarris, n);
  dsp::SpectrumEstimator estimator(n, window);
  std::vector<double> out;
  for (auto _ : state) {
    estimator.estimate(data, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_PowerSpectrumPlan)->Arg(4096)->Arg(8192);

void BM_WelchFreshEstimatorPerCall(benchmark::State& state) {
  const auto block = noise_block(160000, 4);  // one 20 ms hop at 8 Msps
  for (auto _ : state)
    benchmark::DoNotOptimize(dsp::WelchEstimator{}.estimate(block, 8e6));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block.size()));
}
BENCHMARK(BM_WelchFreshEstimatorPerCall);

void BM_WelchEstimatorReused(benchmark::State& state) {
  const auto block = noise_block(160000, 4);
  dsp::WelchEstimator estimator;
  dsp::WelchResult result;
  for (auto _ : state) {
    estimator.estimate_into(block, 8e6, result);
    benchmark::DoNotOptimize(result.psd.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block.size()));
}
BENCHMARK(BM_WelchEstimatorReused);

// ---------------------------------------------------- gbench: fir et al. ----

void BM_FirFilter(benchmark::State& state) {
  const auto taps_count = static_cast<std::size_t>(state.range(0));
  const auto taps = dsp::design_bandpass(8e6, -2.69e6, 2.69e6, taps_count);
  dsp::FirFilter filter(taps);
  const auto block = noise_block(65536, 3);
  std::vector<std::complex<float>> out;
  for (auto _ : state) {
    out.clear();
    filter.process(block, out);
    benchmark::DoNotOptimize(out.data());
  }
  // Samples/s: the TV meter needs >= 8 Msps equivalent offline throughput.
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block.size()));
}
BENCHMARK(BM_FirFilter)->Arg(63)->Arg(129)->Arg(255);

void BM_MovingAverage(benchmark::State& state) {
  dsp::MovingAverage avg(100000);
  double x = 0.123;
  for (auto _ : state) {
    benchmark::DoNotOptimize(avg.push(x));
    x = x * 1.0000001;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MovingAverage);

void BM_FirDesign(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(dsp::design_bandpass(8e6, -2.69e6, 2.69e6, 129));
}
BENCHMARK(BM_FirDesign);

// ------------------------------------------------- BENCH_dsp.json writer ----

struct CompareRow {
  std::string variant;
  std::size_t iterations = 0;
  double wall_s = 0.0;
  double samples_per_s = 0.0;
};

/// Time `fn` (one 4096-point power spectrum per call). iters == 0
/// auto-calibrates to ~0.25 s.
template <typename Fn>
CompareRow time_variant(const std::string& variant, std::size_t n,
                        std::size_t iters, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  if (iters == 0) {
    // Calibrate: grow until one batch takes >= 25 ms, then run 10 batches.
    std::size_t batch = 8;
    for (;;) {
      const auto t0 = clock::now();
      for (std::size_t i = 0; i < batch; ++i) fn();
      const double s = std::chrono::duration<double>(clock::now() - t0).count();
      if (s >= 0.025 || batch > (1u << 20)) break;
      batch *= 2;
    }
    iters = batch * 10;
  }
  const auto t0 = clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn();
  const double wall = std::chrono::duration<double>(clock::now() - t0).count();
  CompareRow row;
  row.variant = variant;
  row.iterations = iters;
  row.wall_s = wall;
  row.samples_per_s =
      wall > 0.0 ? static_cast<double>(iters * n) / wall : 0.0;
  return row;
}

struct Comparison {
  std::string name;
  CompareRow before;
  CompareRow after;

  [[nodiscard]] double speedup() const noexcept {
    return before.samples_per_s > 0.0 ? after.samples_per_s / before.samples_per_s
                                      : 0.0;
  }
};

/// The acceptance comparisons (schema v2, one speedup entry per row):
///   - power_spectrum_4096_float: pre-plan free function vs plan estimator
///     (the PR-3 row, kept for baseline continuity; the plan side now runs
///     the SIMD butterfly/power kernels);
///   - tv_vacant_channel_power_160k: full-capture Welch integrate vs the
///     Goertzel pilot gate + abbreviated prefix — the gated-detector row
///     CI's bench-smoke holds to >= 4x;
///   - adsb_preamble_first_stage_64k: scalar |x|^2 + min/max scan vs the
///     SIMD magnitude + candidate-bitmap kernels;
///   - goertzel_pilot_probe_3bin_16k: legacy rotate-accumulate (one bin per
///     pass) vs the streaming multi-bin recurrence.
int write_bench_json(const std::string& path, std::size_t compare_iters) {
  std::vector<Comparison> comparisons;

  {
    constexpr std::size_t kN = 4096;
    const auto block = noise_block(kN, 42);
    const auto window = dsp::make_window(dsp::WindowType::kBlackmanHarris, kN);
    Comparison c;
    c.name = "power_spectrum_4096_float";
    c.before = time_variant("pre_plan_free_function", kN, compare_iters, [&] {
      benchmark::DoNotOptimize(legacy::power_spectrum(block, window));
    });
    dsp::SpectrumEstimator estimator(kN, window);
    std::vector<double> out;
    c.after = time_variant("fft_plan_estimator", kN, compare_iters, [&] {
      estimator.estimate(block, out);
      benchmark::DoNotOptimize(out.data());
    });
    comparisons.push_back(std::move(c));
  }

  {
    // One vacant 20 ms TV channel at 8 Msps: integrate the whole capture vs
    // probe the pilot with Goertzel and integrate the 10% prefix (exactly
    // what tv::PowerMeter's gate does on a skip).
    constexpr std::size_t kN = 160000;
    constexpr double kFs = 8e6;
    constexpr double kPilot = -2.690559e6;
    const auto capture = noise_block(kN, 7);
    dsp::WelchEstimator welch{dsp::WelchConfig{}};
    dsp::WelchResult res;
    Comparison c;
    c.name = "tv_vacant_channel_power_160k";
    c.before = time_variant("full_capture_welch", kN, compare_iters, [&] {
      welch.estimate_into(capture, kFs, res);
      benchmark::DoNotOptimize(dsp::band_power(res, kFs, -2.69e6, 2.69e6));
    });
    dsp::Goertzel probe({kPilot, kPilot + 250e3, kPilot - 250e3}, kFs);
    const std::span<const std::complex<float>> span(capture);
    c.after = time_variant("goertzel_gate_prefix", kN, compare_iters, [&] {
      // 4 averaged sub-segments over the 10% gate prefix.
      double pilot = 0.0, floor = 0.0;
      for (std::size_t s = 0; s < 4; ++s) {
        probe.reset();
        probe.feed(span.subspan(s * 4000, 4000));
        pilot += probe.power(0);
        floor += 0.5 * (probe.power(1) + probe.power(2));
      }
      benchmark::DoNotOptimize(pilot);
      if (pilot < util::db_to_ratio(6.0) * floor) {  // vacant: always true
        welch.estimate_into(span.first(16000), kFs, res);
        benchmark::DoNotOptimize(dsp::band_power(res, kFs, -2.69e6, 2.69e6));
      }
    });
    comparisons.push_back(std::move(c));
  }

  {
    constexpr std::size_t kPositions = 65536;
    const auto samples = noise_block(kPositions + 240, 8);
    Comparison c;
    c.name = "adsb_preamble_first_stage_64k";
    c.before = time_variant("scalar_scan", kPositions, compare_iters, [&] {
      benchmark::DoNotOptimize(legacy::preamble_scan(samples, kPositions));
    });
    std::vector<float> mag(samples.size());
    std::vector<std::uint8_t> bitmap(kPositions);
    c.after = time_variant("simd_bitmap", kPositions, compare_iters, [&] {
      dsp::simd::magnitude_squared(samples.data(), mag.data(), samples.size());
      dsp::simd::preamble_candidates(mag.data(), kPositions, bitmap.data());
      benchmark::DoNotOptimize(bitmap.data());
    });
    comparisons.push_back(std::move(c));
  }

  {
    constexpr std::size_t kN = 16384;
    constexpr double kFs = 8e6;
    const auto block = noise_block(kN, 9);
    const std::vector<double> freqs = {-2.690559e6, -2.440559e6, -2.940559e6};
    Comparison c;
    c.name = "goertzel_pilot_probe_3bin_16k";
    c.before = time_variant("rotate_accumulate", kN, compare_iters, [&] {
      double total = 0.0;
      for (double f : freqs) total += legacy::goertzel_power(block, f, kFs);
      benchmark::DoNotOptimize(total);
    });
    dsp::Goertzel g(freqs, kFs);
    c.after = time_variant("streaming_recurrence", kN, compare_iters, [&] {
      g.reset();
      g.feed(block);
      double total = 0.0;
      for (std::size_t b = 0; b < g.bin_count(); ++b) total += g.power(b);
      benchmark::DoNotOptimize(total);
    });
    comparisons.push_back(std::move(c));
  }

  std::ofstream os(path);
  if (!os) {
    std::cerr << "micro_dsp: cannot write " << path << "\n";
    return 1;
  }
  util::JsonWriter w(os);
  w.begin_object();
  w.key("bench");
  w.value("micro_dsp");
  w.key("schema_version");
  w.value(2);
  w.key("simd_backend");
  w.value(dsp::simd::backend_name());
  w.key("results");
  w.begin_array();
  for (const auto& c : comparisons) {
    for (const auto* row : {&c.before, &c.after}) {
      w.begin_object();
      w.key("name");
      w.value(c.name);
      w.key("variant");
      w.value(row->variant);
      w.key("iterations");
      w.value(row->iterations);
      w.key("wall_s");
      w.value(row->wall_s);
      w.key("samples_per_s");
      w.value(row->samples_per_s);
      w.end_object();
    }
  }
  w.end_array();
  w.key("speedup");
  w.begin_object();
  for (const auto& c : comparisons) {
    w.key(c.name);
    w.value(c.speedup());
  }
  w.end_object();
  w.end_object();
  os << "\n";

  for (const auto& c : comparisons)
    std::cout << c.name << ": " << c.before.variant << " "
              << c.before.samples_per_s / 1e6 << " Msps, " << c.after.variant
              << " " << c.after.samples_per_s / 1e6 << " Msps, speedup "
              << c.speedup() << "x\n";
  std::cout << "simd backend: " << dsp::simd::backend_name() << " -> " << path
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_dsp.json";
  std::size_t compare_iters = 0;  // auto-calibrate

  // Peel off our flags; everything else goes to google-benchmark.
  std::vector<char*> gbench_args;
  gbench_args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--compare-iters=", 0) == 0) {
      compare_iters = static_cast<std::size_t>(std::stoull(arg.substr(16)));
    } else {
      gbench_args.push_back(argv[i]);
    }
  }
  int gbench_argc = static_cast<int>(gbench_args.size());
  benchmark::Initialize(&gbench_argc, gbench_args.data());
  benchmark::RunSpecifiedBenchmarks();

  return write_bench_json(json_path, compare_iters);
}
