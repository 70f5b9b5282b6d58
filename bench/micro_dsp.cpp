// Microbenchmarks: DSP primitives behind the TV power meter, the spectrum
// tooling and the simulated device capture (google-benchmark; not gated in
// CI), plus the gated TV detector timed against a full-capture Welch
// integration, written to BENCH_dsp.json (schema in DESIGN.md §8).
//
// Usage:
//   micro_dsp [gbench flags] [--json=PATH] [--compare-iters=N]
// --json defaults to BENCH_dsp.json in the working directory;
// --compare-iters caps the comparison loop (0 = auto-calibrate to ~0.25 s
// per variant; CI's bench-smoke job passes a small fixed count). A count
// that is not a non-negative JSON integer is a usage error (exit 2).
#include <benchmark/benchmark.h>

#include <chrono>
#include <complex>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dsp/fir.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/plan.hpp"
#include "dsp/simd.hpp"
#include "dsp/welch.hpp"
#include "dsp/window.hpp"
#include "sdr/sim.hpp"
#include "util/json.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

using namespace speccal;

namespace {

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
  // Samples/s of the direct path the emitter shaper takes on small blocks.
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block.size()));
}
BENCHMARK(BM_FirFilter)->Arg(63)->Arg(129)->Arg(255);

void BM_FirDesign(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(dsp::design_bandpass(8e6, -2.69e6, 2.69e6, 129));
}
BENCHMARK(BM_FirDesign);

// ------------------------------------------- gbench: simulated capture ----
// The device capture path (sdr::SimulatedSdr): Gaussian draws for thermal
// and emitter noise, and the fused gain + quantize ADC kernel.

void BM_RngNormal(benchmark::State& state) {
  util::Rng rng(5);
  constexpr int kDraws = 4096;
  for (auto _ : state) {
    double acc = 0.0;
    for (int i = 0; i < kDraws; ++i) acc += rng.normal();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kDraws);  // draws
}
BENCHMARK(BM_RngNormal);

void BM_RngFillNormal(benchmark::State& state) {
  util::Rng rng(5);
  std::vector<float> draws(4096);
  for (auto _ : state) {
    rng.fill_normal(draws, 1.0f);
    benchmark::DoNotOptimize(draws.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(draws.size()));  // draws
}
BENCHMARK(BM_RngFillNormal);

void BM_ScaleQuantize(benchmark::State& state, bool dispatched) {
  // 160k complex samples in full-scale units; at scale 1 the in-place pass
  // maps the block onto itself after the first iteration, and the kernels'
  // cost does not depend on the values.
  auto block = noise_block(160000, 6);
  for (auto& v : block) v *= 0.05f;
  auto* x = reinterpret_cast<float*>(block.data());
  const std::size_t n = 2 * block.size();
  for (auto _ : state) {
    if (dispatched)
      dsp::simd::scale_quantize(x, n, 1.0f, 12);
    else
      dsp::simd::scalar::scale_quantize(x, n, 1.0f, 12);
    benchmark::DoNotOptimize(x);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block.size()));  // complex samples
}
BENCHMARK_CAPTURE(BM_ScaleQuantize, simd, true);
BENCHMARK_CAPTURE(BM_ScaleQuantize, scalar, false);

void BM_SimulatedSdrCapture(benchmark::State& state) {
  // A bare device (no sources): thermal noise, gain and ADC only, one
  // second at 2 Msps per iteration.
  sdr::SimulatedSdr dev(sdr::SimulatedSdr::bladerf_like_info(), sdr::RxEnvironment{},
                        util::Rng(7));
  dev.set_gain_db(40.0);
  (void)dev.tune(1090e6, 2e6);
  dsp::Buffer block(2000000);
  for (auto _ : state) {
    dev.capture_into(block);
    benchmark::DoNotOptimize(block.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block.size()));
}
BENCHMARK(BM_SimulatedSdrCapture)->Unit(benchmark::kMillisecond);

// ------------------------------------------------- BENCH_dsp.json writer ----

struct CompareRow {
  std::string variant;
  std::size_t iterations = 0;
  double wall_s = 0.0;
  double samples_per_s = 0.0;
};

/// Time `iters` calls of `fn`, each processing `n` samples. iters == 0
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

/// The gated-detector comparison (schema v3), two current library paths on
/// one vacant 20 ms TV channel at 8 Msps: integrate the whole capture with
/// Welch (tv::PowerMeter's path on an occupied channel) vs probe the pilot
/// with Goertzel and integrate the 10% prefix (exactly what the meter's
/// gate does on a skip). CI's bench-smoke
/// holds the speedup to >= 4x.
int write_bench_json(const std::string& path, std::size_t compare_iters) {
  const std::string name = "tv_vacant_channel_power_160k";
  constexpr std::size_t kN = 160000;
  constexpr double kFs = 8e6;
  constexpr double kPilot = -2.690559e6;
  const auto capture = noise_block(kN, 7);
  dsp::WelchEstimator welch{dsp::WelchConfig{}};
  dsp::WelchResult res;
  const auto before = time_variant("full_capture_welch", kN, compare_iters, [&] {
    welch.estimate_into(capture, kFs, res);
    benchmark::DoNotOptimize(dsp::band_power(res, kFs, -2.69e6, 2.69e6));
  });
  dsp::Goertzel probe({kPilot, kPilot + 250e3, kPilot - 250e3}, kFs);
  const std::span<const std::complex<float>> span(capture);
  const auto after = time_variant("goertzel_gate_prefix", kN, compare_iters, [&] {
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
  const double speedup =
      before.samples_per_s > 0.0 ? after.samples_per_s / before.samples_per_s : 0.0;

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
  w.value(3);
  w.key("simd_backend");
  w.value(dsp::simd::backend_name());
  w.key("results");
  w.begin_array();
  for (const auto* row : {&before, &after}) {
    w.begin_object();
    w.key("name");
    w.value(name);
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
  w.end_array();
  w.key("speedup");
  w.begin_object();
  w.key(name);
  w.value(speedup);
  w.end_object();
  w.end_object();
  os << "\n";

  std::cout << name << ": " << before.variant << " " << before.samples_per_s / 1e6
            << " Msps, " << after.variant << " " << after.samples_per_s / 1e6
            << " Msps, speedup " << speedup << "x\n";
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
  try {
    util::Args args(argc, argv);
    json_path = args.text("--json").value_or(json_path);
    compare_iters = args.integer("--compare-iters", compare_iters);
    gbench_args = args.rest();
  } catch (const std::invalid_argument& e) {
    return util::usage_error("micro_dsp", e.what(),
                             "[gbench flags] [--json=PATH] [--compare-iters=N]");
  }
  int gbench_argc = static_cast<int>(gbench_args.size());
  benchmark::Initialize(&gbench_argc, gbench_args.data());
  benchmark::RunSpecifiedBenchmarks();

  return write_bench_json(json_path, compare_iters);
}
