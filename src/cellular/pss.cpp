#include "cellular/pss.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dsp/goertzel.hpp"
#include "dsp/plan.hpp"
#include "dsp/simd.hpp"
#include "obs/metrics.hpp"
#include "util/units.hpp"

namespace speccal::cellular {

namespace {
constexpr std::array<int, 3> kRootIndex = {25, 29, 34};

/// Deterministic per-cell frame-timing offset so cells are not frame-aligned.
[[nodiscard]] double frame_offset_s(std::uint64_t cell_id) noexcept {
  std::uint64_t s = cell_id * 0x9E3779B97F4A7C15ull;
  return (static_cast<double>(util::splitmix64(s) & 0xFFFF) / 65536.0) * kPssPeriodS;
}

/// The six correlation references (3 roots x {0, 0.5}-sample delay) are
/// deterministic, so synthesize them once per process instead of once per
/// search call (each synthesis is an IFFT + normalization).
[[nodiscard]] const std::array<std::array<std::vector<std::complex<float>>, 2>, 3>&
search_references() {
  static const auto refs = [] {
    std::array<std::array<std::vector<std::complex<float>>, 2>, 3> r;
    for (int nid2 = 0; nid2 < 3; ++nid2)
      for (int f = 0; f < 2; ++f)
        r[static_cast<std::size_t>(nid2)][static_cast<std::size_t>(f)] =
            pss_time_domain(nid2, f == 0 ? 0.0 : 0.5);
    return r;
  }();
  return refs;
}
}  // namespace

std::array<std::complex<double>, 62> pss_sequence(int nid2) {
  if (nid2 < 0 || nid2 > 2)
    throw std::invalid_argument("pss_sequence: N_ID^(2) must be 0, 1 or 2");
  const double u = static_cast<double>(kRootIndex[static_cast<std::size_t>(nid2)]);
  std::array<std::complex<double>, 62> d{};
  for (int n = 0; n < 31; ++n) {
    const double phase = -std::numbers::pi * u * n * (n + 1) / 63.0;
    d[static_cast<std::size_t>(n)] = {std::cos(phase), std::sin(phase)};
  }
  for (int n = 31; n < 62; ++n) {
    const double phase = -std::numbers::pi * u * (n + 1) * (n + 2) / 63.0;
    d[static_cast<std::size_t>(n)] = {std::cos(phase), std::sin(phase)};
  }
  return d;
}

std::vector<std::complex<float>> pss_time_domain(int nid2, double fractional_delay) {
  const auto d = pss_sequence(nid2);
  std::vector<std::complex<double>> grid(kPssFftSize, {0.0, 0.0});
  // TS 36.211: d(n) occupies subcarriers k = n - 31 (n < 31, negative side)
  // and k = n - 30 (n >= 31, positive side); DC stays empty.
  for (int n = 0; n < 31; ++n)
    grid[kPssFftSize + static_cast<std::size_t>(n - 31)] = d[static_cast<std::size_t>(n)];
  for (int n = 31; n < 62; ++n)
    grid[static_cast<std::size_t>(n - 30)] = d[static_cast<std::size_t>(n)];

  if (fractional_delay != 0.0) {
    // Linear phase in frequency = fractional delay in time.
    for (std::size_t k = 0; k < kPssFftSize; ++k) {
      if (grid[k] == std::complex<double>{}) continue;
      double f = static_cast<double>(k);
      if (f >= kPssFftSize / 2.0) f -= static_cast<double>(kPssFftSize);
      const double ph = -2.0 * std::numbers::pi * f * fractional_delay /
                        static_cast<double>(kPssFftSize);
      grid[k] *= std::complex<double>(std::cos(ph), std::sin(ph));
    }
  }

  // Plan-based inverse transform; the 128-point plan is shared process-wide
  // (every CellSignalSource and searcher hits the same size).
  dsp::PlanCache::shared().plan_f64(kPssFftSize)->inverse(grid);

  // Normalize to unit average power over the symbol.
  double power = 0.0;
  for (const auto& v : grid) power += std::norm(v);
  power /= static_cast<double>(grid.size());
  const double scale = 1.0 / std::sqrt(power);

  std::vector<std::complex<float>> out(kPssFftSize);
  for (std::size_t i = 0; i < kPssFftSize; ++i)
    out[i] = {static_cast<float>(grid[i].real() * scale),
              static_cast<float>(grid[i].imag() * scale)};
  return out;
}

CellSignalSource::CellSignalSource(Cell cell, prop::LinkParams link, util::Rng rng)
    : cell_(std::move(cell)), link_(link), rng_(rng) {
  for (int nid2 = 0; nid2 < 3; ++nid2)
    pss_waveforms_[static_cast<std::size_t>(nid2)] = pss_time_domain(nid2);
}

void CellSignalSource::render(const sdr::CaptureContext& ctx,
                              std::span<dsp::Sample> accum) {
  const double offset_hz = cell_.dl_freq_hz - ctx.center_freq_hz;
  if (std::fabs(offset_hz) > ctx.sample_rate_hz / 2.0) return;

  // Link budget for the whole downlink carrier.
  prop::LinkInput in;
  in.transmitter = cell_.position;
  in.receiver = ctx.rx->position;
  in.freq_hz = cell_.dl_freq_hz;
  in.tx_power_dbm = cell_.eirp_dbm;
  in.emitter_id = cell_.cell_id;
  if (ctx.rx->antenna != nullptr) {
    const double az = geo::bearing_deg(ctx.rx->position, cell_.position);
    in.rx_antenna_gain_dbi = ctx.rx->antenna->gain_dbi(cell_.dl_freq_hz, az);
  }
  const double rx_dbm =
      prop::evaluate_link(in, link_, ctx.rx->obstructions, ctx.rx->fading).rx_power_dbm;
  const double total_mw = util::dbm_to_watts(rx_dbm) * 1e3;
  if (total_mw < 1e-18) return;

  // The PSS occupies 62 of the carrier's 12*N_RB subcarriers at the common
  // per-RE power; the rest of the grid is modelled as wideband noise at the
  // full carrier power (it is on during the PSS symbol too).
  const double re_count = 12.0 * cell_.resource_blocks();
  const double pss_mw = total_mw * 62.0 / re_count;
  const float pss_amp = static_cast<float>(std::sqrt(pss_mw));
  const float noise_amp =
      static_cast<float>(std::sqrt(total_mw / 2.0));  // per component

  rng_.add_normal(dsp::as_floats(accum), noise_amp);

  // PSS bursts every half frame, at this cell's frame phase.
  const int nid2 = static_cast<int>(cell_.pci % 3);
  const auto& pss = pss_waveforms_[static_cast<std::size_t>(nid2)];
  const double t0 = ctx.start_time_s;
  const double t1 = t0 + static_cast<double>(ctx.sample_count) / ctx.sample_rate_hz;
  const double phase0 = frame_offset_s(cell_.cell_id);
  const double first = std::ceil((t0 - phase0 - 1e-12) / kPssPeriodS);

  for (double k = first;; k += 1.0) {
    const double t = phase0 + k * kPssPeriodS;
    if (t >= t1) break;
    if (t < t0 - static_cast<double>(pss.size()) / ctx.sample_rate_hz) continue;
    const auto start = static_cast<std::ptrdiff_t>(
        std::floor((t - t0) * ctx.sample_rate_hz));
    for (std::size_t n = 0; n < pss.size(); ++n) {
      const std::ptrdiff_t idx = start + static_cast<std::ptrdiff_t>(n);
      if (idx < 0) continue;
      if (idx >= static_cast<std::ptrdiff_t>(accum.size())) break;
      // Apply the baseband offset of this carrier within the capture.
      const double ph = 2.0 * std::numbers::pi * offset_hz *
                        static_cast<double>(idx) / ctx.sample_rate_hz;
      const std::complex<float> rot(static_cast<float>(std::cos(ph)),
                                    static_cast<float>(std::sin(ph)));
      accum[static_cast<std::size_t>(idx)] += pss[n] * rot * pss_amp;
    }
  }
}

PssDetection pss_search(std::span<const std::complex<float>> capture) {
  PssDetection best;
  if (capture.size() < 2 * kPssFftSize) return best;

  // Liveness gate (DESIGN.md §14): a Goertzel comb across the PSS band plus
  // a total-power read over the first half frame answers "is there any
  // energy here at all?" before the O(span x refs x 128) correlation
  // search. Decimated or spectral pre-detection is NOT safe for PSS — a
  // weak cell's ZC correlation peak is ~2 samples wide and the symbol is
  // spectrally flat against the in-carrier noise — so the gate only
  // rejects essentially-dead captures (faulted SDRs, disconnected front
  // ends), where the search could only ever return noise.
  {
    static obs::Counter& gate_pass =
        obs::Registry::global().counter("speccal_gate_pss_pass_total");
    static obs::Counter& gate_skip =
        obs::Registry::global().counter("speccal_gate_pss_skip_total");
    const std::size_t probe = std::min<std::size_t>(capture.size(), 9600);
    const double mean_power =
        dsp::simd::sum_power(capture.data(), probe) / static_cast<double>(probe);
    // PSS occupies 62 x 15 kHz subcarriers (+/-465 kHz); teeth inside that.
    dsp::Goertzel comb({-390e3, -195e3, 195e3, 390e3}, kSearchRateHz);
    comb.feed(capture.first(probe));
    double comb_max = 0.0;
    for (std::size_t b = 0; b < comb.bin_count(); ++b)
      comb_max = std::max(comb_max, comb.power(b));
    if (mean_power < 1e-15 && comb_max < 1e-15) {
      gate_skip.add();
      return best;
    }
    gate_pass.add();
  }

  // PSS repeats every half frame = exactly 9600 samples at 1.92 Msps.
  // Non-coherent combining across those occurrences is what separates a
  // self-interference-limited cell (per-symbol metric ~0.09) from the
  // extreme-value tail of pure noise over tens of thousands of offsets.
  const auto period =
      static_cast<std::size_t>(std::lround(kPssPeriodS * kSearchRateHz));
  const std::size_t search_span =
      std::min(period, capture.size() - kPssFftSize + 1);

  // Prefix energy for O(1) window energy.
  std::vector<double> prefix(capture.size() + 1, 0.0);
  for (std::size_t i = 0; i < capture.size(); ++i)
    prefix[i + 1] = prefix[i] + std::norm(capture[i]);

  const std::size_t half = kPssFftSize / 2;
  for (int nid2 = 0; nid2 < 3; ++nid2) {
   for (int frac = 0; frac < 2; ++frac) {
    const auto& ref =
        search_references()[static_cast<std::size_t>(nid2)][static_cast<std::size_t>(frac)];

    for (std::size_t k = 0; k < search_span; ++k) {
      double num = 0.0;
      double window_energy = 0.0;
      std::complex<double> first_c1{}, first_c2{};
      int occurrences = 0;
      for (std::size_t start = k; start + kPssFftSize <= capture.size();
           start += period) {
        // Split correlation tolerates residual CFO. simd::dot_conj computes
        // sum(x * conj(ref)) in float lanes (widened on reduction); the
        // ~1e-7 relative error is far inside the detection margin.
        const std::complex<double> c1 =
            dsp::simd::dot_conj(capture.data() + start, ref.data(), half);
        const std::complex<double> c2 = dsp::simd::dot_conj(
            capture.data() + start + half, ref.data() + half, half);
        num += std::norm(c1) + std::norm(c2);
        window_energy += prefix[start + kPssFftSize] - prefix[start];
        if (occurrences == 0) {
          first_c1 = c1;
          first_c2 = c2;
        }
        ++occurrences;
      }
      if (window_energy <= 1e-20 || occurrences == 0) continue;
      const double metric =
          2.0 * num / (window_energy * static_cast<double>(kPssFftSize));
      if (metric > best.metric) {
        best.metric = metric;
        best.nid2 = nid2;
        best.timing_offset = k;
        const double phase = std::arg(first_c2 * std::conj(first_c1));
        best.cfo_hz = phase / (2.0 * std::numbers::pi) * kSearchRateHz /
                      static_cast<double>(half);
      }
    }
   }
  }
  return best;
}

std::vector<std::pair<Cell, PssDetection>> waveform_cell_search(
    sdr::Device& device, const std::vector<Cell>& candidates) {
  std::vector<std::pair<Cell, PssDetection>> out;
  device.set_gain_mode(sdr::GainMode::kAgc);
  dsp::Buffer capture(static_cast<std::size_t>(kPssCaptureDurationS * kSearchRateHz));

  for (const auto& cell : candidates) {
    PssDetection det;
    if (device.tune(cell.dl_freq_hz, kSearchRateHz)) {
      device.capture_into(capture);
      det = pss_search(capture);
      det.detected = det.metric >= kPssDetectionThreshold &&
                     det.nid2 == static_cast<int>(cell.pci % 3);
    }
    out.emplace_back(cell, det);
  }
  return out;
}

}  // namespace speccal::cellular
