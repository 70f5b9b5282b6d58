#include "calib/survey.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "adsb/decoder.hpp"
#include "adsb/ppm.hpp"
#include "airtraffic/adsb_source.hpp"
#include "prop/pathloss.hpp"
#include "sdr/rx_environment.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace speccal::calib {

std::size_t SurveyResult::received_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(observations.begin(), observations.end(),
                    [](const AirplaneObservation& o) { return o.received; }));
}

std::size_t SurveyResult::missed_count() const noexcept {
  return observations.size() - received_count();
}

namespace {

constexpr double kGroundTruthRadiusM = 100e3;
/// Waveform-mode processing chunk [samples at 2 Msps].
constexpr std::size_t kChunkSamples = 1u << 18;
/// Link-budget mode: SNR (over the 2 MHz channel) at which half of the
/// messages decode, and the logistic width of the transition. Calibrated
/// against the waveform demodulator (preamble gate + CRC over 112 bits),
/// whose soft threshold sits near 10-11 dB with a ~1 dB transition.
constexpr double kDecodeSnr50Db = 10.5;
constexpr double kDecodeSnrWidthDb = 0.9;
/// Receiver gain while surveying.
constexpr double kGainDb = 40.0;

/// Reception stats accumulated per aircraft during the window.
struct Reception {
  std::uint32_t messages = 0;
  double best_rssi_dbfs = -200.0;
  std::optional<geo::Geodetic> decoded_position;
};

/// Join ground truth with receptions into the survey result. The
/// ground-truth query is radius-limited, so a legitimately-decoded aircraft
/// just outside the radius is not evidence of fabrication: `extended_truth`
/// (a wider query) and decoded positions both clear such receptions.
SurveyResult join(const std::vector<airtraffic::FlightRecord>& truth,
                  const std::vector<airtraffic::FlightRecord>& extended_truth,
                  const std::map<std::uint32_t, Reception>& received,
                  const geo::Geodetic& sensor, double truth_radius_m) {
  SurveyResult out;
  std::set<std::uint32_t> truth_icaos;
  std::set<std::uint32_t> extended_icaos;
  for (const auto& rec : extended_truth) extended_icaos.insert(rec.icao);
  for (const auto& rec : truth) {
    truth_icaos.insert(rec.icao);
    AirplaneObservation obs;
    obs.icao = rec.icao;
    obs.callsign = rec.callsign;
    obs.position = rec.position;
    obs.range_km = geo::haversine_m(sensor, rec.position) / 1000.0;
    obs.azimuth_deg = geo::bearing_deg(sensor, rec.position);
    if (const auto it = received.find(rec.icao); it != received.end()) {
      obs.received = it->second.messages > 0;
      obs.messages = it->second.messages;
      obs.best_rssi_dbfs = it->second.best_rssi_dbfs;
      obs.decoded_position = it->second.decoded_position;
    }
    out.observations.push_back(std::move(obs));
  }
  for (const auto& [icao, rx] : received) {
    if (truth_icaos.contains(icao)) continue;
    if (extended_icaos.contains(icao)) continue;  // real, just outside radius
    if (rx.decoded_position &&
        geo::haversine_m(sensor, *rx.decoded_position) > truth_radius_m)
      continue;  // decoded position itself shows it was out of the query
    ++out.unmatched_receptions;
  }
  return out;
}

}  // namespace

SurveyResult AdsbSurvey::run(sdr::Device& device,
                             const airtraffic::SkySimulator& sky,
                             const airtraffic::GroundTruthService& gt) const {
  return config_.fidelity == Fidelity::kWaveform ? run_waveform(device, sky, gt)
                                                 : run_linkbudget(device, sky, gt);
}

SurveyResult AdsbSurvey::run_waveform(sdr::Device& device,
                                      const airtraffic::SkySimulator& sky,
                                      const airtraffic::GroundTruthService& gt) const {
  (void)sky;  // the device's AdsbSignalSource already references the sky
  device.set_gain_mode(sdr::GainMode::kManual);
  device.set_gain_db(kGainDb);
  device.tune(adsb::kAdsbFreqHz, adsb::kPpmSampleRateHz);

  const double t_start = device.stream_time_s();
  adsb::DecoderConfig decoder_config;
  decoder_config.demod = config_.demod_override;
  adsb::Decoder decoder(decoder_config);

  const auto total_samples = static_cast<std::size_t>(
      config_.duration_s * adsb::kPpmSampleRateHz);
  dsp::Buffer buf(std::min(kChunkSamples, total_samples));
  std::size_t processed = 0;
  while (processed < total_samples) {
    const std::size_t n = std::min(buf.size(), total_samples - processed);
    const double chunk_time = device.stream_time_s();
    const std::span<dsp::Sample> chunk = std::span(buf).first(n);
    device.capture_into(chunk);
    decoder.feed(chunk, chunk_time);
    processed += n;
  }

  const double query_t = t_start + config_.ground_truth_query_at_s;
  const geo::Geodetic sensor_pos = device.position();
  const auto truth = gt.query(sensor_pos, kGroundTruthRadiusM, query_t);
  const auto extended =
      gt.query(sensor_pos, kGroundTruthRadiusM * 1.5, query_t);

  std::map<std::uint32_t, Reception> received;
  for (const auto& ac : decoder.aircraft()) {
    if (!ac.credible()) continue;  // lone bit-repaired frames may be noise
    Reception r;
    r.messages = ac.message_count;
    r.best_rssi_dbfs = ac.max_rssi_dbfs;
    r.decoded_position = ac.position;
    received[ac.icao] = r;
  }

  SurveyResult out = join(truth, extended, received, sensor_pos,
                          kGroundTruthRadiusM);
  out.total_frames_decoded = decoder.total_frames();
  out.frames_crc_repaired = decoder.crc_repaired_frames();
  out.duration_s = config_.duration_s;
  return out;
}

SurveyResult AdsbSurvey::run_linkbudget(sdr::Device& device,
                                        const airtraffic::SkySimulator& sky,
                                        const airtraffic::GroundTruthService& gt) const {
  sdr::SimControl* sim = device.sim_control();
  if (sim == nullptr)
    throw std::runtime_error(
        "link-budget survey fidelity requires a simulation-backed device; "
        "use Fidelity::kWaveform on hardware");
  const sdr::RxEnvironment& rx = sim->rx_environment();
  const double t_start = device.stream_time_s();
  const double noise_dbm = prop::noise_floor_dbm(adsb::kPpmSampleRateHz,
                                                 device.info().noise_figure_db);

  prop::LinkParams params;
  params.model = prop::PathModel::kFreeSpace;

  std::map<std::uint32_t, Reception> received;
  for (const auto& ev : sky.events_between(t_start, t_start + config_.duration_s)) {
    prop::LinkInput link;
    link.transmitter = ev.tx_position;
    link.receiver = rx.position;
    link.freq_hz = adsb::kAdsbFreqHz;
    link.tx_power_dbm = ev.tx_power_dbm;
    link.emitter_id = ev.icao;
    std::uint64_t h = static_cast<std::uint64_t>(ev.icao) ^
                      (static_cast<std::uint64_t>(ev.time_s * 1e6) << 20);
    link.message_index = util::splitmix64(h);
    if (rx.antenna != nullptr) {
      const double az = geo::bearing_deg(rx.position, ev.tx_position);
      link.rx_antenna_gain_dbi = rx.antenna->gain_dbi(adsb::kAdsbFreqHz, az);
    }
    const prop::LinkResult budget =
        prop::evaluate_link(link, params, rx.obstructions, rx.fading);

    const double snr_db = budget.rx_power_dbm - noise_dbm;
    const double p_decode =
        1.0 / (1.0 + std::exp(-(snr_db - kDecodeSnr50Db) /
                              kDecodeSnrWidthDb));
    // Deterministic Bernoulli keyed by the event.
    util::Rng coin(link.message_index ^ 0x5bd1e995u);
    if (!coin.chance(p_decode)) continue;

    Reception& r = received[ev.icao];
    ++r.messages;
    const double rssi = budget.rx_power_dbm + kGainDb -
                        device.info().full_scale_input_dbm;
    r.best_rssi_dbfs = std::max(r.best_rssi_dbfs, rssi);
    r.decoded_position = ev.tx_position;
  }

  const double query_t = t_start + config_.ground_truth_query_at_s;
  const auto truth = gt.query(rx.position, kGroundTruthRadiusM, query_t);
  const auto extended =
      gt.query(rx.position, kGroundTruthRadiusM * 1.5, query_t);
  SurveyResult out = join(truth, extended, received, rx.position,
                          kGroundTruthRadiusM);
  for (const auto& [icao, r] : received) out.total_frames_decoded += r.messages;
  out.duration_s = config_.duration_s;
  sim->advance_time(config_.duration_s);
  return out;
}

}  // namespace speccal::calib
