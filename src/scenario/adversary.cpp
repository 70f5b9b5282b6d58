#include "scenario/adversary.hpp"

#include <cmath>
#include <set>
#include <stdexcept>

#include "adsb/ppm.hpp"
#include "airtraffic/adsb_source.hpp"
#include "cellular/bands.hpp"
#include "cellular/pss.hpp"
#include "dsp/nco.hpp"
#include "geo/wgs84.hpp"
#include "prop/linkbudget.hpp"
#include "scenario/testbed.hpp"
#include "sdr/emitter.hpp"
#include "tv/channels.hpp"
#include "util/json_reader.hpp"
#include "util/units.hpp"

namespace speccal::scenario {

const char* to_string(AdversaryKind kind) noexcept {
  switch (kind) {
    case AdversaryKind::kWidebandJammer: return "wideband-jammer";
    case AdversaryKind::kSweptJammer: return "swept-jammer";
    case AdversaryKind::kSpuriousCw: return "spurious-cw";
    case AdversaryKind::kIntermodPair: return "intermod-pair";
    case AdversaryKind::kGhostAdsb: return "ghost-adsb";
    case AdversaryKind::kRoguePss: return "rogue-pss";
  }
  return "?";
}

namespace {

/// Received power through the full site model, the FixedEmitterSource
/// link convention: free-space large-scale, obstruction screens, antenna
/// azimuth gain and per-emitter fading all included.
double received_dbm(const sdr::RxEnvironment& rx, const geo::Geodetic& tx,
                    double freq_hz, double eirp_dbm, std::uint64_t emitter_id) {
  prop::LinkInput link;
  link.transmitter = tx;
  link.receiver = rx.position;
  link.freq_hz = freq_hz;
  link.tx_power_dbm = eirp_dbm;
  link.emitter_id = emitter_id;
  if (rx.antenna != nullptr)
    link.rx_antenna_gain_dbi =
        rx.antenna->gain_dbi(freq_hz, geo::bearing_deg(rx.position, tx));
  return prop::evaluate_link(link, prop::LinkParams{}, rx.obstructions, rx.fading)
      .rx_power_dbm;
}

/// Bare carrier — the "birdie" of a faulty LO, or one leg of a
/// passive-intermod product pair. Coherent by construction: its lag-1
/// autocorrelation is ~1, which is how the anomaly detector tells it from
/// a jammer of the same strength.
class CwToneSource final : public sdr::SignalSource {
 public:
  CwToneSource(std::uint64_t emitter_id, geo::Geodetic position, double freq_hz,
               double eirp_dbm) noexcept
      : emitter_id_(emitter_id), position_(position), freq_hz_(freq_hz),
        eirp_dbm_(eirp_dbm) {}

  void render(const sdr::CaptureContext& ctx,
              std::span<dsp::Sample> accum) override {
    const double offset = freq_hz_ - ctx.center_freq_hz;
    if (std::abs(offset) > 0.49 * ctx.sample_rate_hz) return;
    const double rx_dbm = received_dbm(*ctx.rx, position_, freq_hz_, eirp_dbm_,
                                       emitter_id_);
    const double mw = util::dbm_to_watts(rx_dbm) * 1e3;
    if (mw < 1e-18) return;
    dsp::Nco nco(offset, ctx.sample_rate_hz);
    // Deterministic start phase tied to capture time (emitter pilot
    // convention): renders stay continuous across adjacent buffers.
    nco.set_phase(2.0 * util::kPi * std::fmod(offset * ctx.start_time_s, 1.0));
    nco.add_tone(accum, static_cast<float>(std::sqrt(mw)));
  }

 private:
  std::uint64_t emitter_id_;
  geo::Geodetic position_;
  double freq_hz_;
  double eirp_dbm_;
};

/// Stepping sweeper: dwells `dwell_s` on each target centre in turn,
/// chirping across `span_hz` within the dwell. A 20 ms channel capture
/// sees a deterministic `dwell / (dwell * centres)` duty of constant-
/// envelope chirp — several channels raised, none coherent (lag-1 rho
/// stays low), the classic swept-jammer signature.
class SweptJammerSource final : public sdr::SignalSource {
 public:
  SweptJammerSource(std::uint64_t emitter_id, geo::Geodetic position,
                    std::vector<double> centers_hz, double span_hz,
                    double dwell_s, double eirp_dbm) noexcept
      : emitter_id_(emitter_id), position_(position),
        centers_hz_(std::move(centers_hz)), span_hz_(span_hz),
        dwell_s_(dwell_s), eirp_dbm_(eirp_dbm) {}

  void render(const sdr::CaptureContext& ctx,
              std::span<dsp::Sample> accum) override {
    if (centers_hz_.empty() || ctx.sample_rate_hz <= 0.0) return;
    // Out of the sweep's reach entirely? Nothing to add.
    double lo = centers_hz_.front(), hi = centers_hz_.front();
    for (double c : centers_hz_) {
      lo = std::min(lo, c - span_hz_ / 2.0);
      hi = std::max(hi, c + span_hz_ / 2.0);
    }
    const double half = ctx.sample_rate_hz / 2.0;
    if (hi < ctx.center_freq_hz - half || lo > ctx.center_freq_hz + half) return;

    const double mid = 0.5 * (lo + hi);
    const double rx_dbm =
        received_dbm(*ctx.rx, position_, mid, eirp_dbm_, emitter_id_);
    const double mw = util::dbm_to_watts(rx_dbm) * 1e3;
    if (mw < 1e-18) return;
    const float amp = static_cast<float>(std::sqrt(mw));

    const double cycle_s = dwell_s_ * static_cast<double>(centers_hz_.size());
    const double dt = 1.0 / ctx.sample_rate_hz;
    double phase = 0.0;  // absolute chirp phase is immaterial; power and
                         // rho only see the in-dwell frequency ramp
    for (std::size_t i = 0; i < accum.size(); ++i) {
      const double t = ctx.start_time_s + static_cast<double>(i) * dt;
      const double tc = std::fmod(t, cycle_s);
      const auto k = std::min(centers_hz_.size() - 1,
                              static_cast<std::size_t>(tc / dwell_s_));
      const double u = (tc - static_cast<double>(k) * dwell_s_) / dwell_s_;
      const double f_inst = centers_hz_[k] - span_hz_ / 2.0 + span_hz_ * u;
      const double offset = f_inst - ctx.center_freq_hz;
      if (std::abs(offset) > 0.49 * ctx.sample_rate_hz) continue;
      phase += 2.0 * util::kPi * offset * dt;
      if (phase > 64.0 * util::kPi) phase = std::fmod(phase, 2.0 * util::kPi);
      if (phase < -64.0 * util::kPi) phase = std::fmod(phase, 2.0 * util::kPi);
      accum[i] += dsp::Sample(static_cast<float>(std::cos(phase)),
                              static_cast<float>(std::sin(phase))) * amp;
    }
  }

 private:
  std::uint64_t emitter_id_;
  geo::Geodetic position_;
  std::vector<double> centers_hz_;
  double span_hz_;
  double dwell_s_;
  double eirp_dbm_;
};

/// UHF channels the jammers target (channel 13 stays clean: sweeping into
/// VHF would triple the sweep span for one more channel).
std::vector<double> uhf_target_centers() {
  std::vector<double> centers;
  for (int ch : {14, 22, 26, 33, 36})
    centers.push_back(tv::channel_center_hz(ch).value());
  return centers;
}

/// A constellation of aircraft that do not exist: CRC-valid DF17 frames
/// from spoofed positions 2-10 km out, through the normal 1090ES
/// modulator. Close and strong so the 1090 band power rises well above
/// the real sky's contribution.
std::shared_ptr<sdr::SignalSource> ghost_adsb_source(util::Rng rng,
                                                     double tx_power_dbm) {
  geo::Geodetic center = testbed_origin();
  center.alt_m = 0.0;
  constexpr std::size_t kGhosts = 64;
  std::vector<airtraffic::AircraftSpec> fleet;
  fleet.reserve(kGhosts);
  for (std::size_t i = 0; i < kGhosts; ++i) {
    airtraffic::AircraftSpec spec;
    spec.icao = static_cast<std::uint32_t>(0xADB000 + i);
    spec.callsign = "GHOST" + std::to_string(i / 10) + std::to_string(i % 10);
    spec.start = geo::destination(center, rng.uniform(0.0, 360.0),
                                  rng.uniform(2000.0, 10000.0));
    spec.start.alt_m = rng.uniform(2500.0, 11000.0);
    spec.track_deg = rng.uniform(0.0, 360.0);
    spec.ground_speed_kt = rng.uniform(260.0, 480.0);
    spec.tx_power_dbm = tx_power_dbm;
    spec.cfo_hz = rng.uniform(-1500.0, 1500.0);
    spec.position_phase_s = rng.uniform(0.0, 0.5);
    spec.velocity_phase_s = rng.uniform(0.0, 0.5);
    spec.ident_phase_s = rng.uniform(0.0, 5.0);
    spec.all_call_phase_s = rng.uniform(0.0, 1.0);
    fleet.push_back(std::move(spec));
  }
  return std::make_shared<airtraffic::AdsbSignalSource>(
      std::make_shared<airtraffic::SkySimulator>(center, std::move(fleet)));
}

/// An LTE cell that is not in the tower database, broadcasting a
/// standards-correct PSS on tower 3's downlink carrier. The PSS searcher
/// syncs to it like any macro; only the fleet's consensus knows the band
/// should not be this hot here.
std::shared_ptr<sdr::SignalSource> rogue_pss_source(geo::Geodetic position,
                                                    double eirp_dbm,
                                                    util::Rng rng) {
  constexpr double kRogueFreqHz = 2145e6;
  const auto earfcn = cellular::dl_freq_to_earfcn(4, kRogueFreqHz);
  if (!earfcn) throw std::logic_error("rogue PSS frequency outside band 4");
  cellular::Cell cell = cellular::make_cell(9006, "RogueCell", 4, *earfcn,
                                            position, eirp_dbm, 10e6, 499);
  return std::make_shared<cellular::CellSignalSource>(cell, prop::LinkParams{},
                                                      rng);
}

struct KindDefaults {
  double eirp_dbm;
  double range_m;
};

/// Built-in tunings: strong enough that the weakest testbed site
/// (indoor, ~26-44 dB of omni loss) still clears the detector's 6 dB
/// residual threshold, weak enough that the rooftop's ADC is not pinned
/// at the TV meter's fixed 20 dB gain.
KindDefaults defaults_for(AdversaryKind kind) noexcept {
  switch (kind) {
    case AdversaryKind::kWidebandJammer: return {34.0, 150.0};
    case AdversaryKind::kSweptJammer: return {40.0, 150.0};
    case AdversaryKind::kSpuriousCw: return {30.0, 150.0};
    case AdversaryKind::kIntermodPair: return {33.0, 150.0};
    case AdversaryKind::kGhostAdsb: return {57.0, 0.0};  // per-aircraft power
    case AdversaryKind::kRoguePss: return {36.0, 120.0};
  }
  return {30.0, 150.0};
}

}  // namespace

void AdversaryProfile::validate() const {
  std::set<std::size_t> indices;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    const auto where = [n](std::size_t a) {
      return "AdversaryProfile.nodes[" + std::to_string(n) + "].adversaries[" +
             std::to_string(a) + "]";
    };
    if (!indices.insert(nodes[n].index).second)
      throw std::invalid_argument("AdversaryProfile.nodes[" +
                                  std::to_string(n) +
                                  "].index repeats an earlier node's index");
    if (nodes[n].adversaries.empty())
      throw std::invalid_argument("AdversaryProfile.nodes[" +
                                  std::to_string(n) +
                                  "].adversaries must not be empty");
    for (std::size_t a = 0; a < nodes[n].adversaries.size(); ++a) {
      const AdversarySpec& spec = nodes[n].adversaries[a];
      if (!std::isnan(spec.eirp_dbm) &&
          (spec.eirp_dbm < -30.0 || spec.eirp_dbm > 70.0))
        throw std::invalid_argument(where(a) +
                                    ".eirp_dbm must be in [-30, 70]");
      if (spec.range_m < 0.0 || spec.range_m > 100e3)
        throw std::invalid_argument(where(a) +
                                    ".range_m must be in [0, 100000]");
      if (spec.azimuth_deg < 0.0 || spec.azimuth_deg >= 360.0)
        throw std::invalid_argument(where(a) +
                                    ".azimuth_deg must be in [0, 360)");
    }
  }
}

const std::vector<AdversarySpec>* AdversaryProfile::adversaries_for(
    std::size_t node_index) const noexcept {
  for (const NodeAdversaries& n : nodes)
    if (n.index == node_index && !n.adversaries.empty()) return &n.adversaries;
  return nullptr;
}

std::vector<std::shared_ptr<sdr::SignalSource>> AdversaryProfile::sources_for(
    std::size_t node_index) const {
  std::vector<std::shared_ptr<sdr::SignalSource>> out;
  const std::vector<AdversarySpec>* specs = adversaries_for(node_index);
  if (specs == nullptr) return out;

  // Attack waveform state is a stable function of (profile seed, node
  // index) — the fault-injector seeding convention — so rebuilding a
  // node's device on any worker thread reproduces the identical attack.
  std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ull * (node_index + 1));
  const util::Rng node_rng(util::splitmix64(state));
  std::uint64_t stream = 1;

  const geo::Geodetic origin = testbed_origin();
  for (const AdversarySpec& spec : *specs) {
    const KindDefaults defaults = defaults_for(spec.kind);
    const double eirp =
        std::isnan(spec.eirp_dbm) ? defaults.eirp_dbm : spec.eirp_dbm;
    const double range = spec.range_m > 0.0 ? spec.range_m : defaults.range_m;
    geo::Geodetic pos = geo::destination(origin, spec.azimuth_deg,
                                         std::max(1.0, range));
    pos.alt_m = 12.0;  // street-level mast, below every site
    const std::uint64_t emitter_id =
        9100 + 10 * static_cast<std::uint64_t>(spec.kind) + stream;

    switch (spec.kind) {
      case AdversaryKind::kWidebandJammer: {
        // 148 MHz of shaped noise centred at 539 MHz: covers the five UHF
        // Figure-4 channels (473..605 MHz) in one band.
        sdr::EmitterConfig cfg;
        cfg.emitter_id = emitter_id;
        cfg.position = pos;
        cfg.carrier_hz = 539e6;
        cfg.bandwidth_hz = 148e6;
        cfg.eirp_dbm = eirp;
        cfg.pilot_offset_hz.reset();
        out.push_back(std::make_shared<sdr::FixedEmitterSource>(
            cfg, node_rng.fork(stream)));
        break;
      }
      case AdversaryKind::kSweptJammer:
        out.push_back(std::make_shared<SweptJammerSource>(
            emitter_id, pos, uhf_target_centers(), 6e6, 1e-3, eirp));
        break;
      case AdversaryKind::kSpuriousCw:
        // Parked 250 kHz above the channel-33 centre.
        out.push_back(std::make_shared<CwToneSource>(
            emitter_id, pos, tv::channel_center_hz(33).value() + 250e3, eirp));
        break;
      case AdversaryKind::kIntermodPair:
        // Third-order products of parents at 517.31 / 561.31 MHz:
        // 2*f1 - f2 = 473.31 MHz (channel 14), 2*f2 - f1 = 605.31 MHz
        // (channel 36). The parents themselves fall outside every
        // measured channel, as a real PIM fault's would.
        out.push_back(
            std::make_shared<CwToneSource>(emitter_id, pos, 473.31e6, eirp));
        out.push_back(std::make_shared<CwToneSource>(emitter_id + 1, pos,
                                                     605.31e6, eirp));
        break;
      case AdversaryKind::kGhostAdsb:
        out.push_back(ghost_adsb_source(node_rng.fork(stream), eirp));
        break;
      case AdversaryKind::kRoguePss:
        pos.alt_m = 18.0;
        out.push_back(rogue_pss_source(pos, eirp, node_rng.fork(stream)));
        break;
    }
    ++stream;
  }
  return out;
}

namespace {

using util::JsonReader;

AdversarySpec adversary_from(const JsonReader::Value& doc,
                             const std::string& path) {
  AdversarySpec spec;
  for (const auto& [key, v] : doc.object(path)) {
    const std::string at = path + "." + key;
    if (key == "kind") spec.kind = v.enumerator(AdversaryKind::kRoguePss, at);
    else if (key == "eirp_dbm") spec.eirp_dbm = v.number(at);
    else if (key == "range_m") spec.range_m = v.number(at);
    else if (key == "azimuth_deg") spec.azimuth_deg = v.number(at);
    else throw std::invalid_argument("unknown key '" + at + "'");
  }
  return spec;
}

AdversaryProfile::NodeAdversaries node_from(const JsonReader::Value& doc,
                                            const std::string& path) {
  AdversaryProfile::NodeAdversaries node;
  for (const auto& [key, v] : doc.object(path)) {
    const std::string at = path + "." + key;
    if (key == "index") {
      node.index = v.integer<std::size_t>(at);
    } else if (key == "adversaries") {
      const JsonReader::Array& adversaries = v.array(at);
      for (std::size_t a = 0; a < adversaries.size(); ++a)
        node.adversaries.push_back(
            adversary_from(adversaries[a], at + "[" + std::to_string(a) + "]"));
    } else {
      throw std::invalid_argument("unknown key '" + at + "'");
    }
  }
  return node;
}

/// Schema mapping of an inline JSON profile; every error is an
/// std::invalid_argument prefixed "adversary profile: ".
AdversaryProfile profile_from_json(std::string_view text) try {
  AdversaryProfile profile;
  profile.name = "custom";
  const JsonReader::Value doc = JsonReader::parse(text);
  for (const auto& [key, v] : doc.object("profile")) {
    if (key == "name") profile.name = v.str(key);
    else if (key == "seed") profile.seed = v.integer<std::uint64_t>(key);
    else if (key == "nodes") {
      const JsonReader::Array& nodes = v.array(key);
      for (std::size_t n = 0; n < nodes.size(); ++n)
        profile.nodes.push_back(
            node_from(nodes[n], "nodes[" + std::to_string(n) + "]"));
    } else {
      throw std::invalid_argument("unknown key '" + key + "'");
    }
  }
  return profile;
} catch (const std::invalid_argument& e) {
  throw std::invalid_argument(std::string("adversary profile: ") + e.what());
}

AdversaryProfile single_victim(const char* name, std::uint64_t seed,
                               AdversaryKind kind, std::size_t index) {
  AdversaryProfile profile;
  profile.name = name;
  profile.seed = seed;
  profile.nodes.push_back({index, {AdversarySpec{kind}}});
  return profile;
}

/// "mixed": every adversary kind at once, six victims. All indices < 20
/// so the profile scripts correctly on any fleet of 20+ nodes (the CI
/// smoke runs it on 200).
AdversaryProfile mixed_profile() {
  AdversaryProfile profile;
  profile.name = "mixed";
  profile.seed = 4242;
  profile.nodes.push_back({2, {AdversarySpec{AdversaryKind::kWidebandJammer}}});
  profile.nodes.push_back({5, {AdversarySpec{AdversaryKind::kSweptJammer}}});
  profile.nodes.push_back({7, {AdversarySpec{AdversaryKind::kSpuriousCw}}});
  profile.nodes.push_back({11, {AdversarySpec{AdversaryKind::kIntermodPair}}});
  profile.nodes.push_back({13, {AdversarySpec{AdversaryKind::kGhostAdsb}}});
  profile.nodes.push_back({17, {AdversarySpec{AdversaryKind::kRoguePss}}});
  return profile;
}

}  // namespace

AdversaryProfile make_adversary_profile(std::string_view name_or_json) {
  const auto validated = [](AdversaryProfile profile) {
    profile.validate();
    return profile;
  };
  const auto non_ws = name_or_json.find_first_not_of(" \t\r\n");
  if (non_ws != std::string_view::npos && name_or_json[non_ws] == '{')
    return validated(profile_from_json(name_or_json));

  if (name_or_json == "none") return AdversaryProfile{};
  if (name_or_json == "jammer")
    return validated(single_victim("jammer", 101, AdversaryKind::kWidebandJammer, 3));
  if (name_or_json == "swept")
    return validated(single_victim("swept", 102, AdversaryKind::kSweptJammer, 3));
  if (name_or_json == "cw")
    return validated(single_victim("cw", 103, AdversaryKind::kSpuriousCw, 3));
  if (name_or_json == "intermod")
    return validated(single_victim("intermod", 104, AdversaryKind::kIntermodPair, 3));
  if (name_or_json == "ghost-adsb")
    return validated(single_victim("ghost-adsb", 105, AdversaryKind::kGhostAdsb, 3));
  if (name_or_json == "rogue-pss")
    return validated(single_victim("rogue-pss", 106, AdversaryKind::kRoguePss, 3));
  if (name_or_json == "mixed") return validated(mixed_profile());
  throw std::invalid_argument(
      "unknown adversary profile '" + std::string(name_or_json) +
      "' (built-ins: none, jammer, swept, cw, intermod, ghost-adsb, "
      "rogue-pss, mixed; or an inline JSON document)");
}

std::vector<calib::WatchBand> standard_watchlist() {
  std::vector<calib::WatchBand> bands;
  // 1090ES at the decoder's rate, where AdsbSignalSource renders. The
  // longer capture averages the bursty squitter duty cycle down to a
  // stable band power.
  bands.push_back({"adsb-1090", 1090e6, adsb::kPpmSampleRateHz, 0.1});
  // The five testbed downlink centres at the LTE search rate. Clean fleet
  // devices carry no cell waveform sources, so these captures are pure
  // noise floor — any consistent rise is a rogue transmitter.
  for (double mhz : {731.0, 1970.0, 2145.0, 2660.0, 2680.0})
    bands.push_back({"cell-" + std::to_string(static_cast<int>(mhz)), mhz * 1e6,
                     cellular::kSearchRateHz, 0.02});
  return bands;
}

}  // namespace speccal::scenario
