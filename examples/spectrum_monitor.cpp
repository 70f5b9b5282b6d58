// Example: the service a calibrated node actually sells (§2) — spectrum
// monitoring — and what calibration adds to it.
//
// Four nodes sweep the UHF TV band and report channel powers to a cloud
// radio-environment map: three honest nodes with modest claims, plus one
// operator who inflates every claim from a deep-indoor install (the paid
// crowd-sourcing failure mode the paper opens with). The map weights every
// observation by calibration trust, so the liar's siting-blinded readings
// are rejected; an ungated map averages them in and under-reports the true
// field strength.
#include <iostream>

#include "dsp/plan.hpp"
#include "monitor/occupancy.hpp"
#include "monitor/rem.hpp"
#include "monitor/scanner.hpp"
#include "obs/metrics.hpp"
#include "scenario/testbed.hpp"
#include "tv/channels.hpp"
#include "util/table.hpp"

using namespace speccal;

int main() {
  constexpr std::uint64_t kSeed = 17;
  const auto world = scenario::make_world(kSeed);

  // Channels to watch: the testbed's six ATSC stations.
  std::vector<monitor::Channel> channels;
  for (int ch : scenario::figure4_channels()) {
    const double lo = tv::channel_lower_edge_hz(ch).value();
    channels.push_back({"ch" + std::to_string(ch), lo, lo + tv::kChannelWidthHz});
  }

  monitor::ScanConfig scan_cfg;
  scan_cfg.gain_db = 15.0;  // strong locals would clip at higher gain
  const monitor::SpectrumScanner scanner(scan_cfg);
  // Warm the shared plan cache once; every node's Welch PSD (and any other
  // transform of the same size, fleet-wide) reuses this table.
  (void)dsp::PlanCache::shared().plan_f32(monitor::kScanWelch.segment_size);
  monitor::RemConfig gated_config;
  gated_config.min_trust = 0.5;              // calibration gate
  monitor::RadioEnvironmentMap gated_map(gated_config);
  monitor::RemConfig open_config;
  open_config.min_trust = 0.0;               // accepts anything
  monitor::RadioEnvironmentMap open_map(open_config);

  calib::PipelineConfig cal_cfg;
  cal_cfg.survey.fidelity = calib::Fidelity::kLinkBudget;
  calib::CalibrationPipeline pipeline(world, cal_cfg);

  struct Member {
    const char* id;
    scenario::Site site;
    bool inflated_claims;
  };
  const Member fleet[] = {
      {"roof-1", scenario::Site::kRooftop, false},
      {"window-1", scenario::Site::kWindow, false},
      {"indoor-1", scenario::Site::kIndoor, false},
      {"indoor-liar", scenario::Site::kIndoor, true},
  };

  std::cout << "Sweeping 470-620 MHz at four nodes and feeding the REM...\n\n";
  util::Table table({"node", "trust", "ch22 power dBFS", "occupied channels"});
  for (const auto& member : fleet) {
    const auto setup = scenario::make_site(member.site, kSeed);
    auto device = scenario::make_node(setup, world, kSeed);

    // 1. Calibrate the node first.
    calib::NodeClaims claims;
    claims.node_id = member.id;
    claims.claims_outdoor = member.inflated_claims;
    claims.claims_omnidirectional = member.inflated_claims;
    const auto report = pipeline.calibrate(*device, claims);

    // 2. Sweep the band and detect occupancy.
    const auto sweep = scanner.sweep(*device, 470e6, 620e6);
    const auto occupancy = monitor::detect_occupancy(sweep, channels);
    std::string occupied;
    for (const auto& obs : occupancy)
      if (obs.occupied) occupied += obs.channel.label + " ";

    // 3. Report each channel to the map with calibration attached.
    bool low_usable = false;
    for (const auto& band : report.frequency_response.bands)
      if (band.band_class == cellular::SpectrumClass::kLowBand)
        low_usable = band.usable;
    for (const auto& obs : occupancy) {
      if (obs.channel.label != "ch22") continue;  // the maps track channel 22
      monitor::NodeObservation node_obs;
      node_obs.node_id = member.id;
      node_obs.position = setup.position;
      node_obs.channel_low_hz = obs.channel.low_hz;
      node_obs.channel_high_hz = obs.channel.high_hz;
      // dBFS -> dBm at the port.
      node_obs.power_dbm = obs.power_dbfs - scanner.config().gain_db +
                           device->info().full_scale_input_dbm;
      node_obs.trust_weight = report.trust.score / 100.0;
      node_obs.band_usable = low_usable;
      (void)low_usable;
      gated_map.ingest(node_obs);
      monitor::NodeObservation ungated = node_obs;
      ungated.band_usable = true;
      ungated.trust_weight = 1.0;
      open_map.ingest(ungated);
    }

    double ch22 = -200.0;
    for (const auto& obs : occupancy)
      if (obs.channel.label == "ch22") ch22 = obs.power_dbfs;
    table.add_row({member.id, util::format_fixed(report.trust.score, 0),
                   util::format_fixed(ch22, 1), occupied.empty() ? "-" : occupied});
  }
  table.print(std::cout);

  const geo::Geodetic query = scenario::testbed_origin();
  std::cout << "\nREM estimate for channel 22 at the testbed origin:\n";
  std::cout << "  calibration-gated map: ";
  if (const auto est = gated_map.estimate(query))
    std::cout << util::format_fixed(est->power_dbm, 1) << " dBm from "
              << est->contributors << " nodes\n";
  else
    std::cout << "(no admissible observations)\n";
  std::cout << "  ungated map          : ";
  if (const auto est = open_map.estimate(query))
    std::cout << util::format_fixed(est->power_dbm, 1) << " dBm from "
              << est->contributors << " nodes\n";
  else
    std::cout << "(no observations)\n";
  std::cout << "  observations rejected by gating: " << gated_map.rejected() << "\n";
  std::cout << "\nThe gated map leans on well-sited, trusted nodes; the ungated\n"
               "map averages in siting-attenuated readings and under-reports\n"
               "the true field strength.\n";

  auto& registry = obs::Registry::global();
  std::cout << "\nFFT plan cache: "
            << registry.gauge("speccal_dsp_plan_cache_entries").value()
            << " plans built once, "
            << registry.counter("speccal_dsp_plan_cache_hits_total").value()
            << " reuses across the four nodes' sweeps.\n";
  return 0;
}
