// RF-level adversary scenario pack.
//
// Each adversary is a real SignalSource attached to a victim node's
// simulated front end, so the attack enters through the same render path
// as every legitimate signal — link budget, obstructions, antenna pattern,
// fading and ADC quantization all apply. Nothing downstream of the SDR is
// told an attack is present; the anomaly detector (calib/anomaly.hpp) has
// to find it in the measurements, exactly as a deployed fleet would.
//
// The pack covers the interference taxonomy a crowd-sourced spectrum
// network worries about (DESIGN.md §16):
//   * kWidebandJammer — 148 MHz of shaped noise burying five of the six
//     Figure-4 ATSC channels at once.
//   * kSweptJammer    — a stepping chirp that dwells on each UHF channel
//     in turn (1 ms dwell, 5 ms cycle), the classic sweeper signature:
//     several channels raised, none coherent.
//   * kSpuriousCw     — a bare carrier parked inside channel 33, the
//     "birdie" of a faulty LO or an unshielded clock harmonic.
//   * kIntermodPair   — the two third-order products 2f1-f2 / 2f2-f1 of a
//     passive-intermod source, landing in channels 14 and 36 (parents at
//     517.31 / 561.31 MHz, outside every measured channel).
//   * kGhostAdsb      — a constellation of CRC-valid DF17 aircraft that do
//     not exist, transmitted through the normal 1090ES modulator at
//     spoofed positions (an SDR spoofer on a rooftop).
//   * kRoguePss       — an LTE cell that is not in the tower database,
//     broadcasting a standards-correct PSS on a carrier downlink.
//
// AdversaryProfile scripts which fleet node hears which adversaries, from
// a built-in name or an inline JSON document (the fault-profile
// convention, sdr/fault.hpp), and is fully seeded: the same profile + the
// same fleet produce bit-identical attacks. Profiles compose with fault
// profiles — a node can be both flaky and jammed.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "calib/pipeline.hpp"
#include "sdr/sim.hpp"

namespace speccal::scenario {

enum class AdversaryKind : std::uint8_t {
  kWidebandJammer,
  kSweptJammer,
  kSpuriousCw,
  kIntermodPair,
  kGhostAdsb,
  kRoguePss,
};

[[nodiscard]] const char* to_string(AdversaryKind kind) noexcept;

/// One scripted attack on one node. Geometry and power default per kind
/// (eirp_dbm = NaN, range_m = 0 select the built-in tuning, which is
/// sized to clear the detector's residual threshold through every testbed
/// site's obstruction map without pinning the ADC).
struct AdversarySpec {
  AdversaryKind kind = AdversaryKind::kSpuriousCw;
  /// Transmit EIRP [dBm]. For kGhostAdsb this is the per-aircraft
  /// transponder power. NaN = kind default.
  double eirp_dbm = std::numeric_limits<double>::quiet_NaN();
  /// Emitter distance from the testbed origin [m]; 0 = kind default.
  /// (kGhostAdsb ignores it: the ghost fleet is placed 2-10 km out.)
  double range_m = 0.0;
  /// Bearing from the testbed origin. The default sits in the rooftop's
  /// open sector and the window's field of view.
  double azimuth_deg = 270.0;
};

/// Per-fleet adversary script. Node indices refer to positions in the
/// fleet job list, as in sdr::FaultProfile.
struct AdversaryProfile {
  std::string name = "none";
  std::uint64_t seed = 1;

  struct NodeAdversaries {
    std::size_t index = 0;
    std::vector<AdversarySpec> adversaries;
  };
  std::vector<NodeAdversaries> nodes;

  [[nodiscard]] bool empty() const noexcept { return nodes.empty(); }

  /// Throws std::invalid_argument naming the field (the shared
  /// config-validation convention, DESIGN.md §13). make_adversary_profile()
  /// calls this on every profile it returns.
  void validate() const;

  [[nodiscard]] const std::vector<AdversarySpec>* adversaries_for(
      std::size_t node_index) const noexcept;

  /// Fresh RF sources realizing this node's scripted attacks (empty vector
  /// when the node is not scripted). Waveform state is derived from the
  /// *profile* seed — deterministic per (profile, node index), independent
  /// of the node's own seed and of which worker thread builds the device.
  /// Feed the result to scenario::make_owned_node's extra_sources.
  [[nodiscard]] std::vector<std::shared_ptr<sdr::SignalSource>> sources_for(
      std::size_t node_index) const;
};

/// Resolve `--anomaly-profile` input: a built-in name or, when the string
/// starts with '{', an inline JSON document:
///   {"name":"custom","seed":7,"nodes":[{"index":3,"adversaries":[
///     {"kind":"spurious-cw","eirp_dbm":30,"range_m":150,"azimuth_deg":270}]}]}
/// Built-ins: "none", "jammer", "swept", "cw", "intermod", "ghost-adsb",
/// "rogue-pss" (one victim each) and "mixed" (six victims, all kinds, node
/// indices < 20 so any fleet of 20+ works). Throws std::invalid_argument
/// on an unknown name or a malformed document, as make_fault_profile does.
[[nodiscard]] AdversaryProfile make_adversary_profile(
    std::string_view name_or_json);

/// The watchlist the anomaly scan stage should capture alongside the TV
/// sweep: 1090ES (at the decoder's 2 Msps, where the ADS-B source renders)
/// plus the five testbed downlink centres at the LTE search rate. Labels
/// follow the "adsb-*" / "cell-*" convention the anomaly detector's
/// band-typing rules key on.
[[nodiscard]] std::vector<calib::WatchBand> standard_watchlist();

}  // namespace speccal::scenario
