#include "cellular/scanner.hpp"

#include <cmath>

#include "prop/pathloss.hpp"
#include "util/units.hpp"

namespace speccal::cellular {

namespace {

/// Minimum SINR per resource element for PSS/SSS sync [dB]. LTE cell
/// search works slightly below 0 dB; srsUE in practice needs a few dB.
constexpr double kSyncThresholdDb = 1.0;
/// Receiver noise figure [dB] (taken from the SDR if scanning a device).
constexpr double kNoiseFigureDb = 7.0;
/// Large-scale model for the downlink (urban log-distance).
constexpr prop::LinkParams kLink{prop::PathModel::kLogDistance, 2.9, 2.0, 3.5, 5000.0};

}  // namespace

CellMeasurement CellScanner::measure(const Cell& cell, const sdr::RxEnvironment& rx,
                                     double frontend_loss_db) const noexcept {
  CellMeasurement out;
  out.cell = cell;

  prop::LinkInput link;
  link.transmitter = cell.position;
  link.receiver = rx.position;
  link.freq_hz = cell.dl_freq_hz;
  link.tx_power_dbm = cell.eirp_dbm;
  link.emitter_id = cell.cell_id;
  if (rx.antenna != nullptr) {
    const double az = geo::bearing_deg(rx.position, cell.position);
    link.rx_antenna_gain_dbi = rx.antenna->gain_dbi(cell.dl_freq_hz, az);
  }
  const prop::LinkResult budget =
      prop::evaluate_link(link, kLink, rx.obstructions, rx.fading);

  out.rssi_dbm = budget.rx_power_dbm - frontend_loss_db;
  // RSRP = wideband power / number of resource elements.
  const double re_count = 12.0 * cell.resource_blocks();
  out.rsrp_dbm = out.rssi_dbm - 10.0 * std::log10(re_count);

  const double noise_re_dbm =
      prop::noise_floor_dbm(kSubcarrierHz, kNoiseFigureDb);
  out.sinr_db = out.rsrp_dbm - noise_re_dbm;
  out.decoded = out.sinr_db >= kSyncThresholdDb &&
                out.rsrp_dbm >= config_.min_rsrp_dbm;
  return out;
}

std::vector<CellMeasurement> CellScanner::scan(const std::vector<Cell>& cells,
                                               const sdr::RxEnvironment& rx,
                                               double frontend_loss_db) const {
  std::vector<CellMeasurement> out;
  out.reserve(cells.size());
  for (const auto& cell : cells)
    out.push_back(measure(cell, rx, frontend_loss_db));
  return out;
}

}  // namespace speccal::cellular
