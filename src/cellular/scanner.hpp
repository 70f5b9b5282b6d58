// srsUE-style cell scanner.
//
// Reproduces what the paper uses srsUE for: scan a list of channels, try to
// synchronize to each cell, and report RSRP. Synchronization succeeds only
// when the cell's reference signals clear the receiver's sensitivity (a
// missing bar in the paper's Figure 3 is a failed sync, not a zero reading).
//
// RSRP is power per resource element: total received channel power spread
// over 12 * N_RB subcarriers. Sync needs the PSS/SSS SNR above a threshold;
// we model this as RSRP relative to the per-RE noise floor.
#pragma once

#include <optional>
#include <vector>

#include "cellular/tower.hpp"
#include "prop/linkbudget.hpp"
#include "sdr/rx_environment.hpp"

namespace speccal::cellular {

struct ScanConfig {
  /// Practical cell-search sensitivity of srsUE on an SDR front end [dBm
  /// RSRP]: short dwell, CFO search and quantization lose ~25 dB against a
  /// phone baseband, which is why the paper's missing bars appear at RSRP
  /// levels a handset would still decode.
  double min_rsrp_dbm = -95.0;
};

struct CellMeasurement {
  Cell cell;
  double rsrp_dbm = -200.0;      // reference signal received power
  double rssi_dbm = -200.0;      // wideband received power
  double sinr_db = -50.0;        // per-RE SNR
  bool decoded = false;          // sync succeeded (bar present in Fig. 3)
};

/// Scanner over a receiver environment (model-level: the paper's RSRP
/// numbers are link-budget quantities; the waveform path is exercised by
/// the TV power meter which shares the same emitters).
class CellScanner {
 public:
  explicit CellScanner(ScanConfig config = {}) noexcept : config_(config) {}

  /// Measure one cell at the given receiver. `frontend_loss_db` models the
  /// receiver's own RF-path loss (feedline/connector) that a scan through
  /// the physical device would suffer; the clear-sky *expectation* uses 0.
  [[nodiscard]] CellMeasurement measure(const Cell& cell, const sdr::RxEnvironment& rx,
                                        double frontend_loss_db = 0.0) const noexcept;

  /// Scan a set of cells (e.g. CellDatabase::near output).
  [[nodiscard]] std::vector<CellMeasurement> scan(const std::vector<Cell>& cells,
                                                  const sdr::RxEnvironment& rx,
                                                  double frontend_loss_db = 0.0) const;

 private:
  ScanConfig config_;
};

/// LTE subcarrier spacing (per-RE noise bandwidth).
inline constexpr double kSubcarrierHz = 15e3;

}  // namespace speccal::cellular
