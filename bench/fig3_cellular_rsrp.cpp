// Figure 3 — "Cellular networks: different frequency bands".
//
// Reproduces the paper's grouped bar chart: RSRP of towers 1-5 measured at
// the rooftop, behind-window and indoor sites with the srsUE-like scanner.
// A missing bar in the paper is a failed cell search; here it prints "-".
// The shape to match:
//   rooftop : all 5 towers decode with high RSRP,
//   window  : towers 1-3 decode (attenuated), towers 4-5 (2660/2680) lost,
//   indoor  : only tower 1 (731 MHz penetrates), everything else lost.
// Exits 1 when any shape check fails (a ctest entry runs it).
#include <iostream>
#include <vector>

#include "cellular/pss.hpp"
#include "cellular/scanner.hpp"
#include "scenario/testbed.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace speccal;

int main() {
  std::cout << "==========================================================\n";
  std::cout << " Figure 3: cellular RSRP across frequency bands x sites\n";
  std::cout << "==========================================================\n";

  const auto db = scenario::make_cell_database();
  const cellular::CellScanner scanner;

  struct SiteColumn {
    scenario::Site site;
    scenario::SiteSetup setup;
    std::vector<cellular::CellMeasurement> scan;
  };
  std::vector<SiteColumn> columns;
  for (auto site : {scenario::Site::kRooftop, scenario::Site::kWindow,
                    scenario::Site::kIndoor}) {
    SiteColumn col{site, scenario::make_site(site, 2023), {}};
    col.scan = scanner.scan(db.cells(), col.setup.rx_environment());
    columns.push_back(std::move(col));
  }

  util::Table table({"tower", "DL MHz", "rooftop RSRP", "window RSRP",
                     "indoor RSRP"});
  for (std::size_t t = 0; t < db.cells().size(); ++t) {
    std::vector<std::string> row;
    row.push_back("Tower " + std::to_string(t + 1));
    row.push_back(util::format_fixed(db.cells()[t].dl_freq_hz / 1e6, 0));
    for (const auto& col : columns) {
      const auto& m = col.scan[t];
      row.push_back(m.decoded ? util::format_fixed(m.rsrp_dbm, 1) + " dBm" : "-");
    }
    table.add_row(std::move(row));
  }
  table.set_title("RSRP per tower per site ('-' = sync failed, the paper's"
                  " missing bar)");
  table.print(std::cout);

  // Bar-chart sketch, one block per site like the paper's grouping.
  for (const auto& col : columns) {
    std::cout << "\n" << scenario::site_name(col.site) << ":\n";
    for (std::size_t t = 0; t < col.scan.size(); ++t) {
      const auto& m = col.scan[t];
      std::cout << "  T" << t + 1 << " ("
                << util::format_fixed(m.cell.dl_freq_hz / 1e6, 0) << " MHz) ";
      if (m.decoded)
        std::cout << util::ascii_bar(m.rsrp_dbm, -100.0, -30.0, 40) << " "
                  << util::format_fixed(m.rsrp_dbm, 1) << " dBm\n";
      else
        std::cout << "(no sync)\n";
    }
  }

  // --- waveform cross-validation -------------------------------------------
  // The table above is the model-level scanner (the srsUE full-sync floor).
  // Independently run the physical layer: transmit each cell's PSS through
  // the simulated SDR and detect it by Zadoff-Chu correlation. Raw PSS
  // detection is the *easier* half of a cell search, so every model-decoded
  // cell must also be PSS-visible.
  std::cout << "\nwaveform PSS cross-validation (rooftop site):\n";
  {
    const auto& setup = columns[0].setup;
    auto device = std::make_unique<sdr::SimulatedSdr>(
        sdr::SimulatedSdr::bladerf_like_info(), setup.rx_environment(),
        util::Rng(99));
    prop::LinkParams link;
    link.model = prop::PathModel::kLogDistance;
    link.exponent = 2.9;
    for (const auto& cell : db.cells())
      device->add_source(std::make_shared<cellular::CellSignalSource>(
          cell, link, util::Rng(99).fork(cell.cell_id)));
    std::size_t agree = 0;
    const auto results = cellular::waveform_cell_search(*device, db.cells());
    for (std::size_t t = 0; t < results.size(); ++t) {
      const auto& [cell, det] = results[t];
      const bool model_decoded = columns[0].scan[t].decoded;
      if (!model_decoded || det.detected) ++agree;
      std::cout << "  T" << t + 1 << " ("
                << util::format_fixed(cell.dl_freq_hz / 1e6, 0)
                << " MHz): PSS metric " << util::format_fixed(det.metric, 3)
                << (det.detected ? " detected, N_ID(2)=" + std::to_string(det.nid2)
                                 : " not detected")
                << "\n";
    }
    std::cout << "  model-decoded cells PSS-visible: " << agree << "/"
              << results.size() << "\n";
  }

  // Which towers a site decodes, tower 1 first.
  const auto decodes = [&](std::size_t site, std::vector<bool> expected) {
    for (std::size_t t = 0; t < expected.size(); ++t)
      if (columns[site].scan[t].decoded != expected[t]) return false;
    return true;
  };
  const bool rooftop_all = decodes(0, {true, true, true, true, true});
  const bool window_1_3 = decodes(1, {true, true, true, false, false});
  const bool indoor_1 = decodes(2, {true, false, false, false, false});
  const auto verdict = [](bool ok) { return ok ? "YES" : "NO"; };
  std::cout << "\nShape check vs paper (Fig. 3):\n"
            << "  rooftop decodes all 5 towers          : " << verdict(rooftop_all)
            << "\n  window decodes exactly towers 1-3     : " << verdict(window_1_3)
            << "\n  indoor decodes only tower 1 (731 MHz) : " << verdict(indoor_1)
            << "\n";
  return rooftop_all && window_1_3 && indoor_1 ? 0 : 1;
}
