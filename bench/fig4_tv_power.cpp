// Figure 4 — "Broadcast TV: different frequency bands".
//
// Reproduces the paper's bar chart: received signal strength (dBFS) of six
// ATSC channels (213/473/521/545/587/605 MHz) measured at the three sites
// through the full waveform pipeline — fixed-gain SDR capture, Welch PSD,
// power summed over the 5.38 MHz channel band: Parseval's identity in the
// frequency domain, where the paper's GNU Radio flowgraph applies it in the
// time domain (band-pass filter, |x|^2, long moving average).
//
// Shape to match: the rooftop is strongest nearly everywhere; the window
// and indoor sites are attenuated but still usable below 600 MHz; the
// exception is 521 MHz, where the tower sits in the window's field of view
// and the behind-window reading matches the rooftop (the paper's anomaly).
// Exits 1 when any shape check fails (a ctest entry runs it).
#include <iostream>
#include <map>
#include <vector>

#include "scenario/testbed.hpp"
#include "tv/power_meter.hpp"
#include "util/table.hpp"

using namespace speccal;

int main() {
  std::cout << "==========================================================\n";
  std::cout << " Figure 4: broadcast TV received power (dBFS) x sites\n";
  std::cout << "==========================================================\n";

  const auto world = scenario::make_world(2023);
  const auto channels = scenario::figure4_channels();
  const tv::PowerMeter meter;  // fixed gain, paper-style

  std::map<scenario::Site, std::vector<tv::ChannelPowerReading>> readings;
  for (auto site : {scenario::Site::kRooftop, scenario::Site::kWindow,
                    scenario::Site::kIndoor}) {
    const auto setup = scenario::make_site(site, 2023);
    auto device = scenario::make_node(setup, world, 2023);
    readings[site] = meter.sweep(*device, channels);
  }

  util::Table table({"channel", "center MHz", "rooftop dBFS", "window dBFS",
                     "indoor dBFS"});
  for (std::size_t i = 0; i < channels.size(); ++i) {
    table.add_row({
        std::to_string(channels[i]),
        util::format_fixed(readings[scenario::Site::kRooftop][i].center_hz / 1e6, 0),
        util::format_fixed(readings[scenario::Site::kRooftop][i].power_dbfs, 1),
        util::format_fixed(readings[scenario::Site::kWindow][i].power_dbfs, 1),
        util::format_fixed(readings[scenario::Site::kIndoor][i].power_dbfs, 1),
    });
  }
  table.set_title("Channel power: Welch PSD summed over the channel (Parseval)");
  table.print(std::cout);

  for (auto site : {scenario::Site::kRooftop, scenario::Site::kWindow,
                    scenario::Site::kIndoor}) {
    std::cout << "\n" << scenario::site_name(site) << ":\n";
    for (const auto& r : readings[site])
      std::cout << "  " << util::format_fixed(r.center_hz / 1e6, 0) << " MHz "
                << util::ascii_bar(r.power_dbfs, -70.0, -10.0, 40) << " "
                << util::format_fixed(r.power_dbfs, 1) << " dBFS\n";
  }

  // Shape checks.
  auto dbfs = [&](scenario::Site site, int ch) {
    for (const auto& r : readings[site])
      if (r.rf_channel == ch) return r.power_dbfs;
    return -999.0;
  };
  int rooftop_best = 0;
  for (int ch : channels) {
    if (ch == 22) continue;  // the anomaly channel
    if (dbfs(scenario::Site::kRooftop, ch) >
        std::max(dbfs(scenario::Site::kWindow, ch),
                 dbfs(scenario::Site::kIndoor, ch)))
      ++rooftop_best;
  }
  const double anomaly_gap = std::abs(dbfs(scenario::Site::kWindow, 22) -
                                      dbfs(scenario::Site::kRooftop, 22));
  const bool sub600 = dbfs(scenario::Site::kIndoor, 13) > -70.0 &&
                      dbfs(scenario::Site::kWindow, 13) > -70.0;
  std::cout << "\nShape check vs paper (Fig. 4):\n"
            << "  rooftop strongest on non-anomaly channels : " << rooftop_best
            << "/5\n"
            << "  521 MHz anomaly (|window - rooftop|)      : "
            << util::format_fixed(anomaly_gap, 1)
            << " dB (paper: window ~= rooftop; tower in window FoV)\n"
            << "  window/indoor still receive sub-600 MHz   : " << (sub600 ? "YES" : "NO")
            << " (usable for sub-600 MHz monitoring)\n";
  return rooftop_best == 5 && anomaly_gap < 1.0 && sub600 ? 0 : 1;
}
