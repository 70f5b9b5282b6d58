// Unit tests: 3GPP band tables, cell database, srsUE-like scanner.
#include <gtest/gtest.h>

#include <cmath>

#include "cellular/bands.hpp"
#include "cellular/scanner.hpp"
#include "cellular/tower.hpp"
#include "prop/pathloss.hpp"

namespace c = speccal::cellular;
namespace g = speccal::geo;

// ---------------------------------------------------------------- bands ----

TEST(Bands, KnownEarfcnConversions) {
  // Band 12: F_DL = 729 + 0.1*(N - 5010); the testbed's 731 MHz is 5030.
  EXPECT_DOUBLE_EQ(c::earfcn_to_dl_freq_hz(5030).value(), 731e6);
  // Band 2: 1930 + 0.1*(N - 600); 1970 MHz -> 1000.
  EXPECT_DOUBLE_EQ(c::earfcn_to_dl_freq_hz(1000).value(), 1970e6);
  // Band 4: 2110 + 0.1*(N - 1950); 2145 MHz -> 2300.
  EXPECT_DOUBLE_EQ(c::earfcn_to_dl_freq_hz(2300).value(), 2145e6);
  // Band 7: 2620 + 0.1*(N - 2750); 2660 -> 3150, 2680 -> 3350.
  EXPECT_DOUBLE_EQ(c::earfcn_to_dl_freq_hz(3150).value(), 2660e6);
  EXPECT_DOUBLE_EQ(c::earfcn_to_dl_freq_hz(3350).value(), 2680e6);
}

class EarfcnRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(EarfcnRoundTrip, FreqToEarfcnInverts) {
  const int band = GetParam();
  for (const auto& info : c::lte_bands()) {
    if (info.band != band) continue;
    const double mid = (info.dl_low_hz + info.dl_high_hz) / 2.0;
    const auto earfcn = c::dl_freq_to_earfcn(band, mid);
    ASSERT_TRUE(earfcn.has_value());
    EXPECT_NEAR(c::earfcn_to_dl_freq_hz(*earfcn).value(), mid, 50e3);
  }
}

INSTANTIATE_TEST_SUITE_P(CommonBands, EarfcnRoundTrip,
                         ::testing::Values(2, 4, 5, 7, 12, 13, 30, 41, 48, 66, 71));

TEST(Bands, BandForEarfcnBoundaries) {
  // Band 12 spans EARFCN [5010, 5180) for its 17 MHz block.
  EXPECT_EQ(c::band_for_earfcn(5010).value().band, 12);
  EXPECT_EQ(c::band_for_earfcn(5179).value().band, 12);
  EXPECT_EQ(c::band_for_earfcn(5180).value().band, 13);
  EXPECT_FALSE(c::band_for_earfcn(999999).has_value());
}

TEST(Bands, OutOfBandFrequencyRejected) {
  EXPECT_FALSE(c::dl_freq_to_earfcn(12, 900e6).has_value());
  EXPECT_FALSE(c::dl_freq_to_earfcn(999, 731e6).has_value());
}

TEST(Bands, SpectrumClassification) {
  EXPECT_EQ(c::classify_frequency(617e6), c::SpectrumClass::kLowBand);
  EXPECT_EQ(c::classify_frequency(1970e6), c::SpectrumClass::kMidBand);
  EXPECT_EQ(c::classify_frequency(3600e6), c::SpectrumClass::kHighBand);
  EXPECT_EQ(c::classify_frequency(28e9), c::SpectrumClass::kMmWave);
  EXPECT_FALSE(c::to_string(c::SpectrumClass::kLowBand).empty());
}

// ----------------------------------------------------------------- cells ----

namespace {
c::Cell test_cell(std::uint64_t id, double az, double range_m, int band,
                  std::uint32_t earfcn) {
  g::Geodetic pos = g::destination({37.87, -122.27, 0.0}, az, range_m);
  pos.alt_m = 30.0;
  return c::make_cell(id, "Op", band, earfcn, pos, 62.0, 10e6, 100);
}
}  // namespace

TEST(Cells, MakeCellValidatesEarfcn) {
  EXPECT_NO_THROW(test_cell(1, 0.0, 1000.0, 12, 5030));
  EXPECT_THROW(test_cell(2, 0.0, 1000.0, 12, 1000), std::invalid_argument);
  const auto cell = test_cell(3, 0.0, 1000.0, 2, 1000);
  EXPECT_DOUBLE_EQ(cell.dl_freq_hz, 1970e6);
  EXPECT_EQ(cell.resource_blocks(), 50);  // 10 MHz
}

TEST(Cells, ResourceBlockTable) {
  auto cell = test_cell(1, 0.0, 1000.0, 12, 5030);
  cell.bandwidth_hz = 1.4e6;
  EXPECT_EQ(cell.resource_blocks(), 6);
  cell.bandwidth_hz = 5e6;
  EXPECT_EQ(cell.resource_blocks(), 25);
  cell.bandwidth_hz = 20e6;
  EXPECT_EQ(cell.resource_blocks(), 100);
}

TEST(Cells, DatabaseQueries) {
  c::CellDatabase db;
  db.add(test_cell(1, 0.0, 500.0, 12, 5030));
  db.add(test_cell(2, 90.0, 2000.0, 2, 1000));
  db.add(test_cell(3, 180.0, 50e3, 7, 3150));

  const auto near = db.near({37.87, -122.27, 0.0}, 10e3);
  ASSERT_EQ(near.size(), 2u);
  EXPECT_EQ(near[0].cell_id, 1u);  // nearest first
  EXPECT_EQ(near[1].cell_id, 2u);

  EXPECT_EQ(db.in_band(7).size(), 1u);
  EXPECT_TRUE(db.by_id(3).has_value());
  EXPECT_FALSE(db.by_id(99).has_value());
}

// --------------------------------------------------------------- scanner ----

namespace {
speccal::sdr::RxEnvironment open_rx() {
  speccal::sdr::RxEnvironment rx;
  rx.position = {37.87, -122.27, 10.0};
  return rx;
}
}  // namespace

TEST(Scanner, RsrpIsRssiMinusResourceElements) {
  const auto cell = test_cell(1, 90.0, 800.0, 2, 1000);
  const c::CellScanner scanner;
  const auto meas = scanner.measure(cell, open_rx());
  // 50 RB * 12 subcarriers = 600 REs -> 27.8 dB below wideband power.
  EXPECT_NEAR(meas.rssi_dbm - meas.rsrp_dbm, 10.0 * std::log10(600.0), 1e-6);
  EXPECT_TRUE(meas.decoded);  // 800 m from a macro: easily decodable
}

TEST(Scanner, SensitivityFloorCreatesMissingBars) {
  // Paper Figure 3: a missing bar is a failed sync. Put the cell behind a
  // massive obstruction and the scanner must fail even though the maths
  // still yields a (very low) RSRP.
  const auto cell = test_cell(1, 90.0, 800.0, 7, 3150);
  speccal::prop::ObstructionMap wall;
  wall.set_omni_loss(40.0, 10.0);
  wall.set_leakage_ceiling_db(60.0);
  auto rx = open_rx();
  rx.obstructions = &wall;

  c::ScanConfig config;
  config.min_rsrp_dbm = -95.0;
  const c::CellScanner scanner(config);
  const auto blocked = scanner.measure(cell, rx);
  const auto clear = scanner.measure(cell, open_rx());
  EXPECT_TRUE(clear.decoded);
  EXPECT_FALSE(blocked.decoded);
  EXPECT_LT(blocked.rsrp_dbm, clear.rsrp_dbm - 30.0);
}

TEST(Scanner, LowBandPenetratesWhereMidBandDies) {
  // The paper's central §3.2 observation, reproduced at scanner level.
  speccal::prop::ObstructionMap building;
  building.set_omni_loss(34.0, 30.0);  // indoor site profile
  auto rx = open_rx();
  rx.obstructions = &building;

  const auto low = test_cell(1, 250.0, 900.0, 12, 5030);   // 731 MHz
  const auto mid = test_cell(2, 268.0, 800.0, 2, 1000);    // 1970 MHz
  const c::CellScanner scanner;
  EXPECT_TRUE(scanner.measure(low, rx).decoded);
  EXPECT_FALSE(scanner.measure(mid, rx).decoded);
}

TEST(Scanner, ScanPreservesOrder) {
  c::CellDatabase db;
  db.add(test_cell(1, 0.0, 500.0, 12, 5030));
  db.add(test_cell(2, 90.0, 700.0, 2, 1000));
  const c::CellScanner scanner;
  const auto results = scanner.scan(db.cells(), open_rx());
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].cell.cell_id, 1u);
  EXPECT_EQ(results[1].cell.cell_id, 2u);
}

TEST(Scanner, AntennaGainShiftsRsrp) {
  const auto cell = test_cell(1, 90.0, 800.0, 2, 1000);
  const auto iso = speccal::sdr::AntennaModel::isotropic();
  const auto broken = speccal::sdr::AntennaModel::attenuated(iso, 15.0);
  auto rx_good = open_rx();
  rx_good.antenna = &iso;
  auto rx_bad = open_rx();
  rx_bad.antenna = &broken;
  const c::CellScanner scanner;
  EXPECT_NEAR(scanner.measure(cell, rx_good).rsrp_dbm -
                  scanner.measure(cell, rx_bad).rsrp_dbm,
              15.0, 1e-6);
}

// ---------------------------------------------------------- PSS waveform ----

#include "cellular/pss.hpp"
#include "dsp/iq.hpp"
#include "util/rng.hpp"

using speccal::util::Rng;

TEST(Pss, SequencesAreConstantModulusAndDistinct) {
  for (int nid2 = 0; nid2 < 3; ++nid2) {
    const auto d = c::pss_sequence(nid2);
    for (const auto& v : d) EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
  }
  // Cross-correlation between different roots is far below autocorrelation.
  const auto a = c::pss_sequence(0);
  const auto b = c::pss_sequence(1);
  std::complex<double> cross{}, self{};
  for (std::size_t n = 0; n < a.size(); ++n) {
    cross += a[n] * std::conj(b[n]);
    self += a[n] * std::conj(a[n]);
  }
  EXPECT_LT(std::abs(cross), 0.3 * std::abs(self));
  EXPECT_THROW((void)c::pss_sequence(3), std::invalid_argument);
}

TEST(Pss, TimeDomainUnitPower) {
  for (int nid2 = 0; nid2 < 3; ++nid2) {
    const auto wave = c::pss_time_domain(nid2);
    ASSERT_EQ(wave.size(), c::kPssFftSize);
    double power = 0.0;
    for (const auto& v : wave) power += std::norm(v);
    EXPECT_NEAR(power / static_cast<double>(wave.size()), 1.0, 1e-6);
  }
}

namespace {
/// Synthetic capture: PSS bursts every half frame + white noise.
std::vector<std::complex<float>> synthetic_pss_capture(int nid2, double pss_amp,
                                                       double noise_sigma,
                                                       std::size_t offset,
                                                       std::uint64_t seed) {
  const auto period = static_cast<std::size_t>(c::kPssPeriodS * c::kSearchRateHz);
  std::vector<std::complex<float>> capture(4 * period);
  Rng rng(seed);
  for (auto& v : capture)
    v = {static_cast<float>(rng.normal(0.0, noise_sigma)),
         static_cast<float>(rng.normal(0.0, noise_sigma))};
  const auto wave = c::pss_time_domain(nid2);
  for (std::size_t start = offset; start + wave.size() <= capture.size();
       start += period)
    for (std::size_t n = 0; n < wave.size(); ++n)
      capture[start + n] += wave[n] * static_cast<float>(pss_amp);
  return capture;
}
}  // namespace

TEST(Pss, SearchFindsRootAndTiming) {
  for (int nid2 = 0; nid2 < 3; ++nid2) {
    const auto capture = synthetic_pss_capture(nid2, 1.0, 0.5, 1234, 51);
    const auto det = c::pss_search(capture);
    EXPECT_EQ(det.nid2, nid2);
    EXPECT_EQ(det.timing_offset, 1234u);
    EXPECT_GT(det.metric, 0.3);
    EXPECT_NEAR(det.cfo_hz, 0.0, 800.0);
  }
}

TEST(Pss, NoiseOnlyStaysBelowThreshold) {
  std::vector<std::complex<float>> capture(4 * 9600);
  Rng rng(52);
  for (auto& v : capture)
    v = {static_cast<float>(rng.normal()), static_cast<float>(rng.normal())};
  const auto det = c::pss_search(capture);
  EXPECT_LT(det.metric, c::kPssDetectionThreshold);
}

TEST(Pss, SelfInterferenceLimitedCellStillDetected) {
  // PSS at the in-carrier power ratio (62 of 600 REs) buried in the rest
  // of the grid: per-symbol SNR ~ -10 dB; combining must still clear the
  // detection threshold.
  const double grid_sigma = std::sqrt(600.0 / 62.0 / 2.0);  // per component
  const auto capture = synthetic_pss_capture(1, 1.0, grid_sigma, 4321, 53);
  const auto det = c::pss_search(capture);
  EXPECT_EQ(det.nid2, 1);
  EXPECT_GT(det.metric, c::kPssDetectionThreshold);
}

namespace {
std::unique_ptr<speccal::sdr::SimulatedSdr> pss_world_device(
    const c::CellDatabase& db, const speccal::sdr::RxEnvironment& rx,
    std::uint64_t seed) {
  auto device = std::make_unique<speccal::sdr::SimulatedSdr>(
      speccal::sdr::SimulatedSdr::bladerf_like_info(), rx, Rng(seed));
  speccal::prop::LinkParams link;
  link.model = speccal::prop::PathModel::kLogDistance;
  link.exponent = 2.9;
  for (const auto& cell : db.cells())
    device->add_source(std::make_shared<c::CellSignalSource>(
        cell, link, Rng(seed).fork(cell.cell_id)));
  return device;
}
}  // namespace

TEST(Pss, WaveformSearchFindsEveryModelDecodableCell) {
  // The model scanner's "decoded" floor represents the full srsUE chain
  // (PSS+SSS+PBCH); raw PSS correlation is the easier problem, so every
  // model-decodable cell must also be PSS-detectable. Deeply obstructed
  // cells (below the thermal floor) must not be.
  c::CellDatabase db;
  db.add(test_cell(1, 250.0, 900.0, 12, 5030));
  db.add(test_cell(2, 268.0, 800.0, 2, 1000));

  speccal::prop::ObstructionMap dungeon;
  // Deep enough that the carriers land below the 1.92 MHz thermal floor
  // (~-104 dBm): raw PSS correlation legitimately detects anything above it.
  dungeon.set_omni_loss(85.0, 10.0);
  dungeon.set_leakage_ceiling_db(120.0);

  const auto rx_open = open_rx();
  auto rx_buried = open_rx();
  rx_buried.obstructions = &dungeon;

  auto open_device = pss_world_device(db, rx_open, 71);
  const auto open_results = c::waveform_cell_search(*open_device, db.cells());
  ASSERT_EQ(open_results.size(), 2u);
  const c::CellScanner scanner;
  for (const auto& [cell, det] : open_results) {
    EXPECT_TRUE(scanner.measure(cell, rx_open).decoded);
    EXPECT_TRUE(det.detected) << cell.cell_id;
    EXPECT_EQ(det.nid2, static_cast<int>(cell.pci % 3));
  }

  auto buried_device = pss_world_device(db, rx_buried, 72);
  for (const auto& [cell, det] :
       c::waveform_cell_search(*buried_device, db.cells())) {
    EXPECT_FALSE(scanner.measure(cell, rx_buried).decoded);
    EXPECT_FALSE(det.detected) << cell.cell_id;
  }
}

TEST(Pss, CfoFromLoErrorEstimated) {
  c::CellDatabase db;
  db.add(test_cell(1, 90.0, 800.0, 2, 1000));  // 1970 MHz
  auto info = speccal::sdr::SimulatedSdr::bladerf_like_info();
  info.lo_error_ppm = 2.0;  // ~3.9 kHz at 1970 MHz
  const auto rx = open_rx();
  auto device = std::make_unique<speccal::sdr::SimulatedSdr>(info, rx, Rng(73));
  speccal::prop::LinkParams link;
  link.model = speccal::prop::PathModel::kLogDistance;
  link.exponent = 2.9;
  device->add_source(std::make_shared<c::CellSignalSource>(db.cells()[0], link, Rng(74)));

  const auto results = c::waveform_cell_search(*device, db.cells());
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].second.detected);
  // LO high by 2 ppm -> signal appears ~3.9 kHz low. The split-correlation
  // estimate is coarse (half-sample timing error biases it by ~2 kHz) —
  // enough to seed a real UE's fine-CFO loop, so assert sign and ballpark.
  EXPECT_LT(results[0].second.cfo_hz, -1500.0);
  EXPECT_NEAR(results[0].second.cfo_hz, -2e-6 * 1970e6, 2500.0);
}
