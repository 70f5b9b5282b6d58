#include "calib/pipeline.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "adsb/ppm.hpp"
#include "dsp/iq.hpp"
#include "obs/metrics.hpp"
#include "prop/pathloss.hpp"
#include "sdr/rx_environment.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace speccal::calib {

// The fleet engine copies these freely across worker threads; keep them
// value types.
static_assert(std::is_copy_constructible_v<WorldModel>);
static_assert(std::is_copy_constructible_v<PipelineConfig>);

namespace {

/// Cells considered "nearby" for the scan list.
constexpr double kCellSearchRadiusM = 30e3;
/// TV reading below noise floor + margin counts as lost.
constexpr double kTvDetectMarginDb = 2.0;
/// Receiver gain of the anomaly watchlist sweep.
constexpr double kAnomalyScanGainDb = 40.0;

}  // namespace

void AnomalyScanConfig::validate() const {
  if (!enabled) return;
  if (bands.empty())
    throw std::invalid_argument(
        "AnomalyScanConfig.bands must be non-empty when enabled");
  for (const WatchBand& band : bands) {
    if (band.label.empty())
      throw std::invalid_argument("WatchBand.label must be non-empty");
    if (!(band.center_hz > 0.0))
      throw std::invalid_argument("WatchBand.center_hz must be positive (band " +
                                  band.label + ")");
    if (!(band.sample_rate_hz > 0.0))
      throw std::invalid_argument(
          "WatchBand.sample_rate_hz must be positive (band " + band.label + ")");
    if (!(band.capture_duration_s > 0.0))
      throw std::invalid_argument(
          "WatchBand.capture_duration_s must be positive (band " + band.label +
          ")");
  }
}

CalibrationPipeline::CalibrationPipeline(WorldModel world, PipelineConfig config)
    : world_(std::move(world)), config_(config) {
  config_.anomaly_scan.validate();
}

// Everything a node's stage tasks share. Owned by the NodeTaskSet; tasks
// capture it by raw pointer, so the set must outlive every task execution.
// Fault records are segregated per stage (stages of one node may run on
// different threads under the executor) and merged by finalize() in stage
// enum order — exactly the order the serial pipeline appended them.
struct NodeTaskSet::Context {
  const CalibrationPipeline* pipeline = nullptr;
  sdr::Device* device = nullptr;
  CalibrationReport* report = nullptr;
  obs::TraceSession* trace = nullptr;
  sdr::RxEnvironment rx;
  sdr::RxEnvironment clear;
  double tv_noise_dbm = 0.0;
  std::vector<BandMeasurement> cell_measurements;
  std::vector<BandMeasurement> tv_measurements;
  std::array<std::vector<FaultRecord>, kStageCount> records;
  bool finalized = false;
};

NodeTaskSet::NodeTaskSet() : ctx_(std::make_unique<Context>()) {}
NodeTaskSet::NodeTaskSet(NodeTaskSet&&) noexcept = default;
NodeTaskSet& NodeTaskSet::operator=(NodeTaskSet&&) noexcept = default;
NodeTaskSet::~NodeTaskSet() = default;

void NodeTaskSet::run_all() {
  try {
    for (const Task& task : tasks_) task.run();
  } catch (...) {
    finalize(/*aborted=*/true);  // keep fault records gathered before the abort
    throw;
  }
  finalize(/*aborted=*/false);
}

void NodeTaskSet::finalize(bool aborted) {
  if (ctx_->finalized) return;
  ctx_->finalized = true;
  CalibrationReport& report = *ctx_->report;
  for (auto& stage_records : ctx_->records)
    for (FaultRecord& fr : stage_records)
      report.fault_records.push_back(std::move(fr));
  if (aborted) return;

  // Quarantined stages feed back into trust: the marketplace must see a
  // node that could not complete a stage as strictly less dependable.
  std::size_t quarantined_stages = 0;
  for (const FaultRecord& fr : report.fault_records) {
    if (fr.outcome == FaultOutcome::kRecovered) continue;
    ++quarantined_stages;
    report.trust.findings.push_back(
        {Severity::kViolation,
         std::string("stage ") + to_string(fr.stage) + " quarantined after " +
             std::to_string(fr.attempts) + " attempt(s): " + fr.last_error});
  }
  for (std::size_t i = 0; i < quarantined_stages; ++i)
    report.trust.score *= 0.5;  // each lost stage halves the trust score
}

CalibrationReport CalibrationPipeline::calibrate(sdr::Device& device,
                                                 const NodeClaims& claims,
                                                 obs::TraceSession* trace) const {
  CalibrationReport report;
  plan(device, claims, report, trace).run_all();
  return report;
}

std::vector<StageSpec> CalibrationPipeline::stage_plan() const {
  // Device-touching stages (survey, cell_scan, tv_sweep, lo_cal) form a
  // dependency chain: sdr::Device is not thread-safe, and chaining them also
  // pins the order of device I/O so parallel runs replay the exact serial
  // capture sequence (the bitwise-determinism gate). Pure stages (fov, fuse)
  // hang off their data inputs only.
  std::vector<StageSpec> specs;
  const bool have_sky = static_cast<bool>(world_.sky);
  const std::vector<Stage> after_survey =
      have_sky ? std::vector<Stage>{Stage::kSurvey} : std::vector<Stage>{};
  if (have_sky) specs.push_back({Stage::kSurvey, /*uses_device=*/true, {}});
  specs.push_back({Stage::kFov, /*uses_device=*/false, after_survey});
  specs.push_back({Stage::kCellScan, /*uses_device=*/true, after_survey});
  specs.push_back({Stage::kTvSweep, /*uses_device=*/true, {Stage::kCellScan}});
  specs.push_back({Stage::kFuse, /*uses_device=*/false,
                   {Stage::kFov, Stage::kCellScan, Stage::kTvSweep}});
  specs.push_back({Stage::kLoCal, /*uses_device=*/true, {Stage::kTvSweep}});
  // The watchlist sweep runs after every calibration capture, so arming it
  // cannot perturb the measurements earlier stages would otherwise take —
  // the clean-run bitwise guarantee the anomaly tests lock.
  if (config_.anomaly_scan.enabled)
    specs.push_back({Stage::kAnomalyScan, /*uses_device=*/true, {Stage::kLoCal}});
  return specs;
}

NodeTaskSet CalibrationPipeline::plan(sdr::Device& device,
                                      const NodeClaims& claims,
                                      CalibrationReport& report,
                                      obs::TraceSession* trace) const {
  report = CalibrationReport{};
  report.claims = claims;
  obs::Registry::global().counter("speccal_calib_runs_total").add();

  NodeTaskSet set;
  NodeTaskSet::Context* ctx = set.ctx_.get();
  ctx->pipeline = this;
  ctx->device = &device;
  ctx->report = &report;
  ctx->trace = trace;

  // Receiver surroundings: simulation-backed devices expose their ground
  // truth through the SimControl capability; real hardware contributes its
  // position only, and the model-level expectations below then assume an
  // unobstructed site.
  if (sdr::SimControl* sim = device.sim_control()) ctx->rx = sim->rx_environment();
  else ctx->rx.position = device.position();
  // Clear-sky twin of this receiver: same place/antenna, no obstructions.
  ctx->clear = ctx->rx;
  ctx->clear.obstructions = nullptr;
  ctx->clear.fading = nullptr;
  ctx->tv_noise_dbm =
      prop::noise_floor_dbm(tv::kMeasureBandwidthHz, device.info().noise_figure_db);

  // Each task wraps its stage body in the same StageTimer + RetryRunner
  // sandwich the serial pipeline used. Runners get the device only for
  // device-touching stages, so a retried pure stage can never advance the
  // simulated stream clock. Each attempt starts from the stage's reset
  // closure, so a retried (or quarantined) stage never leaks a partial
  // attempt into the report.
  const auto make_task = [this, ctx](Stage stage, bool uses_device,
                                     std::function<void()> reset,
                                     std::function<void()> body) {
    NodeTaskSet::Task task;
    task.stage = stage;
    task.run = [this, ctx, stage, uses_device, reset = std::move(reset),
                body = std::move(body)] {
      StageTimer timer(ctx->report->metrics, stage, ctx->trace,
                       ctx->report->claims.node_id);
      RetryRunner runner(config_.retry, ctx->report->claims.node_id,
                         uses_device ? ctx->device : nullptr, ctx->trace);
      runner.run(stage, ctx->records[static_cast<std::size_t>(stage)], reset,
                 body);
    };
    return task;
  };

  for (const StageSpec& spec : stage_plan()) {
    switch (spec.stage) {
      case Stage::kSurvey:
        // --- 1. ADS-B directional survey --------------------------------
        set.tasks_.push_back(make_task(
            spec.stage, spec.uses_device,
            [ctx] {
              ctx->report->survey = SurveyResult{};
              ctx->report->metrics.at(Stage::kSurvey) = StageSample{};
            },
            [this, ctx] {
              airtraffic::GroundTruthService gt(*world_.sky,
                                                world_.ground_truth_latency_s);
              AdsbSurvey survey(config_.survey);
              ctx->report->survey = survey.run(*ctx->device, *world_.sky, gt);
              StageSample& sample = ctx->report->metrics.at(Stage::kSurvey);
              sample.frames_decoded = ctx->report->survey.total_frames_decoded;
              if (config_.survey.fidelity == Fidelity::kWaveform)
                sample.samples_captured = static_cast<std::uint64_t>(
                    config_.survey.duration_s * adsb::kPpmSampleRateHz);
            }));
        break;
      case Stage::kFov:
        set.tasks_.push_back(make_task(
            spec.stage, spec.uses_device,
            [ctx] { ctx->report->fov = FovEstimate{}; },
            [ctx] { ctx->report->fov = estimate_fov_knn(ctx->report->survey); }));
        break;
      case Stage::kCellScan:
        // --- 2. Cellular scan -------------------------------------------
        set.tasks_.push_back(make_task(
            spec.stage, spec.uses_device,
            [ctx] {
              ctx->report->cell_scan.clear();
              ctx->cell_measurements.clear();
            },
            [this, ctx] {
              const cellular::CellScanner scanner;
              const auto nearby =
                  world_.cells.near(ctx->rx.position, kCellSearchRadiusM);
              ctx->report->cell_scan = scanner.scan(
                  nearby, ctx->rx, ctx->device->info().frontend_loss_db);
              for (const auto& meas : ctx->report->cell_scan) {
                const auto expected = scanner.measure(meas.cell, ctx->clear);
                BandMeasurement bm;
                bm.kind = SignalKind::kCellular;
                std::ostringstream label;
                label << meas.cell.operator_name << " B" << meas.cell.band
                      << " (" << meas.cell.dl_freq_hz / 1e6 << " MHz)";
                bm.source_label = label.str();
                bm.freq_hz = meas.cell.dl_freq_hz;
                bm.expected_dbm = expected.rsrp_dbm;
                if (meas.decoded) bm.measured_dbm = meas.rsrp_dbm;
                bm.azimuth_deg =
                    geo::bearing_deg(ctx->rx.position, meas.cell.position);
                ctx->cell_measurements.push_back(std::move(bm));
              }
            }));
        break;
      case Stage::kTvSweep:
        // --- 3. Broadcast TV sweep --------------------------------------
        set.tasks_.push_back(make_task(
            spec.stage, spec.uses_device,
            [ctx] {
              ctx->report->tv_readings.clear();
              ctx->tv_measurements.clear();
              ctx->report->metrics.at(Stage::kTvSweep) = StageSample{};
            },
            [this, ctx] {
              const tv::PowerMeter meter;
              for (const auto& emitter : world_.tv_channels) {
                const auto channel =
                    tv::channel_for_frequency(emitter.carrier_hz);
                if (!channel) continue;
                const auto reading = meter.measure_channel(*ctx->device, *channel);
                ctx->report->metrics.at(Stage::kTvSweep).samples_captured +=
                    reading.samples_used;
                ctx->report->tv_readings.push_back(reading);

                // Clear-sky expectation straight from the link budget.
                sdr::FixedEmitterSource probe(emitter, util::Rng(1));
                BandMeasurement bm;
                bm.kind = SignalKind::kTv;
                std::ostringstream label;
                label << "TV ch " << *channel << " ("
                      << emitter.carrier_hz / 1e6 << " MHz)";
                bm.source_label = label.str();
                bm.freq_hz = emitter.carrier_hz;
                bm.expected_dbm = probe.received_power_dbm(ctx->clear);
                if (reading.tune_ok &&
                    reading.power_dbm > ctx->tv_noise_dbm + kTvDetectMarginDb)
                  bm.measured_dbm = reading.power_dbm;
                bm.azimuth_deg =
                    geo::bearing_deg(ctx->rx.position, emitter.position);
                ctx->tv_measurements.push_back(std::move(bm));
              }
            }));
        break;
      case Stage::kFuse:
        // --- 4. Fuse, classify, verify ----------------------------------
        set.tasks_.push_back(make_task(
            spec.stage, spec.uses_device,
            [ctx] {
              ctx->report->frequency_response = FrequencyResponseReport{};
              ctx->report->classification = Classification{};
              ctx->report->trust = TrustReport{};
              ctx->report->hardware = HardwareDiagnosis{};
            },
            [this, ctx] {
              CalibrationReport& report = *ctx->report;
              std::vector<BandMeasurement> measurements;
              measurements.reserve(ctx->cell_measurements.size() +
                                   ctx->tv_measurements.size());
              measurements.insert(measurements.end(),
                                  ctx->cell_measurements.begin(),
                                  ctx->cell_measurements.end());
              measurements.insert(measurements.end(),
                                  ctx->tv_measurements.begin(),
                                  ctx->tv_measurements.end());
              report.frequency_response =
                  evaluate_frequency_response(std::move(measurements));
              report.classification =
                  classify_installation(report.fov, report.frequency_response);
              report.trust = evaluate_trust(report.claims, report.survey,
                                            report.fov,
                                            report.frequency_response,
                                            report.classification);

              // --- 5. Hardware separation -------------------------------
              report.hardware =
                  diagnose_hardware(report.frequency_response, report.fov);
            }));
        break;
      case Stage::kLoCal:
        set.tasks_.push_back(make_task(
            spec.stage, spec.uses_device,
            [ctx] {
              ctx->report->lo_calibration = LoCalibrationResult{};
              ctx->report->metrics.at(Stage::kLoCal) = StageSample{};
            },
            [this, ctx] {
              // Only pilot-hunt on channels the sweep showed as receivable.
              CalibrationReport& report = *ctx->report;
              std::vector<int> receivable;
              for (const auto& reading : report.tv_readings)
                if (reading.tune_ok &&
                    reading.power_dbm > ctx->tv_noise_dbm + kTvDetectMarginDb)
                  receivable.push_back(reading.rf_channel);
              report.lo_calibration = calibrate_lo(*ctx->device, receivable);
              report.metrics.at(Stage::kLoCal).samples_captured +=
                  static_cast<std::uint64_t>(
                      report.lo_calibration.pilots.size()) *
                  static_cast<std::uint64_t>(kLoSampleRateHz * kLoCaptureDurationS);
            }));
        break;
      case Stage::kAnomalyScan:
        // --- 6. Anomaly watchlist sweep ---------------------------------
        set.tasks_.push_back(make_task(
            spec.stage, spec.uses_device,
            [ctx] {
              ctx->report->anomaly_scan = AnomalyScanResult{};
              ctx->report->metrics.at(Stage::kAnomalyScan) = StageSample{};
            },
            [this, ctx] {
              CalibrationReport& report = *ctx->report;
              report.anomaly_scan.position = ctx->rx.position;
              dsp::Buffer capture;  // reused across bands
              for (const WatchBand& band : config_.anomaly_scan.bands) {
                WatchObservation obs;
                obs.label = band.label;
                obs.center_hz = band.center_hz;
                ctx->device->set_gain_mode(sdr::GainMode::kManual);
                ctx->device->set_gain_db(kAnomalyScanGainDb);
                obs.tune_ok =
                    ctx->device->tune(band.center_hz, band.sample_rate_hz);
                if (obs.tune_ok) {
                  capture.resize(static_cast<std::size_t>(
                      band.capture_duration_s * band.sample_rate_hz));
                  ctx->device->capture_into(capture);
                  obs.power_dbfs = dsp::mean_power_dbfs(capture);
                  obs.autocorr_rho = dsp::lag_autocorrelation(capture);
                  report.metrics.at(Stage::kAnomalyScan).samples_captured +=
                      capture.size();
                }
                report.anomaly_scan.bands.push_back(std::move(obs));
              }
              report.anomaly_scan.ran = true;
            }));
        break;
    }
  }
  return set;
}

void CalibrationReport::write_json(std::ostream& os,
                                   bool include_stage_metrics) const {
  util::JsonWriter w(os);
  w.begin_object();
  w.key("node_id");
  w.value(claims.node_id);
  w.key("aborted");
  w.value(aborted());
  if (aborted()) {
    w.key("abort_reason");
    w.value(abort_reason);
  }
  w.key("quarantined");
  w.value(quarantined());
  if (!fault_records.empty()) {
    w.key("fault_records");
    w.begin_array();
    for (const auto& fr : fault_records) {
      w.begin_object();
      w.key("stage");
      w.value(to_string(fr.stage));
      w.key("attempts");
      w.value(static_cast<std::int64_t>(fr.attempts));
      w.key("outcome");
      w.value(to_string(fr.outcome));
      w.key("degraded");
      w.value(fr.degraded);
      w.key("backoff_total_s");
      w.value(fr.backoff_total_s);
      w.key("error");
      w.value(fr.last_error);
      w.end_object();
    }
    w.end_array();
  }

  w.key("survey");
  w.begin_object();
  w.key("aircraft_in_truth");
  w.value(survey.observations.size());
  w.key("aircraft_received");
  w.value(survey.received_count());
  w.key("frames_decoded");
  w.value(static_cast<std::int64_t>(survey.total_frames_decoded));
  w.key("frames_crc_repaired");
  w.value(static_cast<std::int64_t>(survey.frames_crc_repaired));
  w.key("unmatched_receptions");
  w.value(static_cast<std::int64_t>(survey.unmatched_receptions));
  w.end_object();

  w.key("field_of_view");
  w.begin_object();
  w.key("open_fraction");
  w.value(fov.open_fraction_deg);
  w.key("open_sectors");
  w.value(fov.open_sectors.to_string());
  w.key("usable_observations");
  w.value(fov.usable_observations);
  w.end_object();

  w.key("cell_scan");
  w.begin_array();
  for (const auto& m : cell_scan) {
    w.begin_object();
    w.key("band");
    w.value(m.cell.band);
    w.key("earfcn");
    w.value(static_cast<std::int64_t>(m.cell.earfcn));
    w.key("freq_mhz");
    w.value(m.cell.dl_freq_hz / 1e6);
    w.key("decoded");
    w.value(m.decoded);
    if (m.decoded) {
      w.key("rsrp_dbm");
      w.value(m.rsrp_dbm);
    }
    w.end_object();
  }
  w.end_array();

  w.key("tv_sweep");
  w.begin_array();
  for (const auto& r : tv_readings) {
    w.begin_object();
    w.key("channel");
    w.value(r.rf_channel);
    w.key("freq_mhz");
    w.value(r.center_hz / 1e6);
    w.key("power_dbfs");
    w.value(r.power_dbfs);
    w.end_object();
  }
  w.end_array();

  w.key("frequency_response");
  w.begin_object();
  w.key("mean_attenuation_db");
  w.value(frequency_response.mean_attenuation_db);
  w.key("slope_db_per_decade");
  w.value(frequency_response.attenuation_slope_db_per_decade);
  w.key("bands");
  w.begin_array();
  for (const auto& b : frequency_response.bands) {
    w.begin_object();
    w.key("class");
    w.value(cellular::to_string(b.band_class));
    w.key("usable");
    w.value(b.usable);
    w.key("mean_attenuation_db");
    w.value(b.mean_attenuation_db);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("classification");
  w.begin_object();
  w.key("type");
  w.value(to_string(classification.type));
  w.key("confidence");
  w.value(classification.confidence);
  w.key("rationale");
  w.begin_array();
  for (const auto& reason : classification.rationale) w.value(reason);
  w.end_array();
  w.end_object();

  w.key("hardware");
  w.begin_object();
  w.key("cable_fault_suspected");
  w.value(hardware.cable_fault_suspected);
  w.key("estimated_cable_loss_db");
  w.value(hardware.estimated_cable_loss_db);
  w.key("antenna_band_mismatch");
  w.value(hardware.antenna_band_mismatch);
  w.key("notes");
  w.begin_array();
  for (const auto& note : hardware.notes) w.value(note);
  w.end_array();
  w.end_object();

  w.key("lo_calibration");
  w.begin_object();
  w.key("usable");
  w.value(lo_calibration.usable());
  w.key("ppm");
  w.value(lo_calibration.ppm);
  w.key("pilots_used");
  w.value(lo_calibration.valid_count);
  w.end_object();

  w.key("trust");
  w.begin_object();
  w.key("score");
  w.value(trust.score);
  w.key("findings");
  w.begin_array();
  for (const auto& f : trust.findings) {
    w.begin_object();
    w.key("severity");
    w.value(f.severity == Severity::kViolation
                ? "violation"
                : (f.severity == Severity::kWarning ? "warning" : "info"));
    w.key("description");
    w.value(f.description);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  if (include_stage_metrics) {
    w.key("stage_metrics");
    metrics.write_json(w);
  }

  w.end_object();
}

void NodeRegistry::record(CalibrationReport report) {
  const std::scoped_lock lock(mutex_);
  reports_.insert_or_assign(report.claims.node_id, std::move(report));
}

const CalibrationReport* NodeRegistry::find(const std::string& node_id) const noexcept {
  const std::scoped_lock lock(mutex_);
  const auto it = reports_.find(node_id);
  return it == reports_.end() ? nullptr : &it->second;
}

std::vector<std::string> NodeRegistry::ranked_by_trust() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(reports_.size());
  for (const auto& [id, report] : reports_) ids.push_back(id);
  std::sort(ids.begin(), ids.end(), [&](const std::string& a, const std::string& b) {
    return reports_.at(a).trust.score > reports_.at(b).trust.score;
  });
  return ids;
}

std::vector<std::string> NodeRegistry::usable_for(double freq_hz,
                                                  std::optional<double> azimuth_deg) const {
  const auto cls = cellular::classify_frequency(freq_hz);
  const std::scoped_lock lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [id, report] : reports_) {
    bool band_ok = false;
    for (const auto& b : report.frequency_response.bands)
      if (b.band_class == cls && b.usable) band_ok = true;
    if (!band_ok) continue;
    if (azimuth_deg && !report.fov.open_sectors.contains(*azimuth_deg)) continue;
    out.push_back(id);
  }
  return out;
}

void NodeRegistry::for_each_report(
    const std::function<void(const CalibrationReport&)>& fn) const {
  const std::scoped_lock lock(mutex_);
  for (const auto& [id, report] : reports_) fn(report);
}

void NodeRegistry::for_each_report_mutable(
    const std::function<void(CalibrationReport&)>& fn) {
  const std::scoped_lock lock(mutex_);
  for (auto& [id, report] : reports_) fn(report);
}

std::size_t NodeRegistry::size() const noexcept {
  const std::scoped_lock lock(mutex_);
  return reports_.size();
}

}  // namespace speccal::calib
