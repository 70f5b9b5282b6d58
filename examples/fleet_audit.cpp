// Example: audit a crowd-sourced fleet — the paper's end vision (§2):
// "node operators offer spectrum sensing as a service and users pay to
//  rent these services ... how can users trust the quality of data offered
//  by each operator?"
//
// Builds a fleet (default 20 nodes; --nodes=1000 for a scale run) with
// varied siting and varied honesty and pushes it through the stage-graph
// FleetCalibrator (serial fallback: threads=1).
// Each worker constructs its own seeded device, so the trust scores are
// bitwise-identical no matter how many threads run. Prints the marketplace
// view — trust ranking, verified capabilities, who can serve a concrete
// monitoring request — plus the fleet-wide stage-timing percentiles from
// the pipeline's instrumentation layer.
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <vector>

#include "calib/anomaly.hpp"
#include "calib/fleet.hpp"
#include "calib/health.hpp"
#include "obs/eventlog.hpp"
#include "scenario/adversary.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/testbed.hpp"
#include "sdr/fault.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace speccal;

namespace {

struct FleetEntry {
  std::string id;
  scenario::Site site;
  bool claims_outdoor;
  bool claims_omni;
  double claimed_max_ghz;
};

/// ~20 operators: honest rooftops, modest window sites, indoor nodes, and a
/// sprinkling of liars who oversell their siting or frequency range.
std::vector<FleetEntry> generate_fleet(std::size_t count) {
  const char* names[] = {"alice", "bob",  "carol", "dave", "erin",  "frank",
                         "grace", "henry", "iris",  "jack", "karen", "leo",
                         "mona",  "nick",  "olive", "pete", "quinn", "rosa",
                         "sam",   "tess",  "uma",   "vic"};
  std::vector<FleetEntry> fleet;
  for (std::size_t i = 0; i < count; ++i) {
    FleetEntry entry;
    const auto site = static_cast<scenario::Site>(i % 3);
    const bool liar = i % 4 == 3;  // every fourth operator oversells
    entry.site = site;
    entry.id = std::string(names[i % std::size(names)]) + "-" +
               scenario::site_name(site) + (liar ? "-liar" : "");
    // Beyond one pass over the names array the (name, site) pair repeats;
    // append the index so registry keys stay unique at 1000-node scale.
    if (i >= std::size(names)) entry.id += "-" + std::to_string(i);
    switch (site) {
      case scenario::Site::kRooftop:
        entry.claims_outdoor = true;
        entry.claims_omni = liar;  // rooftop is open west only
        entry.claimed_max_ghz = 6.0;
        break;
      case scenario::Site::kWindow:
        entry.claims_outdoor = liar;
        entry.claims_omni = liar;
        entry.claimed_max_ghz = liar ? 6.0 : 3.0;
        break;
      case scenario::Site::kIndoor:
        entry.claims_outdoor = liar;
        entry.claims_omni = liar;
        entry.claimed_max_ghz = liar ? 6.0 : 1.0;
        break;
    }
    fleet.push_back(std::move(entry));
  }
  return fleet;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::uint64_t kSeed = 13;
  // The largest counts a command line may ask for: the fleet vector and the
  // registry hold one entry per node, and the executor starts one thread
  // per --threads (up to the task count).
  constexpr std::size_t kMaxNodes = 10000;
  constexpr unsigned kMaxThreads = 256;

  // Fault profiles script a reproducible chaos run: built-ins "none",
  // "flaky20", "chaos", or an inline JSON document (sdr/fault.hpp). With a
  // profile active the retry/quarantine policy is enabled and the run
  // self-checks its quarantine count against the profile's expectation.
  // Anomaly profiles script RF-level adversaries onto victim nodes
  // (scenario/adversary.hpp): the run arms the pipeline's anomaly-scan
  // watchlist, evaluates the fleet-consensus detector
  // (calib/anomaly.hpp), prints the worst offenders, and self-checks that
  // every scripted node — and only those — was flagged. --anomaly-out
  // writes the findings JSON (and by itself arms detection on a clean
  // fleet, which must produce zero findings).
  // --health-out scores every node (calib/health.hpp), prints the worst-N
  // table and writes the health JSON; --events-out dumps the structured
  // event journal as JSON-lines. --metrics-out is also rewritten every 100
  // nodes, the mid-run snapshot of a long run.
  unsigned threads = 0;
  std::size_t fleet_size = 20;
  std::string metrics_out;
  std::string trace_out;
  std::string health_out;
  std::string events_out;
  std::string anomaly_out;
  sdr::FaultProfile fault_profile;
  scenario::AdversaryProfile anomaly_profile;
  bool anomaly_armed = false;
  // A malformed flag or profile, or a profile that does not fit the fleet,
  // is a usage error.
  try {
    util::Args args(argc, argv);
    threads = args.integer("--threads", threads, 0, kMaxThreads);
    fleet_size = args.integer("--nodes", fleet_size, 0, kMaxNodes);
    metrics_out = args.text("--metrics-out").value_or("");
    trace_out = args.text("--trace-out").value_or("");
    health_out = args.text("--health-out").value_or("");
    events_out = args.text("--events-out").value_or("");
    if (const auto out = args.text("--anomaly-out")) {
      anomaly_out = *out;
      anomaly_armed = true;
    }
    if (const auto profile = args.text("--anomaly-profile")) {
      anomaly_profile = scenario::make_adversary_profile(*profile);
      anomaly_armed = true;
    }
    if (const auto profile = args.text("--fault-profile"))
      fault_profile = sdr::make_fault_profile(*profile);
    args.finish();
    for (const auto& node : anomaly_profile.nodes)
      if (node.index >= fleet_size)
        throw std::invalid_argument(
            "anomaly profile scripts node index " + std::to_string(node.index) +
            " but the fleet has only " + std::to_string(fleet_size) +
            " node(s)");
  } catch (const std::invalid_argument& e) {
    return util::usage_error(
        "fleet_audit", e.what(),
        "[--threads=0.." + std::to_string(kMaxThreads) + "] [--nodes=0.." +
            std::to_string(kMaxNodes) +
            "] [--metrics-out=PATH] [--trace-out=PATH] "
            "[--fault-profile=<name|json>] [--anomaly-profile=<name|json>] "
            "[--anomaly-out=PATH] [--health-out=PATH] [--events-out=PATH]");
  }
  const bool chaos = !fault_profile.empty();

  // One trace session per audit run: every node becomes a nested span tree
  // (node -> stages) on its worker's track in chrome://tracing / Perfetto.
  std::optional<speccal::obs::TraceSession> trace;
  if (!trace_out.empty()) trace.emplace();

  const auto world = scenario::make_world(kSeed);
  const auto fleet = generate_fleet(fleet_size);

  calib::PipelineConfig cfg;
  cfg.survey.fidelity = calib::Fidelity::kLinkBudget;  // fleet-scale sweep
  if (anomaly_armed) {
    // Arm the anomaly-scan stage: every node captures the standard
    // watchlist (1090ES + the five downlink centres) after its normal
    // stages, giving the detector bands the model-level survey never
    // touches at RF.
    cfg.anomaly_scan.enabled = true;
    cfg.anomaly_scan.bands = scenario::standard_watchlist();
    std::cout << "Anomaly profile '" << anomaly_profile.name << "': "
              << anomaly_profile.nodes.size() << " scripted victim(s), "
              << cfg.anomaly_scan.bands.size() << " watch band(s)\n";
  }
  if (chaos) {
    cfg.retry.max_attempts = fault_profile.retry_max_attempts;
    cfg.retry.initial_backoff_s = fault_profile.initial_backoff_s;
    cfg.retry.stage_deadline_s = fault_profile.stage_deadline_s;
    cfg.retry.quarantine = true;
    std::cout << "Fault profile '" << fault_profile.name << "': "
              << fault_profile.nodes.size() << " scripted node(s), retry x"
              << cfg.retry.max_attempts << ", expected quarantines "
              << fault_profile.expected_quarantined_nodes << "\n";
  }

  calib::RunConfig run;
  run.pipeline = cfg;
  run.executor.threads = threads;
  run.executor.trace = trace ? &*trace : nullptr;
  calib::FleetConfig fleet_cfg;
  fleet_cfg.on_progress = [&metrics_out](const calib::FleetProgress& p) {
    // Per-node lines for small fleets; at 1000-node scale print a heartbeat
    // every 100 nodes (plus aborts/quarantines, which are always notable).
    const bool verbose = p.total <= 50;
    if (verbose || !p.ok || p.quarantined || p.completed % 100 == 0 ||
        p.completed == p.total)
      std::cout << "  [" << p.completed << "/" << p.total << "] " << p.node_id
                << (p.ok ? "" : "  (ABORTED)")
                << (p.quarantined ? "  (QUARANTINED)" : "") << "\n";
    // Heartbeat flush: a killed long run still leaves a current metrics
    // file behind. on_progress runs under the fleet's bookkeeping lock, so
    // the rewrite is serialized.
    if (!metrics_out.empty() && p.completed % 100 == 0 && p.completed < p.total) {
      std::ofstream os(metrics_out);
      if (os) obs::Registry::global().write_json(os);
    }
  };
  calib::FleetCalibrator calibrator(world, run, fleet_cfg);

  std::cout << "Calibrating a fleet of " << fleet.size() << " nodes on "
            << calibrator.effective_threads(fleet.size()) << " thread(s)...\n";

  std::vector<calib::FleetJob> jobs;
  for (std::size_t index = 0; index < fleet.size(); ++index) {
    const auto& entry = fleet[index];
    calib::FleetJob job;
    job.claims.node_id = entry.id;
    job.claims.min_freq_hz = 100e6;
    job.claims.max_freq_hz = entry.claimed_max_ghz * 1e9;
    job.claims.claims_outdoor = entry.claims_outdoor;
    job.claims.claims_omnidirectional = entry.claims_omni;
    // Each node's device is created on the worker that calibrates it, from
    // the shared scenario seed only — no shared mutable state. The anomaly
    // profile attaches scripted adversary RF sources to victim nodes'
    // front ends, then the fault profile wraps scripted nodes in a seeded
    // FaultInjectingDevice; unscripted nodes get the bare device
    // (bitwise-identical reports).
    job.make_device = [&world, &fault_profile, &anomaly_profile,
                       site = entry.site, index, id = entry.id]() {
      return fault_profile.wrap(
          scenario::make_owned_node(site, world, kSeed,
                                    anomaly_profile.sources_for(index)),
          index, id);
    };
    jobs.push_back(std::move(job));
  }

  calib::NodeRegistry registry;
  const calib::FleetSummary summary = calibrator.run(std::move(jobs), registry);

  std::cout << "\nBatch: " << summary.calibrated << "/" << summary.total
            << " calibrated (" << summary.failed << " aborted, "
            << summary.faults.quarantined << " quarantined, "
            << summary.faults.recovered << " recovered, " << summary.skipped << " skipped) in "
            << util::format_fixed(summary.wall_s, 2) << " s — "
            << util::format_fixed(summary.nodes_per_s, 2) << " nodes/s\n";

  util::Table table({"rank", "node", "trust", "verified siting", "FoV open %",
                     "violations"});
  constexpr std::size_t kMaxTrustRows = 25;
  const auto ranked = registry.ranked_by_trust();
  int rank = 1;
  for (const auto& id : ranked) {
    if (static_cast<std::size_t>(rank) > kMaxTrustRows) break;
    const auto* report = registry.find(id);
    table.add_row({std::to_string(rank++), id,
                   util::format_fixed(report->trust.score, 0),
                   calib::to_string(report->classification.type),
                   std::to_string(
                       static_cast<int>(report->fov.open_fraction_deg * 100.0)),
                   std::to_string(report->trust.violations())});
  }
  table.set_title(ranked.size() > kMaxTrustRows
                      ? "Marketplace trust ranking (top " +
                            std::to_string(kMaxTrustRows) + " of " +
                            std::to_string(ranked.size()) + ")"
                      : "Marketplace trust ranking");
  table.print(std::cout);

  util::Table stages({"stage", "nodes", "p50 ms", "p90 ms", "max ms",
                      "samples", "frames"});
  for (const auto& row : summary.stage_stats.rows)
    stages.add_row({calib::to_string(row.stage), std::to_string(row.nodes),
                    util::format_fixed(row.p50_ms, 2),
                    util::format_fixed(row.p90_ms, 2),
                    util::format_fixed(row.max_ms, 2),
                    std::to_string(row.samples_captured),
                    std::to_string(row.frames_decoded)});
  stages.set_title("Fleet-wide stage timing");
  stages.print(std::cout);

  const auto print_capped = [&](const std::vector<std::string>& ids) {
    constexpr std::size_t kMaxListed = 25;
    std::size_t shown = 0;
    for (const auto& id : ids) {
      if (shown++ == kMaxListed) {
        std::cout << "  ... and " << ids.size() - kMaxListed << " more\n";
        break;
      }
      std::cout << "  -> " << id << "\n";
    }
  };

  std::cout << "\nRequest: monitor 2145 MHz (AWS-1) toward azimuth 280\n";
  const auto capable = registry.usable_for(2145e6, 280.0);
  if (capable.empty()) {
    std::cout << "  no verified node can serve this request\n";
  } else {
    print_capped(capable);
  }

  std::cout << "\nRequest: monitor 550 MHz broadcast band (any direction)\n";
  print_capped(registry.usable_for(550e6, std::nullopt));

  if (fleet.size() <= 50) {
    std::cout << "\nViolation details for flagged operators:\n";
    registry.for_each_report([](const calib::CalibrationReport& report) {
      if (report.trust.violations() == 0) return;
      std::cout << "  " << report.claims.node_id << ":\n";
      for (const auto& f : report.trust.findings)
        if (f.severity == calib::Severity::kViolation)
          std::cout << "    - " << f.description << "\n";
    });
  }

  if (chaos) {
    std::cout << "\nFault records:\n";
    registry.for_each_report([](const calib::CalibrationReport& report) {
      for (const auto& fr : report.fault_records)
        std::cout << "  " << report.claims.node_id << ": stage "
                  << calib::to_string(fr.stage) << " -> "
                  << calib::to_string(fr.outcome) << " after " << fr.attempts
                  << " attempt(s)"
                  << (fr.last_error.empty() ? "" : " — " + fr.last_error)
                  << "\n";
    });
  }

  // Fleet health: fault history + consensus divergence folded into one
  // score per node, published as gauges (so --metrics-out carries them),
  // merged into flagged reports' findings, and rendered worst-first.
  if (!health_out.empty()) {
    const calib::HealthMonitor monitor;
    const calib::HealthReport health = monitor.evaluate(registry);
    monitor.publish(health, obs::Registry::global());
    monitor.annotate(registry, health);

    constexpr std::size_t kMaxHealthRows = 10;
    util::Table worst({"rank", "node", "score", "quarantined", "recovered",
                       "crc repair %", "divergence dB", "flag"});
    std::size_t shown = 0;
    for (const auto& n : health.nodes) {
      if (shown++ == kMaxHealthRows) break;
      worst.add_row({std::to_string(shown), n.node_id,
                     util::format_fixed(n.score, 1),
                     std::to_string(n.quarantined_stages),
                     std::to_string(n.recovered_stages),
                     util::format_fixed(n.crc_repair_rate * 100.0, 2),
                     util::format_fixed(n.divergence_db, 2),
                     n.unhealthy ? "UNHEALTHY" : "ok"});
    }
    worst.set_title(health.nodes.size() > kMaxHealthRows
                        ? "Fleet health, worst " +
                              std::to_string(kMaxHealthRows) + " of " +
                              std::to_string(health.nodes.size())
                        : "Fleet health (worst first)");
    std::cout << "\n";
    worst.print(std::cout);

    std::ofstream os(health_out);
    if (!os) {
      std::cerr << "fleet_audit: cannot write " << health_out << "\n";
      return 1;
    }
    health.write_json(os);
    std::cout << "Wrote health scores for " << health.nodes.size()
              << " node(s) to " << health_out << " ("
              << health.unhealthy_count << " unhealthy)\n";
  }

  // Fleet-consensus anomaly detection: every node's TV sweep + watchlist
  // against its neighbor-weighted consensus, typed findings merged into
  // flagged reports, speccal_anomaly_* published (so --metrics-out carries
  // them), worst offenders rendered.
  std::optional<calib::AnomalyReport> anomalies;
  if (anomaly_armed) {
    const calib::AnomalyDetector detector;
    anomalies = detector.evaluate(registry);
    detector.publish(*anomalies, obs::Registry::global());
    detector.annotate(registry, *anomalies);

    constexpr std::size_t kMaxAnomalyRows = 10;
    util::Table offenders(
        {"rank", "node", "kind", "bands", "residual dB", "rho"});
    std::size_t shown = 0;
    for (const auto& f : anomalies->findings) {
      if (shown++ == kMaxAnomalyRows) break;
      std::string bands;
      for (std::size_t b = 0; b < f.bands.size(); ++b)
        bands += (b == 0 ? "" : " ") + f.bands[b];
      offenders.add_row({std::to_string(shown), f.node_id,
                         calib::to_string(f.kind), bands,
                         util::format_fixed(f.worst_residual_db, 1),
                         util::format_fixed(f.max_rho, 2)});
    }
    offenders.set_title(
        anomalies->findings.size() > kMaxAnomalyRows
            ? "RF anomalies, worst " + std::to_string(kMaxAnomalyRows) +
                  " of " + std::to_string(anomalies->findings.size())
            : "RF anomalies (worst first)");
    std::cout << "\n";
    offenders.print(std::cout);
    std::cout << "Anomaly sweep: " << anomalies->flagged_nodes << "/"
              << anomalies->nodes_evaluated << " node(s) flagged over "
              << anomalies->bands_evaluated << " band(s)"
              << (anomalies->geo_weighted ? " (geo-weighted consensus)" : "")
              << "\n";

    if (!anomaly_out.empty()) {
      std::ofstream os(anomaly_out);
      if (!os) {
        std::cerr << "fleet_audit: cannot write " << anomaly_out << "\n";
        return 1;
      }
      anomalies->write_json(os);
      std::cout << "Wrote " << anomalies->findings.size()
                << " anomaly finding(s) to " << anomaly_out << "\n";
    }
  }

  if (trace) {
    std::ofstream os(trace_out);
    if (!os) {
      std::cerr << "fleet_audit: cannot write " << trace_out << "\n";
      return 1;
    }
    trace->write_chrome_trace(os);
    std::cout << "\nWrote " << trace->event_count() << " trace events to "
              << trace_out << " (load in chrome://tracing or ui.perfetto.dev)\n";
  }
  if (!events_out.empty()) {
    std::ofstream os(events_out);
    if (!os) {
      std::cerr << "fleet_audit: cannot write " << events_out << "\n";
      return 1;
    }
    const auto& journal = obs::EventLog::global();
    journal.write_jsonl(os);
    std::cout << "Wrote " << journal.size() << " journal event(s) to "
              << events_out
              << (journal.dropped() > 0
                      ? " (" + std::to_string(journal.dropped()) +
                            " dropped by the ring bound)"
                      : "")
              << "\n";
  }
  if (!metrics_out.empty()) {
    std::ofstream os(metrics_out);
    if (!os) {
      std::cerr << "fleet_audit: cannot write " << metrics_out << "\n";
      return 1;
    }
    obs::Registry::global().write_json(os);
    std::cout << "Wrote " << obs::Registry::global().size() << " metrics to "
              << metrics_out << "\n";
  }

  // Chaos self-check (after the metrics file is written, so a failing run
  // still leaves its evidence behind for CI to inspect).
  if (chaos) {
    if (summary.failed != 0) {
      std::cerr << "fleet_audit: chaos run aborted " << summary.failed
                << " node(s); quarantine should have contained them\n";
      return 3;
    }
    if (summary.faults.quarantined != fault_profile.expected_quarantined_nodes) {
      std::cerr << "fleet_audit: profile '" << fault_profile.name
                << "' expected " << fault_profile.expected_quarantined_nodes
                << " quarantined node(s), got " << summary.faults.quarantined << "\n";
      return 3;
    }
    std::cout << "\nChaos self-check OK: " << summary.faults.quarantined
              << " quarantined node(s) as scripted\n";
  }

  // Anomaly self-check (also after the metrics/findings files, so a failed
  // run leaves its evidence behind): every scripted victim must be flagged
  // (100% recall) and nothing else may be (zero false positives).
  if (anomalies) {
    std::set<std::string> expected;
    for (const auto& node : anomaly_profile.nodes)
      expected.insert(fleet[node.index].id);
    bool ok = true;
    for (const auto& id : expected)
      if (!anomalies->flagged(id)) {
        std::cerr << "fleet_audit: scripted victim " << id
                  << " was not flagged (missed detection)\n";
        ok = false;
      }
    for (const auto& f : anomalies->findings)
      if (expected.find(f.node_id) == expected.end()) {
        std::cerr << "fleet_audit: clean node " << f.node_id
                  << " was flagged as " << calib::to_string(f.kind)
                  << " (false positive)\n";
        ok = false;
      }
    if (!ok) return 4;
    std::cout << "Anomaly self-check OK: " << expected.size()
              << " scripted victim(s) flagged, no false positives\n";
  }
  return 0;
}
