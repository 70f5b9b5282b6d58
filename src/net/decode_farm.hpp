// Backend decode farm: wire segments in, calibration reports out.
//
// The Electrosense+ backend in miniature. A pool of decode workers pulls
// segments off a SegmentQueue, validates and decodes them (strict parser,
// per-worker reusable buffers — the zero-alloc steady state), and
// reassembles each stream's captures in sequence order even though workers
// race on the queue. When the transport closes and every stream has been
// drained, the farm hands the completed streams (those that delivered
// their end-of-stream marker and have a registered manifest) to the
// ordinary fleet engine as replay jobs — the same stage-graph executor,
// retry machinery and registry as an in-process run, just fed from the
// wire. With float32 segments the resulting reports are bitwise-identical
// to the producer's own calibration (the round-trip gate in
// examples/decode_farm.cpp and CI).
//
// Node metadata travels out of band: the wire carries only stream_id, and
// register_node() binds that id to a NodeManifest (claims, device
// capabilities, site models). Segments for unregistered streams are
// counted and dropped — a real ingest tier would quarantine them.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "calib/ingest.hpp"
#include "net/queue.hpp"
#include "net/segment.hpp"

namespace speccal::net {

struct DecodeFarmConfig {
  /// Decode worker threads pulling from the queue (the calibration phase is
  /// parallelized separately, by RunConfig::executor.threads).
  unsigned decode_threads = 1;
  /// Segments larger than this are rejected before parsing (transport-level
  /// sanity bound; must hold at least an empty segment).
  std::size_t max_segment_bytes = kHeaderSize + kCrcSize + (std::size_t{1} << 27);

  /// Throws std::invalid_argument naming the field on out-of-range values
  /// (the shared config-validation convention, DESIGN.md §13).
  void validate() const;
};

/// Out-of-band description of one producer stream: everything the backend
/// needs to calibrate the node besides its samples. The models `rx` points
/// into must outlive the farm run.
struct NodeManifest {
  calib::NodeClaims claims;
  sdr::DeviceInfo info;
  geo::Geodetic position;
  std::optional<sdr::RxEnvironment> rx;
};

/// What one farm run did. Counters cover the decode phase; the fault tally
/// is the shared calib::FaultTally from the calibration phase (the same
/// struct FleetSummary carries — no third spelling).
struct DecodeFarmStats {
  std::uint64_t segments = 0;        // accepted wire segments
  std::uint64_t bytes = 0;           // wire bytes of accepted segments
  std::uint64_t captures = 0;        // captures reassembled
  std::uint64_t samples = 0;         // IQ samples decoded
  std::uint64_t decode_errors = 0;   // segments rejected by the parser
  std::uint64_t unknown_streams = 0; // segments for unregistered stream ids
  std::size_t nodes_ready = 0;       // streams that delivered end-of-stream
  std::size_t nodes_incomplete = 0;  // streams with data but no end-of-stream
  std::size_t nodes_calibrated = 0;  // reports recorded
  std::size_t nodes_failed = 0;      // aborted reports among those
  calib::FaultTally faults;
  double decode_wall_s = 0.0;        // queue open -> drained
  double wall_s = 0.0;               // run() total (decode + calibrate)
  double segments_per_s = 0.0;       // decode-phase throughput
  double mbytes_per_s = 0.0;
};

class DecodeFarm {
 public:
  /// `world` + `run` define the calibration the farm applies to every
  /// completed stream (RunConfig is validated here — throws
  /// std::invalid_argument naming the field).
  DecodeFarm(calib::WorldModel world, calib::RunConfig run,
             DecodeFarmConfig config = {});

  /// Bind `stream_id` to a node manifest. Call before run(); re-registering
  /// an id replaces its manifest.
  void register_node(std::uint32_t stream_id, NodeManifest manifest);

  /// Drain `queue` until it is closed and empty, then calibrate every
  /// completed stream into `registry`. Blocks; one run at a time per farm.
  DecodeFarmStats run(SegmentQueue& queue, calib::NodeRegistry& registry);

 private:
  struct StreamState;

  calib::WorldModel world_;
  calib::RunConfig run_;
  DecodeFarmConfig config_;
  std::map<std::uint32_t, NodeManifest> manifests_;
};

}  // namespace speccal::net
