#include "adsb/decoder.hpp"

#include <algorithm>
#include <cmath>

#include "adsb/altitude.hpp"
#include "obs/metrics.hpp"

namespace speccal::adsb {

namespace {

/// Even/odd messages further apart than this cannot be paired (DO-260
/// uses 10 s for airborne decoding).
constexpr double kCprPairMaxAgeS = 10.0;
/// Forget aircraft unseen for this long.
constexpr double kAircraftTimeoutS = 120.0;

}  // namespace

Decoder::Decoder(DecoderConfig config) : demod_(config.demod) {}

std::vector<Frame> Decoder::feed(std::span<const dsp::Sample> samples,
                                 double start_time_s) {
  static obs::Counter& decoded_metric =
      obs::Registry::global().counter("speccal_adsb_frames_decoded_total");
  static obs::Counter& repaired_metric =
      obs::Registry::global().counter("speccal_adsb_frames_crc_repaired_total");
  // Prepend the overlap tail so frames straddling block boundaries decode.
  dsp::Buffer work;
  double work_time = start_time_s;
  std::span<const dsp::Sample> view = samples;
  if (has_overlap_ && !overlap_.empty()) {
    work.reserve(overlap_.size() + samples.size());
    work.insert(work.end(), overlap_.begin(), overlap_.end());
    work.insert(work.end(), samples.begin(), samples.end());
    work_time = overlap_time_s_;
    view = work;
  }

  std::vector<Frame> decoded;
  for (const Detection& det : demod_.process(view)) {
    const double t = work_time + static_cast<double>(det.sample_index) / kPpmSampleRateHz;
    if (!det.long_frame()) {
      // DF11 acquisition squitter: identity only, but it keeps the track
      // alive and counts as a clean reception.
      const auto all_call = parse_all_call(det.short_frame());
      if (!all_call) continue;
      ++total_frames_;
      decoded_metric.add();
      Frame frame;
      frame.icao = all_call->icao;
      frame.capability = all_call->capability;
      ingest(frame, det, t);
      decoded.push_back(std::move(frame));
      continue;
    }
    auto frame = parse_frame(det.frame);
    if (!frame) continue;
    ++total_frames_;
    decoded_metric.add();
    if (det.repaired_bits > 0) {
      ++repaired_frames_;
      repaired_metric.add();
    }
    ingest(*frame, det, t);
    decoded.push_back(std::move(*frame));
  }

  // Keep the final (frame length - 1) samples for the next block.
  const std::size_t keep = std::min(view.size(), kFrameSamples - 1);
  overlap_.assign(view.end() - static_cast<std::ptrdiff_t>(keep), view.end());
  overlap_time_s_ =
      work_time + static_cast<double>(view.size() - keep) / kPpmSampleRateHz;
  has_overlap_ = true;
  return decoded;
}

void Decoder::ingest(const Frame& frame, const Detection& det, double time_s) {
  AircraftState& ac = table_[frame.icao];
  if (ac.message_count == 0) {
    ac.icao = frame.icao;
    ac.first_seen_s = time_s;
  }
  ++ac.message_count;
  if (det.repaired_bits == 0) ++ac.clean_message_count;
  ac.last_seen_s = time_s;
  ac.last_rssi_dbfs = det.rssi_dbfs;
  ac.max_rssi_dbfs = std::max(ac.max_rssi_dbfs, det.rssi_dbfs);

  if (const auto* pos = std::get_if<PositionPayload>(&frame.payload)) {
    ac.last_ac12 = pos->ac12;
    if (pos->cpr.odd) {
      ac.last_odd = pos->cpr;
      ac.last_odd_time_s = time_s;
    } else {
      ac.last_even = pos->cpr;
      ac.last_even_time_s = time_s;
    }
    // Global decode when we hold a fresh even/odd pair.
    if (ac.last_even && ac.last_odd &&
        std::fabs(ac.last_even_time_s - ac.last_odd_time_s) <=
            kCprPairMaxAgeS) {
      const bool recent_odd = ac.last_odd_time_s >= ac.last_even_time_s;
      if (auto fix = cpr_global_decode(*ac.last_even, *ac.last_odd, recent_odd)) {
        geo::Geodetic p{fix->lat_deg, fix->lon_deg, 0.0};
        if (auto alt_ft = decode_altitude_ft(pos->ac12))
          p.alt_m = feet_to_m(*alt_ft);
        ac.position = p;
        ++ac.position_count;
      }
    } else if (ac.position) {
      // Local decode keeps the track alive between pairs.
      const CprDecoded fix =
          cpr_local_decode(pos->cpr, ac.position->lat_deg, ac.position->lon_deg);
      ac.position->lat_deg = fix.lat_deg;
      ac.position->lon_deg = fix.lon_deg;
      if (auto alt_ft = decode_altitude_ft(pos->ac12))
        ac.position->alt_m = feet_to_m(*alt_ft);
      ++ac.position_count;
    }
  } else if (const auto* vel = std::get_if<VelocityPayload>(&frame.payload)) {
    ac.ground_speed_kt = vel->ground_speed_kt;
    ac.track_deg = vel->track_deg;
    ac.vertical_rate_fpm = vel->vertical_rate_fpm;
  } else if (const auto* ident = std::get_if<IdentPayload>(&frame.payload)) {
    ac.callsign = ident->callsign;
  }
}

std::vector<AircraftState> Decoder::aircraft() const {
  std::vector<AircraftState> out;
  out.reserve(table_.size());
  for (const auto& [icao, state] : table_) out.push_back(state);
  return out;
}

const AircraftState* Decoder::find(std::uint32_t icao) const noexcept {
  const auto it = table_.find(icao);
  return it == table_.end() ? nullptr : &it->second;
}

void Decoder::prune(double now_s) {
  std::erase_if(table_, [&](const auto& entry) {
    return now_s - entry.second.last_seen_s > kAircraftTimeoutS;
  });
}

void Decoder::reset() {
  table_.clear();
  overlap_.clear();
  has_overlap_ = false;
  overlap_time_s_ = 0.0;
  total_frames_ = 0;
  repaired_frames_ = 0;
}

}  // namespace speccal::adsb
