// Example: run the receiver as a dump1090-style feed.
//
// Surveys the simulated sky for a few seconds and emits every decoded
// frame in both interchange formats — raw AVR ("*8D...;") and SBS-1 /
// BaseStation CSV — exactly what downstream aggregators ingest from a real
// dump1090. Demonstrates the io layer and that the decoder state (resolved
// positions, callsigns) enriches the SBS stream. Finally replays its own
// AVR output through from_avr() to show loss-free round-tripping.
//
// Run: ./adsb_feed [seconds]   (default 3; a positive JSON number, anything
// else is a usage error)
#include <iostream>

#include "adsb/altitude.hpp"
#include "adsb/decoder.hpp"
#include "adsb/io.hpp"
#include "airtraffic/adsb_source.hpp"
#include "scenario/testbed.hpp"
#include "util/args.hpp"

using namespace speccal;

int main(int argc, char** argv) {
  double duration_s = 3.0;
  try {
    util::Args args(argc, argv);
    duration_s = args.number("seconds", duration_s);
    args.finish();
    if (duration_s <= 0.0)
      throw std::invalid_argument("seconds must be positive");
  } catch (const std::invalid_argument& e) {
    return util::usage_error("adsb_feed", e.what(), "[seconds]");
  }
  constexpr std::uint64_t kSeed = 23;

  const auto world = scenario::make_world(kSeed, 25);
  const auto setup = scenario::make_site(scenario::Site::kRooftop, kSeed);
  auto device = scenario::make_node(setup, world, kSeed);
  device->set_gain_mode(sdr::GainMode::kManual);
  device->set_gain_db(40.0);
  device->tune(adsb::kAdsbFreqHz, adsb::kPpmSampleRateHz);

  adsb::Decoder decoder;
  std::cout << "# AVR + SBS-1 feed, " << duration_s << " s of simulated sky\n";

  const auto chunk = static_cast<std::size_t>(adsb::kPpmSampleRateHz / 10);
  const auto chunks = static_cast<std::size_t>(duration_s * 10);
  for (std::size_t i = 0; i < chunks; ++i) {
    const double t = device->stream_time_s();
    const auto buf = device->capture(chunk);
    for (const auto& frame : decoder.feed(buf, t)) {
      const auto* track = decoder.find(frame.icao);
      std::cout << adsb::to_sbs(frame, track, t) << "\n";
    }
  }

  // Emit the raw frames of everything we still track as AVR, then replay.
  std::cout << "\n# AVR replay check\n";
  std::size_t replayed = 0;
  for (const auto& ac : decoder.aircraft()) {
    if (!ac.position) continue;
    const auto frame = adsb::build_position_frame(
        ac.icao, ac.position->lat_deg, ac.position->lon_deg,
        adsb::m_to_feet(ac.position->alt_m), false);
    const std::string line = adsb::to_avr(frame);
    const auto parsed = adsb::from_avr(line);
    if (parsed && std::holds_alternative<adsb::RawFrame>(*parsed) &&
        std::get<adsb::RawFrame>(*parsed) == frame)
      ++replayed;
    std::cout << line << "\n";
  }
  std::cout << "# " << replayed << " AVR lines round-tripped losslessly; "
            << decoder.aircraft().size() << " aircraft tracked, "
            << decoder.total_frames() << " frames decoded\n";
  return 0;
}
