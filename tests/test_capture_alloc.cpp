// Heap-allocation budget of the capture path. This binary replaces the
// global operator new and delete to count every allocation, which is why it
// is a test executable of its own.
//
// A capture through the fleet's decorator stack (FaultInjectingDevice over
// make_owned_node) writes straight into the caller's buffer, and a TV sweep
// captures every channel into one buffer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "scenario/testbed.hpp"
#include "sdr/fault.hpp"
#include "tv/power_meter.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_bytes{0};

void* counted(std::size_t size, std::size_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void* counted_or_throw(std::size_t size, std::size_t align) {
  if (void* p = counted(size, align)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable form, so that no allocation bypasses the count and every
// pointer is released by the matching allocator (ASan checks the pairing).
void* operator new(std::size_t n) { return counted_or_throw(n, 0); }
void* operator new[](std::size_t n) { return counted_or_throw(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted(n, 0); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted(n, 0); }
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sc = speccal::scenario;
namespace sdr = speccal::sdr;
namespace dsp = speccal::dsp;
namespace tv = speccal::tv;

constexpr std::uint64_t kSeed = 13;

TEST(CaptureAlloc, SteadyStateCaptureIntoThroughDecoratorsAllocatesNothing) {
  const auto world = sc::make_world(kSeed);
  sdr::FaultInjectingDevice dev(
      sc::make_owned_node(sc::Site::kRooftop, world, kSeed), {}, 1);
  dev.set_gain_db(20.0);
  ASSERT_TRUE(dev.tune(545e6, 8e6));
  dsp::Buffer buf(160'000);
  dev.capture_into(buf);  // warm-up: the sources size their render scratch

  const std::size_t allocations = g_allocations, bytes = g_bytes;
  for (int i = 0; i < 8; ++i) dev.capture_into(buf);
  const std::size_t spent_allocations = g_allocations - allocations;
  const std::size_t spent_bytes = g_bytes - bytes;
  EXPECT_EQ(spent_allocations, 0u) << spent_bytes << " bytes";
}

TEST(CaptureAlloc, TvSweepCapturesIntoOneBuffer) {
  const auto world = sc::make_world(kSeed);
  auto node = sc::make_owned_node(sc::Site::kRooftop, world, kSeed);
  const auto channels = sc::figure4_channels();
  (void)tv::PowerMeter().sweep(*node, channels);  // warm the node and plan cache

  const std::size_t allocations = g_allocations, bytes = g_bytes;
  (void)tv::PowerMeter().sweep(*node, channels);
  const std::size_t spent_allocations = g_allocations - allocations;
  const std::size_t spent_bytes = g_bytes - bytes;
  const auto capture_bytes =
      static_cast<std::size_t>(tv::kMeterCaptureDurationS * tv::kMeterSampleRateHz) *
      sizeof(dsp::Sample);
  EXPECT_LT(spent_bytes, 2 * capture_bytes) << spent_allocations << " allocations";
}
