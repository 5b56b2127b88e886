#include "simt/device.hpp"

#include <gtest/gtest.h>

namespace tcgpu::simt {
namespace {

TEST(Device, AllocReturnsZeroInitializedBuffer) {
  Device dev;
  auto buf = dev.alloc<std::uint32_t>(100);
  ASSERT_EQ(buf.size(), 100u);
  for (auto v : buf.host_span()) EXPECT_EQ(v, 0u);
}

TEST(Device, BasesAre128ByteAlignedAndDisjoint) {
  Device dev;
  auto a = dev.alloc<std::uint32_t>(3);   // 12 bytes, padded
  auto b = dev.alloc<std::uint64_t>(5);   // 40 bytes
  auto c = dev.alloc<std::uint8_t>(1);
  EXPECT_EQ(a.base_addr() % 128, 0u);
  EXPECT_EQ(b.base_addr() % 128, 0u);
  EXPECT_EQ(c.base_addr() % 128, 0u);
  // No two allocations may share a 32-byte sector.
  EXPECT_GE(b.base_addr(), a.base_addr() + 32);
  EXPECT_GE(c.base_addr(), b.base_addr() + 5 * 8 + 32 - 1);
}

TEST(Device, AddrOfScalesByElementSize) {
  Device dev;
  auto buf = dev.alloc<std::uint64_t>(4);
  EXPECT_EQ(buf.addr_of(0), buf.base_addr());
  EXPECT_EQ(buf.addr_of(3), buf.base_addr() + 24);
}

TEST(Device, HostWritesAreVisibleThroughView) {
  Device dev;
  auto buf = dev.alloc<std::uint32_t>(8);
  buf.host_span()[5] = 42;
  EXPECT_EQ(buf.host_data()[5], 42u);
}

TEST(Device, TracksBytesAllocated) {
  Device dev;
  dev.alloc<std::uint32_t>(100);
  dev.alloc<std::uint8_t>(7);
  EXPECT_EQ(dev.bytes_allocated(), 407u);
  EXPECT_EQ(dev.allocation_count(), 2u);
}

TEST(Device, ZeroSizedAllocationIsValid) {
  Device dev;
  auto buf = dev.alloc<std::uint32_t>(0);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
}

TEST(Device, AllocationsAreZeroInitialized) {
  Device dev;
  auto buf = dev.alloc<std::uint64_t>(257);
  for (const auto v : buf.host_span()) EXPECT_EQ(v, 0u);
}

}  // namespace
}  // namespace tcgpu::simt
