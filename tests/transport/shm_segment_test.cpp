#include "transport/shm_segment.h"

#include <gtest/gtest.h>

#include <array>

#include <numeric>

#include "sort/fleet.h"
#include "transport/wire.h"

namespace aoft::transport {
namespace {

ShmSegment::Config small_cfg(int dim, std::uint64_t block) {
  ShmSegment::Config cfg;
  cfg.dim = dim;
  cfg.block = block;
  cfg.record_events = true;
  return cfg;
}

TEST(ShmSegment, CreatePopulatesHeaderAndRegions) {
  auto seg = ShmSegment::create(small_cfg(3, 4));
  const auto& hd = seg.header();
  EXPECT_EQ(seg.dim(), 3);
  EXPECT_EQ(seg.num_nodes(), 8u);
  EXPECT_EQ(hd.block, 4u);
  EXPECT_EQ(hd.version, kSegmentVersion);
  EXPECT_EQ(seg.input().size(), 32u);
  EXPECT_EQ(seg.llbs().size(), 32u);
  EXPECT_EQ(seg.output().size(), 32u);
  EXPECT_GT(hd.event_cap, 0u);
  EXPECT_EQ(seg.events(7).size(), hd.event_cap);
  // Regions ordered and within bounds.
  EXPECT_LT(hd.off_faults, hd.off_slots);
  EXPECT_LT(hd.off_slots, hd.off_events);
  EXPECT_LT(hd.off_events, hd.off_input);
  EXPECT_LT(hd.off_rings, hd.total_bytes);
}

TEST(ShmSegment, SlotsStartIdleAndKeyRegionsRoundTrip) {
  auto seg = ShmSegment::create(small_cfg(2, 2));
  for (cube::NodeId p = 0; p < seg.num_nodes(); ++p)
    EXPECT_EQ(static_cast<SlotState>(
                  seg.slot(p).state.load(std::memory_order_acquire)),
              SlotState::kIdle);
  auto in = seg.input();
  std::iota(in.begin(), in.end(), sim::Key{100});
  EXPECT_EQ(seg.input()[0], 100);
  EXPECT_EQ(seg.input()[7], 107);
  // Output is a distinct region.
  EXPECT_EQ(seg.output()[0], 0);
}

TEST(ShmSegment, RingsAreDistinctAndSizedForWholeRunTraffic) {
  auto seg = ShmSegment::create(small_cfg(3, 4));
  const char probe[] = "probe";
  ASSERT_TRUE(seg.link_ring(5, 1).try_push(
      std::array{ShmPiece{probe, sizeof probe}}));
  // Only (to=5, k=1) sees it; neighbours don't.
  EXPECT_TRUE(seg.link_ring(5, 0).empty());
  EXPECT_TRUE(seg.link_ring(5, 2).empty());
  EXPECT_TRUE(seg.link_ring(4, 1).empty());
  EXPECT_FALSE(seg.link_ring(5, 1).empty());
  EXPECT_TRUE(seg.up_ring(5).empty());
  EXPECT_TRUE(seg.down_ring(5).empty());

  // A directed link carries at most dim+1 full-size messages per run: the
  // ring must hold that many maximal records without ever rejecting.
  const auto& hd = seg.header();
  const std::uint64_t keys = seg.num_nodes() * hd.block;
  const std::uint64_t max_payload =
      sizeof(WireMsgHdr) + (2 * hd.block + keys) * sizeof(sim::Key);
  auto ring = seg.link_ring(0, 0);
  std::vector<unsigned char> rec(max_payload, 0x5A);
  for (int i = 0; i < seg.dim() + 1; ++i)
    ASSERT_TRUE(ring.try_push(std::array{ShmPiece{rec.data(), rec.size()}})) << "message " << i;
}

TEST(ShmSegment, AttachSeesCreatorWrites) {
  auto seg = ShmSegment::create(small_cfg(2, 1));
  seg.input()[3] = 42;
  seg.slot(1).state.store(static_cast<std::uint32_t>(SlotState::kRunning),
                          std::memory_order_release);
  auto other = ShmSegment::attach(seg.name());
  EXPECT_EQ(other.input()[3], 42);
  EXPECT_EQ(static_cast<SlotState>(
                other.slot(1).state.load(std::memory_order_acquire)),
            SlotState::kRunning);
  // And writes flow the other way through the same pages.
  other.output()[0] = 7;
  EXPECT_EQ(seg.output()[0], 7);
}

TEST(ShmSegment, AttachRejectsUnknownName) {
  EXPECT_THROW(ShmSegment::attach("/aoft-no-such-segment"),
               std::runtime_error);
}

TEST(ShmSegment, CreateRejectsOversizedCube) {
  ShmSegment::Config cfg;
  cfg.dim = kMaxProcessDim + 1;
  EXPECT_THROW(ShmSegment::create(cfg), std::invalid_argument);
}

TEST(ShmSegment, FaultScriptsRoundTripThroughWireForm) {
  auto seg = ShmSegment::create(small_cfg(3, 1));
  fault::NodeFaultMap faults;
  fault::NodeFault halt;
  halt.halt_at = fault::StagePoint{1, 0};
  halt.kill_process = true;
  faults[2] = halt;
  fault::NodeFault lie;
  lie.substitute_at = fault::StagePoint{2, 2};
  lie.substitute_value = -77;
  lie.silent_checker = true;
  faults[5] = lie;
  fault::NodeFault invert;
  invert.invert_direction_from = fault::StagePoint{0, 0};
  faults[7] = invert;

  const auto wire = sort::fleet::wire_faults_of(faults, seg.num_nodes());
  std::copy(wire.begin(), wire.end(), seg.faults().begin());
  const auto back = sort::fleet::faults_from_wire(seg.faults());
  ASSERT_EQ(back.size(), 3u);
  ASSERT_TRUE(back.at(2).halt_at.has_value());
  EXPECT_EQ(back.at(2).halt_at->stage, 1);
  EXPECT_EQ(back.at(2).halt_at->iter, 0);
  EXPECT_TRUE(back.at(2).kill_process);
  ASSERT_TRUE(back.at(5).substitute_at.has_value());
  EXPECT_EQ(back.at(5).substitute_value, -77);
  EXPECT_TRUE(back.at(5).silent_checker);
  ASSERT_TRUE(back.at(7).invert_direction_from.has_value());
  EXPECT_FALSE(back.at(7).kill_process);
}

TEST(WireMessage, EncodeDecodeRoundTrip) {
  sim::KeyPool pool;
  sim::Message m(pool);
  m.kind = sim::MsgKind::kDataLbs;
  m.from = 3;
  m.stage = 2;
  m.iter = 1;
  m.tag = 9;
  m.arrival = 12.5;
  m.data.assign({1, 2, 3});
  m.lbs.assign({-4, -5});

  std::vector<unsigned char> bytes;
  encode_message(m, m.lbs, bytes);
  sim::Message out(pool);
  ASSERT_TRUE(decode_message(bytes, pool, out));
  EXPECT_EQ(out.kind, sim::MsgKind::kDataLbs);
  EXPECT_EQ(out.from, 3u);
  EXPECT_EQ(out.stage, 2);
  EXPECT_EQ(out.iter, 1);
  EXPECT_EQ(out.tag, 9);
  EXPECT_EQ(out.arrival, 12.5);
  ASSERT_EQ(out.data.size(), 3u);
  EXPECT_EQ(out.data[2], 3);
  ASSERT_EQ(out.lbs.size(), 2u);
  EXPECT_EQ(out.lbs[1], -5);

  // Truncated or length-inconsistent records are rejected.
  std::vector<unsigned char> cut(bytes.begin(), bytes.end() - 1);
  sim::Message bad(pool);
  EXPECT_FALSE(decode_message(cut, pool, bad));
  EXPECT_FALSE(decode_message(std::span<const unsigned char>(bytes).first(10),
                              pool, bad));
}

}  // namespace
}  // namespace aoft::transport
