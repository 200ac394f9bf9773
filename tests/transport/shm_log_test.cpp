// The per-job log discipline of segment rings (shm_ring.h, PROTOCOL §11.1):
//
//   - a send that would cross the end of its destination's log is refused
//     with the segment untouched, even though an empty log would have held
//     it, and counted as the sender's overflow;
//   - in a sort, that refusal surfaces as a kApp error naming the sender;
//   - the KeyBufs pump hands out are views over the log, and they stay
//     byte-identical while later records land behind them and while the
//     consumer drops its mapping of the pages it has consumed.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sort/sft.h"
#include "transport/shm_segment.h"
#include "transport/shm_transport.h"
#include "transport/wire.h"
#include "util/rng.h"

namespace aoft::transport {
namespace {

using sim::Key;

ShmSegment::Config dim_block(std::uint32_t dim, std::uint32_t block) {
  ShmSegment::Config cfg;
  cfg.dim = dim;
  cfg.block = block;
  return cfg;
}

// Log bytes one message of `keys` keys occupies.
std::uint64_t record_bytes(std::uint64_t keys) {
  return ShmRing::footprint(sizeof(WireMsgHdr) + keys * sizeof(Key));
}

// A node-0 message whose data carries `keys` keys derived from `seed`.
sim::Message message(sim::KeyPool& pool, std::size_t keys, Key seed) {
  sim::Message m(pool);
  m.kind = sim::MsgKind::kDataLbs;
  m.from = 0;
  m.data.resize(keys);
  for (std::size_t i = 0; i < keys; ++i)
    m.data[i] = seed * 1000003 + static_cast<Key>(i * 2654435761u % 100003);
  return m;
}

// Every byte of the segment, which holds each log and its cursors.
std::vector<unsigned char> snapshot(ShmSegment& seg) {
  const auto* base = reinterpret_cast<const unsigned char*>(&seg.header());
  return {base, base + seg.header().total_bytes};
}

TEST(ShmLog, SendThatWouldCrossTheEndIsRefusedUntouchedAndCounted) {
  ShmSegment seg = ShmSegment::create(dim_block(1, 1024));
  const std::uint64_t cap = seg.header().link_ring_bytes;
  ShmTransport sender(seg, 0);
  ShmTransport receiver(seg, 1);
  sim::KeyPool pool;

  // Three quarters of the log, then a message an empty log would hold but
  // the quarter that is left would not.
  const std::size_t first_keys = 3 * cap / 4 / sizeof(Key);
  const std::size_t second_keys = cap / 2 / sizeof(Key);
  ASSERT_LE(record_bytes(second_keys), cap);
  ASSERT_GT(record_bytes(first_keys) + record_bytes(second_keys), cap);
  const sim::Message first = message(pool, first_keys, 1);
  const sim::Message second = message(pool, second_keys, 2);

  sender.send_node(0, 1, first, first.lbs);
  ASSERT_EQ(sender.send_overflow(), 0u);
  const std::vector<unsigned char> before = snapshot(seg);
  sender.send_node(0, 1, second, second.lbs);
  EXPECT_EQ(sender.send_overflow(), 1u);
  EXPECT_TRUE(snapshot(seg) == before) << "a refused send wrote the segment";

  // The record before it arrives intact, and nothing after it.
  std::vector<std::size_t> got;
  receiver.pump(pool, [&](bool, cube::NodeId, sim::Message&& m) {
    got.push_back(m.data.size());
    EXPECT_TRUE(m.data == first.data);
  });
  EXPECT_EQ(got, std::vector<std::size_t>{first_keys});
}

// Inflates the victim's `nth` message across dimension 0 so that, on top of
// the ones before it, it would cross the end of the receiver's link log,
// though an empty log would hold it.
struct CrossTheEnd final : sim::LinkInterceptor {
  cube::NodeId victim = 0;
  int nth = 2;
  std::uint64_t cap = 0;
  std::uint64_t used = 0;  // log bytes of the victim's earlier messages
  int seen = 0;
  bool on_send(cube::NodeId from, cube::NodeId to, sim::Message& m) override {
    if (from != victim || to != (victim ^ 1)) return true;
    if (++seen == nth) {
      const std::uint64_t over = cap - used + 8;  // 8 bytes past the end
      const std::uint64_t keys =
          (over - ShmRing::kPrefix - sizeof(WireMsgHdr)) / sizeof(Key);
      m.lbs.assign(keys - m.data.size(), 0);
      return true;
    }
    used += record_bytes(m.words());
    return true;
  }
};

TEST(ShmLog, CrossingTheEndFailStopsTheSortNamingTheSender) {
  constexpr int kDim = 2;
  sort::SftOptions opts;
  opts.block = 64;
  opts.backend = Backend::kShm;
  opts.shm.recv_timeout_s = 0.5;  // the refused message's receiver times out
  opts.shm.run_deadline_s = 60.0;
  CrossTheEnd cross;
  cross.victim = 2;  // its dimension-0 link carries three messages
  cross.cap =
      ShmSegment::create(dim_block(kDim, 64)).header().link_ring_bytes;
  opts.interceptor = &cross;
  const auto input = util::random_keys(9, (std::size_t{1} << kDim) * opts.block);
  const sort::SortRun run = sort::run_sft(kDim, input, opts);
  ASSERT_TRUE(run.fail_stop());
  bool reported = false;
  for (const auto& e : run.errors)
    reported = reported || (e.node == cross.victim &&
                            e.source == sim::ErrorSource::kApp &&
                            e.detail.find("full shm ring") != std::string::npos);
  EXPECT_TRUE(reported) << "the refusal must surface as node " << cross.victim
                        << "'s kApp error";
}

TEST(ShmLog, ViewHandedOutByPumpStaysByteIdenticalAfterLaterPushes) {
  ShmSegment seg = ShmSegment::create(dim_block(1, 1024));
  ShmTransport sender(seg, 0);
  ShmTransport receiver(seg, 1);
  sim::KeyPool pool;
  const auto* lo = reinterpret_cast<const unsigned char*>(&seg.header());
  const auto* hi = lo + seg.header().total_bytes;

  // Multi-page records, so both sides unmap pages behind the view.
  constexpr std::size_t kKeys = 2048;
  std::vector<sim::Message> held;
  held.reserve(8);  // `view` below must stay put
  const auto pump = [&] {
    return receiver.pump(pool, [&](bool, cube::NodeId, sim::Message&& m) {
      held.push_back(std::move(m));
    });
  };
  const sim::Message a = message(pool, kKeys, 1);
  sim::Message b = message(pool, kKeys, 2);
  b.lbs.assign(kKeys, -5);
  sender.send_node(0, 1, a, a.lbs);
  ASSERT_EQ(pump(), 1u);
  const sim::Message& view = held.front();
  ASSERT_EQ(view.data.capacity(), 0u) << "the view is not borrowed";
  const auto* at = reinterpret_cast<const unsigned char*>(view.data.data());
  EXPECT_TRUE(at >= lo && at < hi) << "the view is not in the segment";
  ASSERT_TRUE(view.data == a.data);

  // Later records land behind it; the next pump drops the pages this
  // process consumed before reading them, the one after that drops b's.
  for (int round = 0; round < 3; ++round) {
    sender.send_node(0, 1, b, b.lbs);
    ASSERT_EQ(pump(), 1u);
    EXPECT_TRUE(view.data == a.data) << "round " << round;
    EXPECT_TRUE(view.lbs.empty());
    EXPECT_TRUE(held.back().data == b.data) << "round " << round;
    EXPECT_TRUE(held.back().lbs == b.lbs) << "round " << round;
  }
  EXPECT_EQ(sender.send_overflow(), 0u);
}

}  // namespace
}  // namespace aoft::transport
