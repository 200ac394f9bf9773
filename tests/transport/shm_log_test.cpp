// The per-job log discipline of segment rings (shm_ring.h, PROTOCOL §11.1):
//
//   - a send that would cross the end of its destination's log is refused
//     with the segment untouched, even though an empty log would have held
//     it, and counted as the sender's overflow;
//   - in a sort, that refusal surfaces as a kApp error naming the sender;
//   - the KeyBufs pump hands out are views over the log, and they stay
//     byte-identical while later records land behind them and while the
//     consumer drops its mapping of the pages it has consumed;
//   - a record with holes writes only its pieces, keeps a full record's
//     layout and footprint, and is refused past the end exactly as a full
//     one; a covered send arrives window-sized with every covered cell exact.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "hypercube/masks.h"
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

  sender.send_node(0, 1, first, first.lbs, std::nullopt);
  ASSERT_EQ(sender.send_overflow(), 0u);
  const std::vector<unsigned char> before = snapshot(seg);
  sender.send_node(0, 1, second, second.lbs, std::nullopt);
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
  sender.send_node(0, 1, a, a.lbs, std::nullopt);
  ASSERT_EQ(pump(), 1u);
  const sim::Message& view = held.front();
  ASSERT_EQ(view.data.capacity(), 0u) << "the view is not borrowed";
  const auto* at = reinterpret_cast<const unsigned char*>(view.data.data());
  EXPECT_TRUE(at >= lo && at < hi) << "the view is not in the segment";
  ASSERT_TRUE(view.data == a.data);

  // Later records land behind it; the next pump drops the pages this
  // process consumed before reading them, the one after that drops b's.
  for (int round = 0; round < 3; ++round) {
    sender.send_node(0, 1, b, b.lbs, std::nullopt);
    ASSERT_EQ(pump(), 1u);
    EXPECT_TRUE(view.data == a.data) << "round " << round;
    EXPECT_TRUE(view.lbs.empty());
    EXPECT_TRUE(held.back().data == b.data) << "round " << round;
    EXPECT_TRUE(held.back().lbs == b.lbs) << "round " << round;
  }
  EXPECT_EQ(sender.send_overflow(), 0u);
}

// A log over shared anonymous memory, which behaves as a segment's memfd
// does (prefault, unmap after publishing), laid out as the segment lays out
// each log: the cursors, then a page-aligned buffer.
struct SharedLog {
  static constexpr std::uint64_t kPage = 4096;
  std::uint64_t cap;
  unsigned char* base;

  explicit SharedLog(std::uint64_t capacity)
      : cap(capacity),
        base(static_cast<unsigned char*>(
            mmap(nullptr, kPage + capacity, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_ANONYMOUS, -1, 0))) {}
  ~SharedLog() { munmap(base, kPage + cap); }
  ShmRingHdr* hdr() { return reinterpret_cast<ShmRingHdr*>(base); }
  unsigned char* buf() { return base + kPage; }
  ShmRing ring() { return ShmRing(hdr(), buf(), cap, /*shared=*/true); }
};

TEST(ShmLog, RecordWithHolesWritesOnlyItsPiecesAndKeepsTheFullLayout) {
  ASSERT_EQ(sysconf(_SC_PAGESIZE), 4096);
  SharedLog log(64 * SharedLog::kPage);
  ASSERT_NE(log.base, MAP_FAILED);
  std::memset(log.buf(), 0xA5, log.cap);
  ShmRing ring = log.ring();
  ring.reset();

  // Written pieces between holes, multi-page ones included, so the push
  // prefaults and unmaps around the holes.
  const std::vector<unsigned char> head(40, 0x11);
  std::vector<unsigned char> cell(2 * SharedLog::kPage + 24);
  for (std::size_t k = 0; k < cell.size(); ++k)
    cell[k] = static_cast<unsigned char>(k * 7 + 3);
  const std::vector<unsigned char> tail(24, 0x22);
  const std::array pieces{
      ShmPiece{head.data(), head.size()},
      ShmPiece::hole(3 * SharedLog::kPage + 16),
      ShmPiece{cell.data(), cell.size()},
      ShmPiece::hole(104),
      ShmPiece{tail.data(), tail.size()},
      ShmPiece::hole(5000),
  };
  std::uint64_t len = 0;
  for (const ShmPiece& p : pieces) len += p.len;
  ASSERT_TRUE(ring.try_push(pieces));
  // The footprint of the same record without holes.
  EXPECT_EQ(log.hdr()->tail.load(), ShmRing::footprint(len));

  std::vector<unsigned char> got;
  ASSERT_TRUE(ring.try_pop([&](ShmRing::Record& rec) {
    got.resize(rec.size());
    ASSERT_TRUE(rec.read(got.data(), got.size()));
  }));
  ASSERT_EQ(got.size(), len);
  std::uint64_t at = 0;
  for (const ShmPiece& p : pieces) {
    const auto* want = static_cast<const unsigned char*>(p.data);
    for (std::uint64_t k = 0; k < p.len; ++k)
      ASSERT_EQ(got[at + k], want != nullptr ? want[k] : 0xA5)
          << (want != nullptr ? "piece" : "hole") << " byte " << at + k;
    at += p.len;
  }
  // The padding after the last hole is never written either.
  for (std::uint64_t k = len; k < ShmRing::footprint(len) - ShmRing::kPrefix;
       ++k)
    EXPECT_EQ(log.buf()[ShmRing::kPrefix + k], 0xA5) << "pad byte " << k;
}

TEST(ShmLog, RecordWithHolesIsRefusedUntouchedPastTheEnd) {
  SharedLog log(16 * SharedLog::kPage);
  ASSERT_NE(log.base, MAP_FAILED);
  std::memset(log.buf(), 0xA5, log.cap);
  ShmRing ring = log.ring();
  ring.reset();
  const std::vector<unsigned char> bytes(64, 0x11);
  const std::vector<unsigned char> before(log.buf(), log.buf() + log.cap);

  // Holes count toward the record's length: a hole past the log's end, or
  // past the u32 length field, refuses the push with nothing written.
  const std::array past_end{ShmPiece{bytes.data(), bytes.size()},
                            ShmPiece::hole(log.cap)};
  EXPECT_FALSE(ring.try_push(past_end));
  const std::array past_u32{ShmPiece{bytes.data(), bytes.size()},
                            ShmPiece::hole(std::uint64_t{UINT32_MAX})};
  EXPECT_FALSE(ring.try_push(past_u32));
  EXPECT_EQ(log.hdr()->tail.load(), 0u);
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(std::equal(before.begin(), before.end(), log.buf()));

  // Exactly the free space still fits.
  const std::array exact{ShmPiece{bytes.data(), bytes.size()},
                         ShmPiece::hole(log.cap - ShmRing::kPrefix - 64)};
  EXPECT_TRUE(ring.try_push(exact));
  EXPECT_EQ(log.hdr()->tail.load(), log.cap);
}

// Through the transport: a lent window with a cover arrives window-sized,
// each covered cell exact, whatever the holes hold.
TEST(ShmLog, CoveredSendDeliversTheWholeWindowWithEveryCoveredCellExact) {
  constexpr std::size_t kM = 1024;
  ShmSegment seg = ShmSegment::create(dim_block(3, kM));
  ShmTransport sender(seg, 0);
  ShmTransport receiver(seg, 1);
  sim::KeyPool pool;
  sim::Message msg = message(pool, kM, 1);
  std::vector<Key> window(8 * kM);
  for (std::size_t k = 0; k < window.size(); ++k)
    window[k] = static_cast<Key>(k * 2654435761u % 1000003);

  // Node 0's stage-2 gossip, before the iteration-0 exchange: pre_mask
  // covers labels 0, 2, 4 and 6 of the 8-cell window.
  const cube::MaskCover cover = cube::pre_cover(2, 0, 0);
  sender.send_node(0, 1, msg, window, cover);
  EXPECT_EQ(sender.send_overflow(), 0u);
  std::size_t delivered = 0;
  receiver.pump(pool, [&](bool, cube::NodeId from, sim::Message&& m) {
    ++delivered;
    EXPECT_EQ(from, 0u);
    EXPECT_TRUE(m.data == msg.data);
    ASSERT_EQ(m.lbs.size(), window.size());
    for (std::size_t cell = 0; cell < 8; ++cell) {
      if (cell % 2 != 0) continue;
      EXPECT_TRUE(std::equal(m.lbs.begin() + cell * kM,
                             m.lbs.begin() + (cell + 1) * kM,
                             window.begin() + cell * kM))
          << "covered cell " << cell;
    }
  });
  EXPECT_EQ(delivered, 1u);
}

}  // namespace
}  // namespace aoft::transport
