#include "transport/shm_ring.h"

#include <gtest/gtest.h>

#include <array>

#include <atomic>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

namespace aoft::transport {
namespace {

// Pop one record into a byte vector (false when the ring is empty).
bool pop_bytes(ShmRing& ring, std::vector<unsigned char>& out) {
  return ring.try_pop([&](ShmRing::Record& rec) {
    out.resize(rec.size());
    ASSERT_TRUE(rec.read(out.data(), out.size()));
    EXPECT_EQ(rec.remaining(), 0u);
  });
}

bool push_bytes(ShmRing& ring, const void* data, std::uint64_t len) {
  return ring.try_push(std::array{ShmPiece{data, len}});
}

struct RingFixture : ::testing::Test {
  static constexpr std::uint64_t kCap = 256;
  ShmRingHdr hdr;
  std::vector<unsigned char> buf = std::vector<unsigned char>(kCap);
  ShmRing ring{&hdr, buf.data(), kCap};

  void SetUp() override { ring.reset(); }

  // Move both cursors to `pos`, as if that many bytes had come and gone.
  void seek(std::uint64_t pos) {
    hdr.tail.store(pos);
    hdr.head.store(pos);
  }
};

TEST_F(RingFixture, StartsEmpty) {
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop([](ShmRing::Record&) { FAIL() << "no record"; }));
}

TEST_F(RingFixture, RoundTripsOneRecord) {
  const char payload[] = "hello rings";
  ASSERT_TRUE(push_bytes(ring, payload, sizeof payload));
  EXPECT_FALSE(ring.empty());
  std::vector<unsigned char> out;
  ASSERT_TRUE(pop_bytes(ring, out));
  ASSERT_EQ(out.size(), sizeof payload);
  EXPECT_EQ(std::memcmp(out.data(), payload, sizeof payload), 0);
  EXPECT_TRUE(ring.empty());
}

TEST_F(RingFixture, PreservesFifoOrder) {
  for (std::uint32_t v = 0; v < 10; ++v)
    ASSERT_TRUE(push_bytes(ring, &v, sizeof v));
  std::vector<unsigned char> out;
  for (std::uint32_t v = 0; v < 10; ++v) {
    ASSERT_TRUE(pop_bytes(ring, out));
    std::uint32_t got = 0;
    ASSERT_EQ(out.size(), sizeof got);
    std::memcpy(&got, out.data(), sizeof got);
    EXPECT_EQ(got, v);
  }
}

TEST_F(RingFixture, RejectsWhenFull) {
  // Each record costs 8 (length + pad) + 64 (60 padded to 8) bytes; three
  // fit in 256, a fourth not.
  const std::vector<unsigned char> rec(60, 0xAB);
  ASSERT_EQ(ShmRing::footprint(rec.size()), 72u);
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(push_bytes(ring, rec.data(), rec.size()));
  EXPECT_FALSE(push_bytes(ring, rec.data(), rec.size()));
  // A log reclaims nothing: draining a record leaves it full for the job.
  std::vector<unsigned char> out;
  ASSERT_TRUE(pop_bytes(ring, out));
  EXPECT_FALSE(push_bytes(ring, rec.data(), rec.size()));
  // The next job's reset starts it over.
  ring.reset();
  EXPECT_TRUE(push_bytes(ring, rec.data(), rec.size()));
}

TEST_F(RingFixture, RefusesARecordThatWouldCrossTheEnd) {
  // Two records consumed leave the cursors at 224 of 256: 32 bytes remain.
  const std::vector<unsigned char> filler(100, 0x11);
  std::vector<unsigned char> out;
  ASSERT_TRUE(push_bytes(ring, filler.data(), filler.size()));
  ASSERT_TRUE(push_bytes(ring, filler.data(), filler.size()));
  ASSERT_TRUE(pop_bytes(ring, out));
  ASSERT_TRUE(pop_bytes(ring, out));
  ASSERT_EQ(hdr.tail.load(), 224u);

  // A record that would have wrapped in a ring is refused, untouched.
  const std::vector<unsigned char> before = buf;
  std::vector<unsigned char> rec(90);
  std::iota(rec.begin(), rec.end(), 0);
  EXPECT_FALSE(push_bytes(ring, rec.data(), rec.size()));
  EXPECT_EQ(buf, before);
  EXPECT_EQ(hdr.tail.load(), 224u);
  EXPECT_TRUE(ring.empty());

  // One that ends exactly at the buffer end fits and round-trips.
  rec.resize(24);
  ASSERT_EQ(ShmRing::footprint(rec.size()), 32u);
  ASSERT_TRUE(push_bytes(ring, rec.data(), rec.size()));
  ASSERT_TRUE(pop_bytes(ring, out));
  EXPECT_EQ(out, rec);
  EXPECT_FALSE(push_bytes(ring, rec.data(), 1));
}

// A message-shaped record (40-byte header, data keys, lbs keys) pushed from
// three pieces and popped in place, at every 8-aligned start position where
// it fits: every piece arrives as one span inside the log itself, and every
// 8-byte key is whole and aligned there.
TEST_F(RingFixture, GatherRecordArrivesInPlaceAtEveryAlignedStart) {
  unsigned char head[40];
  std::iota(std::begin(head), std::end(head), 100);
  std::vector<std::int64_t> data(5), lbs(4);
  std::iota(data.begin(), data.end(), -1000);
  std::iota(lbs.begin(), lbs.end(), 7000);
  const std::uint64_t data_bytes = data.size() * 8, lbs_bytes = lbs.size() * 8;
  const std::uint64_t len = sizeof head + data_bytes + lbs_bytes;

  int starts = 0;
  for (std::uint64_t start = 0; start + ShmRing::footprint(len) <= kCap;
       start += 8, ++starts) {
    seek(start);
    ASSERT_TRUE(ring.try_push(std::array{ShmPiece{head, sizeof head},
                                          ShmPiece{data.data(), data_bytes},
                                          ShmPiece{lbs.data(), lbs_bytes}}));
    const auto in_place = [&](const unsigned char* p, std::uint64_t n) {
      return p == buf.data() + start + ShmRing::kPrefix + n;
    };
    ASSERT_TRUE(ring.try_pop([&](ShmRing::Record& rec) {
      ASSERT_EQ(rec.size(), len);
      unsigned char got_head[40];
      ASSERT_TRUE(rec.read(got_head, sizeof got_head));
      EXPECT_EQ(std::memcmp(got_head, head, sizeof head), 0);
      const unsigned char* d = rec.take(data_bytes);
      const unsigned char* l = rec.take(lbs_bytes);
      ASSERT_NE(d, nullptr);
      ASSERT_NE(l, nullptr);
      EXPECT_TRUE(in_place(d, sizeof head)) << "start " << start;
      EXPECT_TRUE(in_place(l, sizeof head + data_bytes)) << "start " << start;
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % 8, 0u);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(l) % 8, 0u);
      const auto* dk = reinterpret_cast<const std::int64_t*>(d);
      const auto* lk = reinterpret_cast<const std::int64_t*>(l);
      EXPECT_EQ(std::vector<std::int64_t>(dk, dk + data.size()), data);
      EXPECT_EQ(std::vector<std::int64_t>(lk, lk + lbs.size()), lbs);
      EXPECT_EQ(rec.remaining(), 0u);
      EXPECT_EQ(rec.take(1), nullptr) << "take past the record's end";
      EXPECT_FALSE(rec.read(got_head, 1)) << "read past the record's end";
    }));
    EXPECT_TRUE(ring.empty());
  }
  EXPECT_EQ(starts, 18);  // (256 - 120) / 8 + 1
}

TEST_F(RingFixture, CorruptLengthFieldThrows) {
  const std::uint64_t payload = 0x1234;
  ASSERT_TRUE(push_bytes(ring, &payload, sizeof payload));
  // A length prefix claiming more bytes than were ever published.
  const std::uint32_t bogus = 1000;
  std::memcpy(buf.data(), &bogus, sizeof bogus);
  try {
    ring.try_pop([](ShmRing::Record&) { FAIL() << "consumer must not run"; });
    FAIL() << "corrupt record popped";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "shm ring record corrupt");
  }
}

TEST(ShmRingStress, SpscThreadsSeeEveryRecordInOrder) {
  constexpr std::uint32_t kRecords = 200000;
  // A sequence-number piece plus a variable body piece: records of every
  // length mod 8.  The log holds the whole stream, as a segment's logs hold
  // a whole job's traffic.
  const auto body_len = [](std::uint32_t v) { return v % 24; };
  std::uint64_t cap = 0;
  for (std::uint32_t v = 0; v < kRecords; ++v)
    cap += ShmRing::footprint(4 + body_len(v));
  ShmRingHdr hdr;
  std::vector<unsigned char> buf(cap);
  ShmRing producer(&hdr, buf.data(), cap);
  ShmRing consumer(&hdr, buf.data(), cap);
  producer.reset();

  std::atomic<bool> refused{false};
  std::thread prod([&] {
    for (std::uint32_t v = 0; v < kRecords; ++v) {
      unsigned char body[24];
      const std::uint32_t len = body_len(v);
      for (std::uint32_t i = 0; i < len; ++i)
        body[i] = static_cast<unsigned char>(v + i);
      if (!producer.try_push(
              std::array{ShmPiece{&v, sizeof v}, ShmPiece{body, len}})) {
        refused = true;
        return;
      }
    }
  });

  for (std::uint32_t expect = 0; expect < kRecords;) {
    bool ok = true;
    const bool popped = consumer.try_pop([&](ShmRing::Record& rec) {
      std::uint32_t got = 0;
      ok = rec.size() == 4 + body_len(expect) && rec.read(&got, sizeof got) &&
           got == expect;
      std::uint32_t i = 0;
      while (ok && rec.remaining() > 0) {
        unsigned char c = 0;
        ok = rec.read(&c, 1) && c == static_cast<unsigned char>(expect + i);
        ++i;
      }
    });
    if (!popped) {
      if (refused) break;
      continue;
    }
    ASSERT_TRUE(ok) << "record " << expect;
    ++expect;
  }
  prod.join();
  EXPECT_FALSE(refused) << "the log refused a record it was sized for";
  EXPECT_TRUE(consumer.empty());
  EXPECT_EQ(hdr.tail.load(), cap) << "the stream fills the log exactly";
}

}  // namespace
}  // namespace aoft::transport
