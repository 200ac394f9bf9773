#include "transport/shm_ring.h"

#include <gtest/gtest.h>

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
  return ring.try_push({{data, len}});
}

struct RingFixture : ::testing::Test {
  static constexpr std::uint64_t kCap = 256;  // power of two
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
  // Draining one record makes room again.
  std::vector<unsigned char> out;
  ASSERT_TRUE(pop_bytes(ring, out));
  EXPECT_TRUE(push_bytes(ring, rec.data(), rec.size()));
}

TEST_F(RingFixture, WrapsAroundTheBufferEnd) {
  // Advance the cursors to just short of the boundary, then push a record
  // that must split across it.
  const std::vector<unsigned char> filler(100, 0x11);
  std::vector<unsigned char> out;
  ASSERT_TRUE(push_bytes(ring, filler.data(), filler.size()));
  ASSERT_TRUE(push_bytes(ring, filler.data(), filler.size()));
  ASSERT_TRUE(pop_bytes(ring, out));
  ASSERT_TRUE(pop_bytes(ring, out));  // cursors now at 224 of 256
  std::vector<unsigned char> rec(90);
  std::iota(rec.begin(), rec.end(), 0);
  ASSERT_TRUE(push_bytes(ring, rec.data(), rec.size()));
  ASSERT_TRUE(pop_bytes(ring, out));
  EXPECT_EQ(out, rec);
}

// A message-shaped record (40-byte header, data keys, lbs keys) pushed from
// three pieces and popped in place, at every 8-aligned start position: the
// wrap point falls inside the header, inside data and inside lbs in turn,
// and every 8-byte key still arrives whole and aligned.
TEST_F(RingFixture, GatherRecordStraddlesTheWrapInEachPiece) {
  unsigned char head[40];
  std::iota(std::begin(head), std::end(head), 100);
  std::vector<std::int64_t> data(5), lbs(4);
  std::iota(data.begin(), data.end(), -1000);
  std::iota(lbs.begin(), lbs.end(), 7000);
  const std::uint64_t data_bytes = data.size() * 8, lbs_bytes = lbs.size() * 8;
  const std::uint64_t len = sizeof head + data_bytes + lbs_bytes;

  bool wrapped_in[3] = {false, false, false};
  for (std::uint64_t start = 0; start < kCap; start += 8) {
    seek(3 * kCap + start);  // cursors well past 0, as in a long run
    ASSERT_TRUE(ring.try_push({{head, sizeof head},
                               {data.data(), data_bytes},
                               {lbs.data(), lbs_bytes}}));
    // Payload bytes before the wrap point, if it falls inside the payload.
    const std::uint64_t before = kCap - (start + ShmRing::kPrefix) % kCap;
    const std::uint64_t data_end = sizeof head + data_bytes;
    if (before < sizeof head) wrapped_in[0] = true;
    if (before > sizeof head && before < data_end) wrapped_in[1] = true;
    if (before > data_end && before < len) wrapped_in[2] = true;

    unsigned char got_head[40];
    std::vector<std::int64_t> got_data, got_lbs;
    const auto take_keys = [](ShmRing::Record& rec, std::size_t n,
                              std::vector<std::int64_t>& out) {
      return rec.take(n * 8, [&](const unsigned char* p, std::uint64_t bytes) {
        ASSERT_EQ(reinterpret_cast<std::uintptr_t>(p) % 8, 0u);
        ASSERT_EQ(bytes % 8, 0u);
        const auto* k = reinterpret_cast<const std::int64_t*>(p);
        out.insert(out.end(), k, k + bytes / 8);
      });
    };
    ASSERT_TRUE(ring.try_pop([&](ShmRing::Record& rec) {
      ASSERT_EQ(rec.size(), len);
      ASSERT_TRUE(rec.read(got_head, sizeof got_head));
      ASSERT_TRUE(take_keys(rec, data.size(), got_data));
      ASSERT_TRUE(take_keys(rec, lbs.size(), got_lbs));
      EXPECT_EQ(rec.remaining(), 0u);
      EXPECT_FALSE(rec.read(got_head, 1)) << "read past the record's end";
    }));
    EXPECT_EQ(std::memcmp(got_head, head, sizeof head), 0) << "start " << start;
    EXPECT_EQ(got_data, data) << "start " << start;
    EXPECT_EQ(got_lbs, lbs) << "start " << start;
    EXPECT_TRUE(ring.empty());
  }
  EXPECT_TRUE(wrapped_in[0]) << "no start split the header";
  EXPECT_TRUE(wrapped_in[1]) << "no start split data";
  EXPECT_TRUE(wrapped_in[2]) << "no start split lbs";
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
  constexpr std::uint64_t kCap = 1024;
  constexpr std::uint32_t kRecords = 200000;
  ShmRingHdr hdr;
  std::vector<unsigned char> buf(kCap);
  ShmRing producer(&hdr, buf.data(), kCap);
  ShmRing consumer(&hdr, buf.data(), kCap);
  producer.reset();

  std::thread prod([&] {
    for (std::uint32_t v = 0; v < kRecords;) {
      // A sequence-number piece plus a variable body piece: records of
      // every length mod 8 exercise the wrap at many alignments.
      unsigned char body[24];
      const std::uint32_t len = v % 24;
      for (std::uint32_t i = 0; i < len; ++i)
        body[i] = static_cast<unsigned char>(v + i);
      if (producer.try_push({{&v, sizeof v}, {body, len}})) ++v;
    }
  });

  for (std::uint32_t expect = 0; expect < kRecords;) {
    bool ok = true;
    const bool popped = consumer.try_pop([&](ShmRing::Record& rec) {
      std::uint32_t got = 0;
      ok = rec.size() == 4 + expect % 24 && rec.read(&got, sizeof got) &&
           got == expect;
      std::uint32_t i = 0;
      while (ok && rec.remaining() > 0) {
        unsigned char c = 0;
        ok = rec.read(&c, 1) && c == static_cast<unsigned char>(expect + i);
        ++i;
      }
    });
    if (!popped) continue;
    ASSERT_TRUE(ok) << "record " << expect;
    ++expect;
  }
  prod.join();
  EXPECT_TRUE(consumer.empty());
}

}  // namespace
}  // namespace aoft::transport
