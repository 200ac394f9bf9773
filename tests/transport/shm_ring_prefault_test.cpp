// The producer-side prefault of segment logs (shm_ring.h, PROTOCOL §11.1):
//
//   - a segment-backed log round-trips multi-page records byte for byte
//     wherever they fall: from a page boundary, from mid-page, ending
//     exactly at the buffer end, and at the one-page boundary of the
//     syscall's cutoff;
//   - a freshly forked child pushing a 1 MiB record into a recycled
//     segment's ring takes a handful of fault-around faults, not one per
//     4 KiB page.
//
// The heap-backed RingFixture tests (shm_ring_test.cpp) never prefault: on
// private anonymous memory a read fault maps the zero page.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <string>
#include <vector>

#include "transport/shm_segment.h"
#include "transport/shm_transport.h"
#include "transport/wire.h"

namespace aoft::transport {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

const std::uint64_t kPage = static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));

// A dim-1 segment of `block` keys per node.  Its link logs hold ~24 ×
// 8·block bytes: 256 KiB for 1,024 keys, 2 MiB for 8,192.
ShmSegment dim1_segment(std::uint32_t block) {
  ShmSegment::Config cfg;
  cfg.dim = 1;
  cfg.block = block;
  return ShmSegment::create(cfg);
}

std::vector<unsigned char> pattern(std::uint64_t len, unsigned seed) {
  std::vector<unsigned char> v(len);
  for (std::uint64_t i = 0; i < len; ++i)
    v[i] = static_cast<unsigned char>((i * 131 + seed * 7 + (i >> 12)) & 0xFF);
  return v;
}

// What ShmTransport::push_ring does: prefault, then gather the pieces.
bool push(ShmRing ring, const std::vector<unsigned char>& rec) {
  const std::uint64_t half = rec.size() / 2;
  ring.prefault(rec.size());
  return ring.try_push(
      {{rec.data(), half}, {rec.data() + half, rec.size() - half}});
}

std::vector<unsigned char> pop(ShmRing ring) {
  std::vector<unsigned char> out;
  EXPECT_TRUE(ring.try_pop([&](ShmRing::Record& rec) {
    out.resize(rec.size());
    EXPECT_TRUE(rec.read(out.data(), out.size()));
  }));
  return out;
}

// Push and pop filler records until the log's cursors reach `to` (an
// 8-aligned position at or past `at`).
void advance(ShmRing ring, std::uint64_t& at, std::uint64_t to,
             std::uint64_t cap) {
  while (at < to) {
    const std::uint64_t step = std::min(to - at, cap / 2);
    ASSERT_TRUE(push(ring, std::vector<unsigned char>(step - ShmRing::kPrefix,
                                                      0xEE)));
    ASSERT_EQ(pop(ring).size(), step - ShmRing::kPrefix);
    at += step;
  }
}

TEST(ShmRingPrefault, SegmentRingRoundTripsMultiPageRecords) {
  ShmSegment seg = dim1_segment(1024);
  const std::uint64_t cap = seg.header().link_ring_bytes;
  ASSERT_GE(cap, 32 * kPage);
  ShmRing ring = seg.link_ring(1, 0);

  // In log order: one job's records never wrap, so each shape starts past
  // the one before it.
  struct Shape {
    const char* what;
    std::uint64_t start;  // log offset of the record's length prefix
    std::uint64_t len;    // payload bytes
  };
  const Shape shapes[] = {
      {"page - 8 bytes (one page: no syscall)", 1000, kPage - 8},
      {"one page", 3 * kPage + 1000, kPage},
      {"page + 8 bytes", 6 * kPage + 1000, kPage + 8},
      {"three pages from a page boundary", 9 * kPage - ShmRing::kPrefix,
       3 * kPage},
      {"three pages from mid-page", 14 * kPage + kPage / 2, 3 * kPage},
      {"ends exactly at the buffer end", cap - 4 * kPage,
       4 * kPage - ShmRing::kPrefix},
  };
  std::uint64_t at = 0;
  unsigned seed = 1;
  for (const Shape& s : shapes) {
    advance(ring, at, s.start, cap);
    const auto rec = pattern(s.len, seed++);
    ASSERT_TRUE(push(ring, rec)) << s.what;
    EXPECT_EQ(pop(ring), rec) << s.what;
    EXPECT_TRUE(ring.empty()) << s.what;
    at += ShmRing::footprint(s.len);
  }
  EXPECT_EQ(at, cap);
  EXPECT_FALSE(push(ring, pattern(8, seed))) << "the log is full";
}

TEST(ShmRingPrefault, RecordBeyondTheFreeSpaceIsRejectedUntouched) {
  ShmSegment seg = dim1_segment(1024);
  const std::uint64_t cap = seg.header().link_ring_bytes;
  ShmRing ring = seg.link_ring(1, 0);
  const auto resident = pattern(cap / 2, 3);
  ASSERT_TRUE(push(ring, resident));
  EXPECT_FALSE(push(ring, pattern(cap / 2, 4)));  // would cross the end
  EXPECT_FALSE(push(ring, pattern(2 * cap, 5)));  // beyond the whole log
  EXPECT_EQ(pop(ring), resident);
  EXPECT_TRUE(ring.empty());
}

// Minor faults this process has taken so far.
long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

TEST(ShmRingPrefault, ForkedChildPushesAMegabyteWithoutAFaultPerPage) {
  if (kSanitized) GTEST_SKIP() << "sanitizer shadow memory takes its own faults";
  constexpr std::uint64_t kRecord = std::uint64_t{1} << 20;
  const std::uint64_t keys = (kRecord - sizeof(WireMsgHdr)) / sizeof(sim::Key);
  const std::uint64_t pages = (ShmRing::footprint(kRecord) + kPage - 1) / kPage;

  std::string name;
  {
    // Write the ring once, so the recycled segment's pages sit in the page
    // cache, as they do for every sort after a process's first.
    ShmSegment first = dim1_segment(8192);
    ASSERT_GE(first.header().link_ring_bytes, 2 * kRecord);
    name = first.name();
    ShmRing ring = first.link_ring(1, 0);
    ASSERT_TRUE(push(ring, std::vector<unsigned char>(kRecord, 0x5A)));
    pop(ring);
  }
  ShmSegment seg = dim1_segment(8192);
  ASSERT_EQ(seg.name(), name) << "the segment must be the recycled spare";

  const auto probe = reinterpret_cast<std::uintptr_t>(seg.input().data()) &
                     ~(kPage - 1);
  if (madvise(reinterpret_cast<void*>(probe), kPage, MADV_POPULATE_READ) != 0 &&
      errno == EINVAL)
    GTEST_SKIP() << "kernel rejects MADV_POPULATE_READ (< 5.14)";

  sim::KeyPool pool;
  sim::Message msg(pool);
  msg.kind = sim::MsgKind::kDataLbs;
  msg.from = 0;
  msg.data.resize(keys);
  for (std::uint64_t i = 0; i < keys; ++i)
    msg.data[i] = static_cast<sim::Key>(i * 2654435761u);

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    ShmTransport sender(seg, 0);
    const long before = minor_faults();
    sender.send_node(0, 1, msg, msg.lbs);
    const long faults = minor_faults() - before;
    const bool ok = sender.send_overflow() == 0 &&
                    write(fds[1], &faults, sizeof faults) == sizeof faults;
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  long faults = -1;
  const bool got = read(fds[0], &faults, sizeof faults) == sizeof faults;
  close(fds[0]);
  int st = 0;
  waitpid(pid, &st, 0);
  ASSERT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
  ASSERT_TRUE(got);
  EXPECT_LE(static_cast<std::uint64_t>(faults), pages / 4)
      << "the child faulted " << faults << " times writing " << pages
      << " pages";

  // The record arrives byte-exact.
  ShmTransport receiver(seg, 1);
  std::size_t delivered = 0;
  receiver.pump(pool, [&](bool, cube::NodeId from, sim::Message&& m) {
    ++delivered;
    EXPECT_EQ(from, 0u);
    EXPECT_EQ(m.data.size(), keys);
    EXPECT_TRUE(std::equal(m.data.begin(), m.data.end(), msg.data.begin(),
                           msg.data.end()));
  });
  EXPECT_EQ(delivered, 1u);
}

}  // namespace
}  // namespace aoft::transport
