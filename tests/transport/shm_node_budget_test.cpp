// The page budget of an shm node process (docs/PROTOCOL.md §11.1).
//
// A node process is a fresh fork with no page-table entries of its own, so
// every page it touches costs a fault.  On a recycled segment its key
// buffers come from its arena, whose pages sit in the page cache and are
// mapped by fault-around, and used log pages leave the process's page
// tables: a multi-page record's as soon as the sender has published it,
// consumed ones at the receiver's next pump, even while borrowed views of
// them are alive.  This suite pins both for a child's second sort on one
// segment:
//
//   - its minor faults stay well below one per page of its key working
//     set, which is what fresh heap pages would cost;
//   - its RssShmem after the sort, which received multi-MB records, stays
//     near its arena's share and does not grow with the traffic.
//
// Both bounds are counted in pages of the job's full-cube window (N*m
// keys): a node holds about six windows of keys at its peak and its rings
// carry about ten more.  Without the arena a node here takes 3,000+ minor
// faults; without the unmapping it keeps about 17 windows of segment pages.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "sort/sft.h"
#include "transport/process.h"
#include "transport/shm_segment.h"
#include "util/rng.h"

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

constexpr int kDim = 2;
constexpr std::uint32_t kBlock = 65536;  // windows of 2 MiB, as shm-bigblock

// What one node process measured around its node program.
struct NodeBudget {
  std::uint32_t node = 0;
  long minor_faults = -1;
  long rss_shmem_kb = -1;
};

long rss_shmem_kb() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);)
    if (line.rfind("RssShmem:", 0) == 0) return std::stol(line.substr(9));
  return -1;
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

// One fault-free S_FT sort on a (possibly recycled) segment, each forked
// node reporting its budget through `fd`.  True when every node finished.
bool sort_once(const std::vector<sim::Key>& input, int fd) {
  ShmSegment::Config cfg;
  cfg.dim = kDim;
  cfg.block = kBlock;
  cfg.recv_timeout_s = 10.0;
  cfg.run_deadline_s = 60.0;
  auto seg = ShmSegment::create(cfg);
  std::copy(input.begin(), input.end(), seg.input().begin());
  {
    ShmParent par(seg);
    par.spawn_fork([&](cube::NodeId p) {
      NodeBudget b;
      b.node = p;
      const long before = minor_faults();
      const int rc = sort::detail::run_sft_shm_node(seg, p);
      b.minor_faults = minor_faults() - before;
      b.rss_shmem_kb = rss_shmem_kb();
      if (write(fd, &b, sizeof b) != sizeof b) return 1;
      return rc;
    });
    par.await_all();
  }
  for (cube::NodeId p = 0; p < seg.num_nodes(); ++p)
    if (static_cast<SlotState>(seg.slot(p).state.load()) != SlotState::kDone)
      return false;
  return true;
}

std::vector<NodeBudget> drain(int fd, std::size_t n) {
  std::vector<NodeBudget> out(n);
  for (NodeBudget& b : out)
    if (read(fd, &b, sizeof b) != sizeof b) return {};
  return out;
}

TEST(ShmNodeBudget, SecondSortOnARecycledSegmentStaysWithinItsPages) {
  if (kSanitized) GTEST_SKIP() << "sanitizer shadow memory takes its own faults";
  const std::size_t n = std::size_t{1} << kDim;
  const std::uint64_t window_pages = n * kBlock * sizeof(sim::Key) / kPage;

  // Probe the kernel: without MADV_POPULATE_READ every page faults alone.
  {
    ShmSegment::Config cfg;
    cfg.dim = 1;
    cfg.block = 1;
    auto probe = ShmSegment::create(cfg);
    const auto page = reinterpret_cast<std::uintptr_t>(probe.input().data()) &
                      ~(kPage - 1);
    if (madvise(reinterpret_cast<void*>(page), kPage, MADV_POPULATE_READ) != 0 &&
        errno == EINVAL)
      GTEST_SKIP() << "kernel rejects MADV_POPULATE_READ (< 5.14)";
  }

  const auto input = util::random_keys(77, n * kBlock);
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  // The first sort maps a fresh segment; the second recycles it, with its
  // arena and ring pages already in the page cache.
  ASSERT_TRUE(sort_once(input, fds[1]));
  ASSERT_EQ(drain(fds[0], n).size(), n);
  ASSERT_TRUE(sort_once(input, fds[1]));
  const std::vector<NodeBudget> second = drain(fds[0], n);
  close(fds[0]);
  close(fds[1]);
  ASSERT_EQ(second.size(), n);

  for (const NodeBudget& b : second) {
    // Fresh heap pages would fault about once per page of the ~6 windows a
    // node holds (3,000+ faults here); arena extents map 16 pages per fault,
    // which leaves mostly the process's fixed costs: ~700 faults on a quiet
    // host, up to ~1,250 while other processes contend for the same pages.
    EXPECT_LE(static_cast<std::uint64_t>(b.minor_faults), 4 * window_pages)
        << "node " << b.node << " faulted " << b.minor_faults << " times";
    // The arena's ~6 windows, not the ~10 more its rings carried.
    ASSERT_GE(b.rss_shmem_kb, 0);
    const auto rss_pages =
        static_cast<std::uint64_t>(b.rss_shmem_kb) * 1024 / kPage;
    EXPECT_LE(rss_pages, 10 * window_pages)
        << "node " << b.node << " keeps " << rss_pages << " segment pages";
  }
}

}  // namespace
}  // namespace aoft::transport
