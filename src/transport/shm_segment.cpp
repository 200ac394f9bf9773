#include "transport/shm_segment.h"

#include "transport/wire.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <utility>

#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23  // Linux >= 5.14; older kernels return EINVAL
#endif

namespace aoft::transport {

namespace {

constexpr std::uint64_t kAlign = 64;

std::uint64_t align_up(std::uint64_t v) {
  return (v + kAlign - 1) & ~(kAlign - 1);
}

std::uint64_t next_pow2(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

std::uint64_t page_up(std::uint64_t v) {
  static const auto page = static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
  return (v + page - 1) / page * page;
}

// One node's key arena.  A fault-free S_FT node peaks at about six
// full-cube windows of N*m keys (a, lbs, llbs, the radix scratch and the
// messages in flight; measured at dims 1-4, docs/PROTOCOL.md §11.1), so
// eight windows plus 8m leave room for first-fit fragmentation and faulty
// runs.  Beyond it a node's pool falls back to the heap.
std::uint64_t arena_keys(std::uint64_t dim, std::uint64_t m) {
  const std::uint64_t window = (std::uint64_t{1} << dim) * m;
  return 8 * window + 8 * m;
}

// One ring's footprint: header plus power-of-two buffer.
std::uint64_t ring_footprint(std::uint64_t buf_bytes) {
  return sizeof(ShmRingHdr) + buf_bytes;
}

// One node's ring block: its dim inbound link rings, then its up ring, then
// its down ring.
std::uint64_t ring_block_bytes(const SegmentHeader& hd) {
  return hd.dim * ring_footprint(hd.link_ring_bytes) +
         ring_footprint(hd.up_ring_bytes) + ring_footprint(hd.down_ring_bytes);
}

// The one retired segment this process keeps for reuse (see the header).
struct Spare {
  std::mutex mu;
  unsigned char* base = nullptr;
  std::uint64_t size = 0;
  int fd = -1;
  pid_t creator = 0;
};

Spare& spare() {
  static Spare s;
  return s;
}

// The path an exec'd child opens to attach: the creator's memfd via /proc.
std::string proc_fd_path(pid_t pid, int fd) {
  return "/proc/" + std::to_string(pid) + "/fd/" + std::to_string(fd);
}

void unmap(unsigned char* base, std::uint64_t size, int fd) {
  if (base != nullptr) munmap(base, size);
  if (fd >= 0) close(fd);
}

}  // namespace

ShmSegment ShmSegment::create(const Config& cfg) {
  if (const std::string why = job_config_error(cfg); !why.empty())
    throw std::invalid_argument("shm: " + why);

  const std::uint64_t n = std::uint64_t{1} << cfg.dim;
  const std::uint64_t m = cfg.block;
  const std::uint64_t keys = n * m;

  SegmentHeader hd;
  static_cast<JobConfig&>(hd) = cfg;
  std::memcpy(hd.magic, kSegmentMagic, sizeof hd.magic);
  hd.version = kSegmentVersion;
  hd.host_pid = static_cast<std::int32_t>(getpid());
  hd.run_deadline_s = cfg.run_deadline_s;

  // Whole-run log capacities (see the header comment).  A directed node
  // link carries at most dim+1 messages, each up to a full-cube LBS slice
  // plus the exchange pair; the 2x factor absorbs adversarial growth.  A
  // log needs no power-of-two size; rounding up keeps the layout stable.
  const auto record = [](std::uint64_t keys_in_msg) {
    return ShmRing::footprint(sizeof(WireMsgHdr) +
                              keys_in_msg * sizeof(sim::Key));
  };
  const std::uint64_t msg_bytes = record(2 * m + keys);
  hd.link_ring_bytes = next_pow2(
      std::max<std::uint64_t>(4096, 2 * (cfg.dim + 2) * msg_bytes));
  // Up: dim checkpoint uploads (slice-sized), error reports, snr gathers.
  // Down: the one scatter or verdict a host program sends each node.
  const std::uint64_t up_bytes = record(keys + 2 * m + 1);
  hd.up_ring_bytes = next_pow2(
      std::max<std::uint64_t>(4096, 2 * (cfg.dim + 4) * up_bytes));
  hd.down_ring_bytes =
      next_pow2(std::max<std::uint64_t>(1024, record(m)));
  hd.event_cap =
      cfg.record_events
          ? 8 * static_cast<std::uint32_t>(cfg.dim * cfg.dim + 2 * cfg.dim + 8)
          : 0;

  hd.arena_bytes = page_up(arena_keys(cfg.dim, m) * sizeof(sim::Key));

  // Everything a job reads before writing it comes first, so a recycled
  // segment zeroes one prefix (see the header comment).
  std::uint64_t off = align_up(sizeof(SegmentHeader));
  hd.off_faults = off;
  off = align_up(off + n * sizeof(WireFault));
  hd.off_slots = off;
  off = align_up(off + n * sizeof(NodeSlot));
  hd.off_events = off;
  off = align_up(off + n * hd.event_cap * sizeof(WireLinkEvent));
  hd.off_output = off;
  off = align_up(off + keys * sizeof(sim::Key));
  hd.off_input = off;
  off = align_up(off + keys * sizeof(sim::Key));
  hd.off_llbs = off;
  off = align_up(off + keys * sizeof(sim::Key));
  hd.off_arenas = page_up(off);
  off = hd.off_arenas + n * hd.arena_bytes;
  hd.off_rings = off;
  off = align_up(off + n * ring_block_bytes(hd));
  hd.total_bytes = off;

  ShmSegment seg = take_spare(hd.total_bytes);
  if (seg.base_ == nullptr) {
    seg.fd_ = memfd_create("aoft-segment", MFD_CLOEXEC);
    if (seg.fd_ < 0) fail_errno("memfd_create");
    if (ftruncate(seg.fd_, static_cast<off_t>(hd.total_bytes)) != 0)
      fail_errno("ftruncate(segment)");
    void* base = mmap(nullptr, hd.total_bytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED, seg.fd_, 0);
    if (base == MAP_FAILED) fail_errno("mmap(segment)");
    seg.base_ = static_cast<unsigned char*>(base);
    seg.size_ = hd.total_bytes;
    seg.creator_ = getpid();
    seg.name_ = proc_fd_path(seg.creator_, seg.fd_);
    // A fresh memfd reads as zeros: the rings' and cursors' initial state.
  } else {
    // A recycled segment: the header, faults, slots, events and output
    // start over, as does every log header below.  The input (overwritten
    // whole by the creator), llbs (written whole before a resumed job reads
    // it), the arenas and the log buffers keep stale bytes no reader can
    // reach.
    std::memset(seg.base_, 0, hd.off_input);
  }

  // The header and the slot atomics get formal stores so no thread ever
  // reads an object that was never written.
  std::memcpy(seg.base_, &hd, sizeof hd);
  for (cube::NodeId p = 0; p < seg.num_nodes(); ++p) {
    seg.slot(p).state.store(static_cast<std::uint32_t>(SlotState::kIdle),
                            std::memory_order_relaxed);
    for (int k = 0; k < seg.dim(); ++k) seg.link_ring(p, k).reset();
    seg.up_ring(p).reset();
    seg.down_ring(p).reset();
  }
  return seg;
}

ShmSegment ShmSegment::attach(const std::string& name) {
  const int fd = open(name.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) fail_errno("open(" + name + ")");
  struct stat st{};
  if (fstat(fd, &st) != 0) {
    close(fd);
    fail_errno("fstat(" + name + ")");
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (size < sizeof(SegmentHeader)) {
    close(fd);
    throw std::runtime_error("segment " + name + " too small for a header");
  }
  void* base = mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  close(fd);
  if (base == MAP_FAILED) fail_errno("mmap(" + name + ")");

  ShmSegment seg;
  seg.name_ = name;
  seg.base_ = static_cast<unsigned char*>(base);
  seg.size_ = size;
  const auto& hd = seg.header();
  if (std::memcmp(hd.magic, kSegmentMagic, sizeof hd.magic) != 0 ||
      hd.version != kSegmentVersion || hd.total_bytes != size)
    throw std::runtime_error("segment " + name +
                             " has a foreign or corrupt header");
  if (const std::string why = job_config_error(hd); !why.empty())
    throw std::runtime_error("segment " + name + " carries a bad job: " + why);
  return seg;
}

ShmSegment::ShmSegment(ShmSegment&& o) noexcept
    : name_(std::move(o.name_)),
      base_(std::exchange(o.base_, nullptr)),
      size_(std::exchange(o.size_, 0)),
      fd_(std::exchange(o.fd_, -1)),
      creator_(std::exchange(o.creator_, 0)) {}

ShmSegment& ShmSegment::operator=(ShmSegment&& o) noexcept {
  if (this != &o) {
    this->~ShmSegment();
    new (this) ShmSegment(std::move(o));
  }
  return *this;
}

ShmSegment::~ShmSegment() {
  if (base_ != nullptr && creator_ == getpid()) {
    Spare& sp = spare();
    const std::lock_guard<std::mutex> lock(sp.mu);
    if (sp.base == nullptr) {
      sp.base = base_;
      sp.size = size_;
      sp.fd = fd_;
      sp.creator = creator_;
      return;
    }
  }
  unmap(base_, size_, fd_);
}

ShmSegment ShmSegment::take_spare(std::uint64_t total_bytes) {
  Spare& sp = spare();
  const std::lock_guard<std::mutex> lock(sp.mu);
  ShmSegment seg;
  // A spare inherited across fork() maps the parent's memory: never reuse
  // it, never unmap it on the parent's behalf.
  if (sp.base == nullptr || sp.creator != getpid()) return seg;
  if (sp.size == total_bytes) {
    seg.base_ = sp.base;
    seg.size_ = sp.size;
    seg.fd_ = sp.fd;
    seg.creator_ = sp.creator;
    seg.name_ = proc_fd_path(seg.creator_, seg.fd_);
  } else {
    unmap(sp.base, sp.size, sp.fd);
  }
  sp.base = nullptr;
  sp.fd = -1;
  return seg;
}

std::span<WireFault> ShmSegment::faults() {
  return {reinterpret_cast<WireFault*>(at(header().off_faults)), num_nodes()};
}

NodeSlot& ShmSegment::slot(cube::NodeId p) {
  return reinterpret_cast<NodeSlot*>(at(header().off_slots))[p];
}

std::span<WireLinkEvent> ShmSegment::events(cube::NodeId p) {
  const auto cap = header().event_cap;
  auto* base = reinterpret_cast<WireLinkEvent*>(at(header().off_events));
  return {base + static_cast<std::size_t>(p) * cap, cap};
}

std::span<sim::Key> ShmSegment::input() {
  const std::size_t keys = num_nodes() * header().block;
  return {reinterpret_cast<sim::Key*>(at(header().off_input)), keys};
}

std::span<sim::Key> ShmSegment::llbs() {
  const std::size_t keys = num_nodes() * header().block;
  return {reinterpret_cast<sim::Key*>(at(header().off_llbs)), keys};
}

std::span<std::byte> ShmSegment::arena(cube::NodeId p) {
  const auto& hd = header();
  return {reinterpret_cast<std::byte*>(at(hd.off_arenas + p * hd.arena_bytes)),
          hd.arena_bytes};
}

std::span<sim::Key> ShmSegment::output() {
  const std::size_t keys = num_nodes() * header().block;
  return {reinterpret_cast<sim::Key*>(at(header().off_output)), keys};
}

void ShmSegment::map_output(cube::NodeId p) {
  static const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto block = output().subspan(p * header().block, header().block);
  const auto at = [](const sim::Key* k) {
    return reinterpret_cast<std::uintptr_t>(k);
  };
  const auto lo = at(block.data()) & ~(page - 1);
  const auto hi = (at(block.data() + block.size()) + page - 1) & ~(page - 1);
  if (hi > lo)
    (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_POPULATE_WRITE);
}

ShmRing ShmSegment::ring_at(cube::NodeId p, std::uint64_t skip,
                            std::uint64_t bytes) {
  const std::uint64_t off =
      header().off_rings + p * ring_block_bytes(header()) + skip;
  return ShmRing(reinterpret_cast<ShmRingHdr*>(at(off)),
                 at(off + sizeof(ShmRingHdr)), bytes, /*shared=*/true);
}

ShmRing ShmSegment::link_ring(cube::NodeId to, int k) {
  const auto& hd = header();
  return ring_at(to, static_cast<std::uint64_t>(k) *
                         ring_footprint(hd.link_ring_bytes),
                 hd.link_ring_bytes);
}

ShmRing ShmSegment::up_ring(cube::NodeId p) {
  const auto& hd = header();
  return ring_at(p, hd.dim * ring_footprint(hd.link_ring_bytes),
                 hd.up_ring_bytes);
}

ShmRing ShmSegment::down_ring(cube::NodeId p) {
  const auto& hd = header();
  return ring_at(p,
                 hd.dim * ring_footprint(hd.link_ring_bytes) +
                     ring_footprint(hd.up_ring_bytes),
                 hd.down_ring_bytes);
}

}  // namespace aoft::transport
