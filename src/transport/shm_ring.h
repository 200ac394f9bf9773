// Lock-free single-producer/single-consumer record log for shared memory.
//
// The in-process simulator already queues messages through util::Ring; this
// is the same idea flattened into a position-independent layout a segment
// can hold: a 128-byte header with the producer and consumer cursors on
// separate cache lines, followed by a byte buffer.  Records are
// length-prefixed (u32 length, u32 pad, then the payload padded to 8 bytes)
// and laid down back to back from offset 0, so every record starts
// 8-aligned and a payload whose pieces are multiples of 8 bytes keeps its
// 8-byte words aligned in place.
//
// The buffer is a per-job log, not a ring: both cursors restart at 0 when
// the segment is created (ShmSegment::create) and only grow, and a push that
// would cross the buffer's end is refused, untouched.  A segment sizes each
// log for its link's whole-run traffic twice over, so a refused push is a
// sizing bug, never backpressure: the sender counts it
// (ShmTransport::send_overflow) and the fleet reports it as the sender's
// loud kApp fail-stop.  In exchange every record is one contiguous span that
// no producer writes again within the job.  The data path copies each word
// once, on the producer side: try_push gathers the pieces straight into the
// log, and try_pop hands the consumer the record in place (Record::take),
// which ShmTransport::pump passes on as sim::KeyBufs borrowed over the log —
// the receiver reads the keys where the sender wrote them.
//
// A record may hold holes.  A piece with no data (ShmPiece::hole) takes its
// place in the record's layout, but try_push neither prefaults nor writes
// it, and its bytes are unspecified: stale bytes of an earlier job in a
// recycled segment, or zeroes.  ShmTransport leaves the cells of a lent LBS
// window outside its receiver's cover as holes (sim/remote.h), and the
// receiver never reads them; the record's length and layout are those of
// the full record either way.
//
// On segment memory try_push prefaults a multi-page record's written spans
// before it copies them.  A freshly forked or exec'd child starts with no
// page-table entries for the segment, so without it the copy would trap
// once per 4 KiB page it writes, even though a recycled segment's pages
// already sit in the page cache.  MADV_POPULATE_READ over a span's pages
// maps them in a few read faults instead: shmem's fault-around maps up to 16
// cached pages per fault, writable at once (shmem needs no dirty tracking),
// and the copy then runs fault-free.  It is a hint: kernels before 5.14
// reject it (EINVAL) and the copy faults page by page as before, with the
// same bytes.  Fault-around may also map up to 15 neighbouring pages beyond
// a span; they hold holes or stale bytes outside every published record,
// which no reader reads.  Private anonymous buffers are never prefaulted: a
// read fault there maps the zero page, and every later write would take a
// copy-on-write fault.
//
// Segment logs also leave the calling process's page tables once used
// (MADV_DONTNEED), so a child's resident set stops counting every record
// that ever passed through its logs.  The producer drops a multi-page
// record's interior pages as soon as it has published it.  The consumer
// drops whole consumed pages lazily, in unmap_consumed, which ShmTransport
// calls at the start of its next pump, when every local task is blocked.  A
// record handed out earlier may still be read through a live borrowed view
// then: on the MAP_SHARED memfd MADV_DONTNEED only drops this process's
// page-table entries, the bytes stay in the page cache, the peer's mapping
// is untouched, and the next read maps the page back.  Heap-backed logs must
// not unmap: on private anonymous memory MADV_DONTNEED discards the bytes.
//
// Exactly one process writes (the link's sender) and one reads (the
// receiver), which is all the sorting protocols need: every hypercube link
// is point-to-point and directed, and the host links are per-node.  The
// atomics are lock-free on every platform the cpp toolchain targets here, so
// they are address-free and safe across process boundaries (mmap'd MAP_SHARED).

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>

#include <sys/mman.h>
#include <unistd.h>

#ifndef MADV_POPULATE_READ
#define MADV_POPULATE_READ 22  // Linux >= 5.14; older kernels return EINVAL
#endif

namespace aoft::transport {

struct ShmRingHdr {
  alignas(64) std::atomic<std::uint64_t> tail;  // bytes ever written
  alignas(64) std::atomic<std::uint64_t> head;  // bytes ever read
};
static_assert(sizeof(ShmRingHdr) == 128, "cursor cache lines");
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "cross-process rings need address-free atomics");

// One contiguous piece of a gathered record, or a hole of `len` bytes that
// the push lays out but leaves unwritten (see the file comment).
struct ShmPiece {
  const void* data;
  std::uint64_t len;
  static ShmPiece hole(std::uint64_t len) { return {nullptr, len}; }
};

// Non-owning view over a (header, buffer) pair living in a shared segment,
// used as a per-job log (see the file comment).  The buffer must be
// 8-aligned and its capacity a multiple of 8.
class ShmRing {
 public:
  static constexpr std::uint64_t kPrefix = 8;  // u32 length + u32 pad

  // Log bytes one record of `len` payload bytes occupies.
  static constexpr std::uint64_t footprint(std::uint64_t len) {
    return kPrefix + ((len + 7) & ~std::uint64_t{7});
  }

  ShmRing() = default;
  // `shared`: the buffer is MAP_SHARED segment memory, whose records may be
  // unmapped once published or consumed (see the file comment).
  ShmRing(ShmRingHdr* hdr, unsigned char* buf, std::uint64_t capacity,
          bool shared = false)
      : hdr_(hdr), buf_(buf), cap_(capacity), shared_(shared) {}

  // Both cursors back to 0: an empty log, whatever its buffer holds.
  void reset() {
    hdr_->tail.store(0, std::memory_order_relaxed);
    hdr_->head.store(0, std::memory_order_relaxed);
  }

  bool empty() const {
    return hdr_->head.load(std::memory_order_acquire) ==
           hdr_->tail.load(std::memory_order_acquire);
  }

  // Producer side: lay `pieces` down back to back as one record, writing
  // every piece but the holes.  False, with the log untouched, when the
  // record would cross the buffer's end (or exceeds the u32 length field).
  bool try_push(std::span<const ShmPiece> pieces) {
    std::uint64_t len = 0;
    for (const ShmPiece& p : pieces) len += p.len;
    if (len > UINT32_MAX) return false;
    const std::uint64_t need = footprint(len);
    const std::uint64_t tail = hdr_->tail.load(std::memory_order_relaxed);
    if (need > cap_ - tail) return false;
    unsigned char* const rec = buf_ + tail;
    if (shared_ && need > page_bytes()) prefault(rec, pieces);
    const auto len32 = static_cast<std::uint32_t>(len);
    std::memcpy(rec, &len32, sizeof len32);
    unsigned char* at = rec + kPrefix;
    for (const ShmPiece& p : pieces) {
      if (p.data != nullptr && p.len > 0) std::memcpy(at, p.data, p.len);
      at += p.len;
    }
    hdr_->tail.store(tail + need, std::memory_order_release);
    if (shared_) drop(rec, need, /*min_bytes=*/2 * page_bytes());
    return true;
  }

  // The record try_pop hands its consumer: a read cursor over the payload,
  // which stays in the log, unchanged, for the rest of the job.
  class Record {
   public:
    std::uint64_t size() const { return len_; }
    std::uint64_t remaining() const { return len_ - off_; }

    // The next n payload bytes, in place; nullptr (nothing taken) when
    // fewer than n remain.
    const unsigned char* take(std::uint64_t n) {
      if (n > remaining()) return nullptr;
      const unsigned char* p = payload_ + off_;
      off_ += n;
      return p;
    }

    // Copy the next n payload bytes to `dst`; false (nothing copied) when
    // fewer than n remain.
    bool read(void* dst, std::uint64_t n) {
      const unsigned char* p = take(n);
      if (p == nullptr) return false;
      std::memcpy(dst, p, n);
      return true;
    }

   private:
    friend class ShmRing;
    Record(const unsigned char* payload, std::uint64_t len)
        : payload_(payload), len_(len) {}
    const unsigned char* payload_;
    std::uint64_t len_;
    std::uint64_t off_ = 0;
  };

  // Consumer side.  False when the log holds no unread record; otherwise
  // calls consume(Record&) on the next record in place, then moves the read
  // cursor past it.  Throws std::runtime_error("shm ring record corrupt")
  // when the length prefix claims more bytes than the producer published.
  template <class Fn>
  bool try_pop(Fn&& consume) {
    const std::uint64_t head = hdr_->head.load(std::memory_order_relaxed);
    const std::uint64_t tail = hdr_->tail.load(std::memory_order_acquire);
    if (tail == head) return false;
    std::uint32_t len = 0;
    std::memcpy(&len, buf_ + head, sizeof len);
    const std::uint64_t need = footprint(len);
    if (need > tail - head) throw std::runtime_error("shm ring record corrupt");
    Record rec(buf_ + head + kPrefix, len);
    consume(rec);
    hdr_->head.store(head + need, std::memory_order_release);
    return true;
  }

  // Consumer side, segment memory only (see the file comment): drop this
  // process's mapping of the whole pages between buffer offset `from` and
  // the read cursor, and return the offset to pass next time (start at 0).
  std::uint64_t unmap_consumed(std::uint64_t from) const {
    if (!shared_) return from;
    const std::uint64_t head = hdr_->head.load(std::memory_order_relaxed);
    const std::uint64_t dropped = drop(buf_ + from, head - from, page_bytes());
    return from + dropped;
  }

 private:
  static std::uint64_t page_bytes() {
    static const auto page = static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
    return page;
  }

  // MADV_POPULATE_READ over the pages that the record at `rec` writes: its
  // length prefix and every piece but the holes, one call per run of
  // adjacent pages.  Failure is ignored (see the file comment).
  static void prefault(unsigned char* rec, std::span<const ShmPiece> pieces) {
    const std::uint64_t page = page_bytes();
    const auto populate = [](std::uintptr_t lo, std::uintptr_t hi) {
      if (hi > lo)
        (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_POPULATE_READ);
    };
    auto at = reinterpret_cast<std::uintptr_t>(rec);
    std::uintptr_t lo = at & ~(page - 1), hi = lo;  // pages not yet populated
    const auto add = [&](std::uintptr_t from, std::uintptr_t to) {
      const std::uintptr_t first = from & ~(page - 1);
      if (first > hi) {
        populate(lo, hi);
        lo = first;
      }
      hi = std::max(hi, (to + page - 1) & ~(page - 1));
    };
    add(at, at + kPrefix);
    at += kPrefix;
    for (const ShmPiece& p : pieces) {
      if (p.data != nullptr && p.len > 0) add(at, at + p.len);
      at += p.len;
    }
    populate(lo, hi);
  }

  // MADV_DONTNEED over the whole pages inside [p, p + n) when n is at least
  // `min_bytes`; pages shared with the bytes around it stay mapped.
  // Returns how far past p the dropped span ends (0 when nothing dropped).
  static std::uint64_t drop(unsigned char* p, std::uint64_t n,
                            std::uint64_t min_bytes) {
    const std::uint64_t page = page_bytes();
    if (n < min_bytes) return 0;
    const auto at = reinterpret_cast<std::uintptr_t>(p);
    const auto lo = (at + page - 1) & ~(page - 1);
    const auto hi = (at + n) & ~(page - 1);
    if (hi <= lo) return 0;
    (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
    return hi - at;
  }

  ShmRingHdr* hdr_ = nullptr;
  unsigned char* buf_ = nullptr;
  std::uint64_t cap_ = 0;
  bool shared_ = false;
};

}  // namespace aoft::transport
