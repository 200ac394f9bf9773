// Lock-free single-producer/single-consumer byte ring for shared memory.
//
// The in-process simulator already queues messages through util::Ring; this
// is the same idea flattened into a position-independent layout a segment
// can hold: a 128-byte header with the producer and consumer cursors on
// separate cache lines, followed by a power-of-two byte buffer.  Records are
// length-prefixed (u32 length, u32 pad, then the payload padded to 8 bytes);
// cursors grow monotonically and are reduced modulo the capacity on access,
// so full/empty never alias.  Every record starts 8-aligned, so a payload
// whose pieces are multiples of 8 bytes keeps 8-byte words whole across the
// wrap point and aligned in place.
//
// The data path copies each record exactly once per side: try_push gathers
// the pieces straight into the ring, and try_pop hands the consumer the
// record in place (Record::read/take) before releasing its bytes.
//
// Exactly one process writes (the link's sender) and one reads (the
// receiver), which is all the sorting protocols need: every hypercube link
// is point-to-point and directed, and the host links are per-node.  The
// atomics are lock-free on every platform the cpp toolchain targets here, so
// they are address-free and safe across process boundaries (mmap'd MAP_SHARED).

#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <stdexcept>

namespace aoft::transport {

struct ShmRingHdr {
  alignas(64) std::atomic<std::uint64_t> tail;  // bytes ever written
  alignas(64) std::atomic<std::uint64_t> head;  // bytes ever read
};
static_assert(sizeof(ShmRingHdr) == 128, "cursor cache lines");
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "cross-process rings need address-free atomics");

// One contiguous piece of a gathered record.
struct ShmPiece {
  const void* data;
  std::uint64_t len;
};

// Non-owning view over a (header, buffer) pair living in a shared segment.
// The buffer must be 8-aligned and its capacity a power of two >= 8.
class ShmRing {
 public:
  static constexpr std::uint64_t kPrefix = 8;  // u32 length + u32 pad

  // Ring bytes one record of `len` payload bytes occupies.
  static constexpr std::uint64_t footprint(std::uint64_t len) {
    return kPrefix + ((len + 7) & ~std::uint64_t{7});
  }

  ShmRing() = default;
  ShmRing(ShmRingHdr* hdr, unsigned char* buf, std::uint64_t capacity)
      : hdr_(hdr), buf_(buf), cap_(capacity), mask_(capacity - 1) {}

  // Both cursors back to 0: an empty ring, whatever its buffer holds.
  void reset() {
    hdr_->tail.store(0, std::memory_order_relaxed);
    hdr_->head.store(0, std::memory_order_relaxed);
  }

  bool empty() const {
    return hdr_->head.load(std::memory_order_acquire) ==
           hdr_->tail.load(std::memory_order_acquire);
  }

  // Producer side: write `pieces` back to back as one record.  False when
  // the record does not fit right now (or exceeds the u32 length field).
  bool try_push(std::initializer_list<ShmPiece> pieces) {
    std::uint64_t len = 0;
    for (const ShmPiece& p : pieces) len += p.len;
    if (len > UINT32_MAX) return false;
    const std::uint64_t need = footprint(len);
    const std::uint64_t tail = hdr_->tail.load(std::memory_order_relaxed);
    const std::uint64_t head = hdr_->head.load(std::memory_order_acquire);
    if (cap_ - (tail - head) < need) return false;
    const auto len32 = static_cast<std::uint32_t>(len);
    copy_in(tail, &len32, sizeof len32);
    std::uint64_t at = tail + kPrefix;
    for (const ShmPiece& p : pieces) {
      copy_in(at, p.data, p.len);
      at += p.len;
    }
    hdr_->tail.store(tail + need, std::memory_order_release);
    return true;
  }

  // The record try_pop hands its consumer: a read cursor over the payload,
  // still in the ring.
  class Record {
   public:
    std::uint64_t size() const { return len_; }
    std::uint64_t remaining() const { return len_ - off_; }

    // Copy the next n payload bytes to `dst`; false (nothing copied) when
    // fewer than n remain.
    bool read(void* dst, std::uint64_t n) {
      auto* out = static_cast<unsigned char*>(dst);
      return take(n, [&](const unsigned char* p, std::uint64_t k) {
        std::memcpy(out, p, k);
        out += k;
      });
    }

    // Hand the next n payload bytes to fn(const unsigned char*, bytes) in
    // place, as at most two contiguous chunks (split at the wrap point);
    // false (fn not called) when fewer than n remain.
    template <class Fn>
    bool take(std::uint64_t n, Fn&& fn) {
      if (n > remaining()) return false;
      const std::uint64_t at = (pos_ + off_) & ring_->mask_;
      const std::uint64_t first = n < ring_->cap_ - at ? n : ring_->cap_ - at;
      if (first > 0) fn(ring_->buf_ + at, first);
      if (n > first) fn(ring_->buf_, n - first);
      off_ += n;
      return true;
    }

   private:
    friend class ShmRing;
    Record(const ShmRing* ring, std::uint64_t pos, std::uint64_t len)
        : ring_(ring), pos_(pos), len_(len) {}
    const ShmRing* ring_;
    std::uint64_t pos_;  // first payload byte's cursor position
    std::uint64_t len_;
    std::uint64_t off_ = 0;
  };

  // Consumer side.  False when the ring is empty; otherwise calls
  // consume(Record&) on the next record in place, then releases its bytes
  // to the producer.  Throws std::runtime_error("shm ring record corrupt")
  // when the length prefix claims more bytes than the producer published.
  template <class Fn>
  bool try_pop(Fn&& consume) {
    const std::uint64_t head = hdr_->head.load(std::memory_order_relaxed);
    const std::uint64_t tail = hdr_->tail.load(std::memory_order_acquire);
    if (tail == head) return false;
    std::uint32_t len = 0;
    copy_out(head, &len, sizeof len);
    const std::uint64_t need = footprint(len);
    if (need > tail - head) throw std::runtime_error("shm ring record corrupt");
    Record rec(this, head + kPrefix, len);
    consume(rec);
    hdr_->head.store(head + need, std::memory_order_release);
    return true;
  }

 private:
  // Wrap-aware copies: at most two memcpy chunks each.
  void copy_in(std::uint64_t pos, const void* src, std::uint64_t n) {
    const std::uint64_t at = pos & mask_;
    const std::uint64_t first = n < cap_ - at ? n : cap_ - at;
    if (first > 0) std::memcpy(buf_ + at, src, first);
    if (n > first)
      std::memcpy(buf_, static_cast<const unsigned char*>(src) + first,
                  n - first);
  }
  void copy_out(std::uint64_t pos, void* dst, std::uint64_t n) const {
    const std::uint64_t at = pos & mask_;
    const std::uint64_t first = n < cap_ - at ? n : cap_ - at;
    std::memcpy(dst, buf_ + at, first);
    if (n > first)
      std::memcpy(static_cast<unsigned char*>(dst) + first, buf_, n - first);
  }

  ShmRingHdr* hdr_ = nullptr;
  unsigned char* buf_ = nullptr;
  std::uint64_t cap_ = 0;
  std::uint64_t mask_ = 0;
};

}  // namespace aoft::transport
