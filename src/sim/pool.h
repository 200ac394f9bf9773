// Pooled key storage for the messaging hot path.
//
// Theorem 4 prices S_FT at O(log^2 N + N log N) communication; in the
// simulator every gossiped word used to ride in a freshly heap-allocated
// std::vector<Key>.  KeyPool is a per-Machine free list of key storage and
// KeyBuf is the vector-like RAII handle protocols hold: acquiring reuses a
// retired buffer's capacity, destroying (or moving-from) returns the storage
// to the pool.  Pooling is invisible to the wire protocol — message contents,
// cost charges and trace bytes do not depend on it (EXPERIMENTS.md §11).
//
// A pool may also be given a KeyArena: a region of borrowed memory (a node
// process's slice of the shm segment, docs/PROTOCOL.md §11.1) from which the
// pool carves new storage before falling back to the heap.  The arena is
// consulted only when a buffer grows past its capacity, so the simulator's
// pools, which have none, pay one null check per growth and nothing else.
//
// A KeyBuf may also borrow foreign storage (KeyBuf::borrow): a received
// record that an shm node reads in place in its segment's per-job log
// (transport/shm_ring.h).  Capacity 0 marks the borrow.  Such a buffer never
// frees its storage or returns it to the pool, and every growth path copies
// the keys into storage of its own first.
//
// KeyBuf is a contiguous range of Key (begin()/end() return raw pointers), so
// it converts implicitly to std::span<Key> / std::span<const Key> and slots
// into the span-based predicate and blockops APIs unchanged.  It keeps
// std::vector's semantics, growth policy included: no element is readable
// before it has been written, and a pool without an arena makes exactly the
// heap allocations a std::vector would.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

namespace aoft::sim {

// Sort keys.  The paper's experiments sort 32-bit integers; we store keys in
// 64 bits so adversaries can also inject out-of-universe values.
using Key = std::int64_t;

// First-fit allocator over a borrowed region of shared memory, with
// coalescing frees.  Extents are whole 64-byte lines.  Each extent's pages
// are mapped on first use by MADV_POPULATE_READ, as ShmRing::prefault maps
// ring records: on a recycled segment they already sit in the page cache, so
// fault-around maps 16 of them per fault instead of one zero-filled page per
// fault.  The region must therefore be MAP_SHARED memory (on private
// anonymous memory a read fault would map the zero page).  Under
// AddressSanitizer free spans are poisoned, so a stale read is reported.
class KeyArena {
 public:
  // `base` must be 64-byte aligned; the arena never unmaps it.
  KeyArena(void* base, std::size_t bytes);
  ~KeyArena();
  KeyArena(const KeyArena&) = delete;
  KeyArena& operator=(const KeyArena&) = delete;

  // n keys, or nullptr when no free extent is large enough.
  Key* allocate(std::size_t n);
  // Return storage from allocate(n), with the same n.
  void deallocate(Key* p, std::size_t n);
  bool owns(const Key* p) const { return p >= base_ && p < base_ + keys_; }

  std::size_t capacity_keys() const { return keys_; }
  std::size_t free_keys() const;

 private:
  struct Extent {
    std::size_t off, len;  // in keys, multiples of kLine
  };
  static constexpr std::size_t kLine = 8;  // keys per 64-byte line

  Key* base_;
  std::size_t keys_;
  std::size_t mapped_ = 0;    // keys below this offset have been populated
  std::vector<Extent> free_;  // by offset, never adjacent (coalesced)
};

// Free list of retired key storage.  Not thread-safe: each Machine owns one
// pool and a Machine is single-threaded by construction.
class KeyPool {
 public:
  KeyPool() = default;
  ~KeyPool();
  KeyPool(const KeyPool&) = delete;
  KeyPool& operator=(const KeyPool&) = delete;

  // Carve every later allocation from `bytes` bytes at `base` (see
  // KeyArena), falling back to the heap when it is full.  Call before the
  // pool hands out any storage; the region must outlive the pool.
  void use_arena(void* base, std::size_t bytes);
  const KeyArena* arena() const { return arena_.get(); }

  std::size_t free_count() const { return free_.size(); }

 private:
  friend class KeyBuf;
  struct Block {
    Key* data;
    std::size_t cap;
  };

  // Out of line on purpose: inlined into every KeyBuf destructor, this
  // body made the simulator's message hot paths ~7% slower (sim-campaign
  // raw call_ms.p10, EXPERIMENTS.md §16.2).
  [[gnu::noinline]] void release(Block b);
  Key* allocate(std::size_t n);
  void deallocate(Key* p, std::size_t n);

  static constexpr std::size_t kMaxFree = 256;
  std::unique_ptr<KeyArena> arena_;
  std::vector<Block> free_;
};

// Vector-like key buffer that returns its storage to a KeyPool on
// destruction.  Default-constructed KeyBufs are unpooled (heap storage,
// plain vector semantics); copies are deep and unpooled on the destination
// side unless the destination already has a pool, in which case
// copy-assignment keeps the destination's pool and capacity.
class KeyBuf {
 public:
  KeyBuf() = default;
  explicit KeyBuf(KeyPool& pool) : pool_(&pool) {
    if (!pool.free_.empty()) {
      data_ = pool.free_.back().data;
      cap_ = pool.free_.back().cap;
      pool.free_.pop_back();
    }
  }

  // A buffer of the n keys at `keys`, which it borrows: it reads them in
  // place and never frees them.  The first growth copies them into storage
  // drawn from `pool`.  A write through operator[], data() or begin() would
  // land in the foreign storage, so a consumer that mutates a borrowed
  // buffer in place calls own() first.
  static KeyBuf borrow(KeyPool& pool, const Key* keys, std::size_t n) {
    KeyBuf b;
    b.data_ = const_cast<Key*>(keys);
    b.size_ = n;
    b.pool_ = &pool;
    return b;
  }
  // Copy a borrowed buffer's keys into storage of its own; a no-op on a
  // buffer that owns its storage (or holds no keys).
  void own() {
    if (cap_ == 0 && size_ != 0) reallocate(size_);
  }

  ~KeyBuf() {
    if (cap_ != 0) dispose();
  }

  KeyBuf(KeyBuf&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        cap_(std::exchange(o.cap_, 0)),
        pool_(std::exchange(o.pool_, nullptr)) {}

  KeyBuf& operator=(KeyBuf&& o) noexcept {
    if (this != &o) {
      if (cap_ != 0) dispose();
      data_ = std::exchange(o.data_, nullptr);
      size_ = std::exchange(o.size_, 0);
      cap_ = std::exchange(o.cap_, 0);
      pool_ = std::exchange(o.pool_, nullptr);
    }
    return *this;
  }

  // Deep copy; the copy is unpooled (safe to outlive any Machine).
  KeyBuf(const KeyBuf& o) { assign(o.begin(), o.end()); }

  // Copy-assignment keeps this buffer's pool and reuses its capacity.
  KeyBuf& operator=(const KeyBuf& o) {
    if (this != &o) assign(o.begin(), o.end());
    return *this;
  }

  KeyBuf& operator=(const std::vector<Key>& v) {
    assign(v.data(), v.data() + v.size());
    return *this;
  }

  KeyBuf& operator=(std::initializer_list<Key> il) {
    assign(il);
    return *this;
  }

  // --- vector-like interface ------------------------------------------------
  using value_type = Key;
  using iterator = Key*;
  using const_iterator = const Key*;

  Key* data() { return data_; }
  const Key* data() const { return data_; }
  Key* begin() { return data_; }
  Key* end() { return data_ + size_; }
  const Key* begin() const { return data_; }
  const Key* end() const { return data_ + size_; }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }
  bool empty() const { return size_ == 0; }

  Key& operator[](std::size_t i) { return data_[i]; }
  const Key& operator[](std::size_t i) const { return data_[i]; }
  Key& at(std::size_t i) { return data_[checked(i)]; }
  const Key& at(std::size_t i) const { return data_[checked(i)]; }
  Key& front() { return data_[0]; }
  const Key& front() const { return data_[0]; }
  Key& back() { return data_[size_ - 1]; }
  const Key& back() const { return data_[size_ - 1]; }

  void reserve(std::size_t n) {
    if (n > cap_) reallocate(n);
  }
  void resize(std::size_t n, Key fill = 0) {
    if (n > cap_) reallocate(std::max(n, 2 * size_));
    if (n > size_) std::fill(data_ + size_, data_ + n, fill);
    size_ = n;
  }
  // resize() without the fill: keys past the old size are left as the
  // storage holds them, for a caller that writes every one before reading.
  void resize_for_overwrite(std::size_t n) {
    if (n > cap_) reallocate(std::max(n, 2 * size_));
    size_ = n;
  }
  void clear() { size_ = 0; }
  void push_back(Key k) {
    // `>=`, not `==`: a borrowed buffer has size_ > cap_ == 0.
    if (size_ >= cap_) reallocate(size_ == 0 ? 1 : 2 * size_);
    data_[size_++] = k;
  }
  void pop_back() { --size_; }

  template <std::forward_iterator It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    if (n > cap_) {
      Key* fresh = allocate(n);  // the source may alias the old storage
      std::copy(first, last, fresh);
      install(fresh, n, n);
      return;
    }
    std::copy(first, last, data_);
    size_ = n;
  }
  void assign(std::size_t n, Key k) {
    if (n > cap_) install(allocate(n), 0, n);
    std::fill(data_, data_ + n, k);
    size_ = n;
  }
  void assign(std::initializer_list<Key> il) { assign(il.begin(), il.end()); }
  void append(const Key* first, const Key* last) {
    const auto n = static_cast<std::size_t>(last - first);
    if (size_ + n > cap_) {  // cap_ - size_ would wrap on a borrowed buffer
      const std::size_t cap = size_ + std::max(size_, n);
      Key* fresh = allocate(cap);  // the source may alias the old storage
      std::copy(data_, data_ + size_, fresh);
      std::copy(first, last, fresh + size_);
      install(fresh, size_ + n, cap);
      return;
    }
    std::copy(first, last, data_ + size_);
    size_ += n;
  }

  friend bool operator==(const KeyBuf& a, const KeyBuf& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  bool operator==(const std::vector<Key>& v) const {
    return std::equal(begin(), end(), v.begin(), v.end());
  }

 private:
  // The cold paths, out of line.  allocate() takes storage from the pool
  // (its arena, then the heap) or, unpooled, from the heap; install()
  // frees the current storage the same way (unless it is borrowed) and
  // adopts `fresh`.
  [[gnu::noinline]] Key* allocate(std::size_t n);
  [[gnu::noinline]] void install(Key* fresh, std::size_t size, std::size_t cap);
  // Own storage of at least max(cap, size()) keys, keeping the contents.
  [[gnu::noinline]] void reallocate(std::size_t cap);
  void dispose() {  // to the pool, or to the heap when unpooled
    if (pool_ != nullptr)
      pool_->release({data_, cap_});
    else
      ::operator delete(data_);
  }
  std::size_t checked(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("KeyBuf::at");
    return i;
  }

  Key* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
  KeyPool* pool_ = nullptr;
};

}  // namespace aoft::sim
