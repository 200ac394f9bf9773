#include "sim/pool.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>

#ifndef MADV_POPULATE_READ
#define MADV_POPULATE_READ 22  // Linux >= 5.14; older kernels return EINVAL
#endif

namespace aoft::sim {

// ---- KeyArena ---------------------------------------------------------------

KeyArena::KeyArena(void* base, std::size_t bytes)
    : base_(static_cast<Key*>(base)),
      keys_(bytes / sizeof(Key) / kLine * kLine) {
  if (keys_ > 0) free_.push_back({0, keys_});
  ASAN_POISON_MEMORY_REGION(base_, keys_ * sizeof(Key));
}

KeyArena::~KeyArena() {
  ASAN_UNPOISON_MEMORY_REGION(base_, keys_ * sizeof(Key));
}

Key* KeyArena::allocate(std::size_t n) {
  const std::size_t len = std::max(kLine, (n + kLine - 1) / kLine * kLine);
  const auto it = std::ranges::find_if(
      free_, [len](const Extent& e) { return e.len >= len; });
  if (it == free_.end()) return nullptr;
  const std::size_t off = it->off;
  it->off += len;
  it->len -= len;
  if (it->len == 0) free_.erase(it);

  if (off + len > mapped_) {
    // Map the pages from the high-water mark through this extent in a few
    // fault-around faults.  A hint: failure leaves the pages to fault one
    // by one on first touch, with the same bytes.
    static const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
    const auto at = [this](std::size_t k) {
      return reinterpret_cast<std::uintptr_t>(base_ + k);
    };
    const std::uintptr_t lo = at(mapped_) & ~(page - 1);
    const std::uintptr_t hi =
        std::min((at(off + len) + page - 1) & ~(page - 1), at(keys_) & ~(page - 1));
    if (hi > lo)
      (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_POPULATE_READ);
    mapped_ = off + len;
  }
  Key* p = base_ + off;
  ASAN_UNPOISON_MEMORY_REGION(p, n * sizeof(Key));
  return p;
}

void KeyArena::deallocate(Key* p, std::size_t n) {
  const std::size_t len = std::max(kLine, (n + kLine - 1) / kLine * kLine);
  const auto off = static_cast<std::size_t>(p - base_);
  ASAN_POISON_MEMORY_REGION(p, len * sizeof(Key));
  auto next = std::ranges::lower_bound(free_, off, {}, &Extent::off);
  const bool joins_prev =
      next != free_.begin() && std::prev(next)->off + std::prev(next)->len == off;
  const bool joins_next = next != free_.end() && off + len == next->off;
  if (joins_prev && joins_next) {
    std::prev(next)->len += len + next->len;
    free_.erase(next);
  } else if (joins_prev) {
    std::prev(next)->len += len;
  } else if (joins_next) {
    next->off = off;
    next->len += len;
  } else {
    free_.insert(next, {off, len});
  }
}

std::size_t KeyArena::free_keys() const {
  std::size_t n = 0;
  for (const Extent& e : free_) n += e.len;
  return n;
}

// ---- KeyPool ----------------------------------------------------------------

KeyPool::~KeyPool() {
  for (const Block& b : free_) deallocate(b.data, b.cap);
}

void KeyPool::use_arena(void* base, std::size_t bytes) {
  arena_ = std::make_unique<KeyArena>(base, bytes);
}

void KeyPool::release(Block b) {
  if (free_.size() >= kMaxFree) {  // let the excess free normally
    deallocate(b.data, b.cap);
    return;
  }
  free_.push_back(b);
}

Key* KeyPool::allocate(std::size_t n) {
  if (arena_ != nullptr)
    if (Key* p = arena_->allocate(n)) return p;
  return static_cast<Key*>(::operator new(n * sizeof(Key)));
}

void KeyPool::deallocate(Key* p, std::size_t n) {
  if (arena_ != nullptr && arena_->owns(p))
    arena_->deallocate(p, n);
  else
    ::operator delete(p);
}

// ---- KeyBuf -----------------------------------------------------------------

Key* KeyBuf::allocate(std::size_t n) {
  return pool_ != nullptr ? pool_->allocate(n)
                          : static_cast<Key*>(::operator new(n * sizeof(Key)));
}

void KeyBuf::install(Key* fresh, std::size_t size, std::size_t cap) {
  if (cap_ != 0) {
    if (pool_ != nullptr)
      pool_->deallocate(data_, cap_);
    else
      ::operator delete(data_);
  }
  data_ = fresh;
  size_ = size;
  cap_ = cap;
}

void KeyBuf::reallocate(std::size_t cap) {
  cap = std::max(cap, size_);  // reserve() below a borrowed buffer's size
  Key* fresh = allocate(cap);
  if (size_ != 0) std::memcpy(fresh, data_, size_ * sizeof(Key));
  install(fresh, size_, cap);
}

}  // namespace aoft::sim
