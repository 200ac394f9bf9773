// Pooled key storage for the messaging hot path.
//
// Theorem 4 prices S_FT at O(log^2 N + N log N) communication; in the
// simulator every gossiped word used to ride in a freshly heap-allocated
// std::vector<Key>.  KeyPool is a per-Machine free list of key vectors and
// KeyBuf is the vector-like RAII handle protocols hold: acquiring reuses a
// retired vector's capacity, destroying (or moving-from) returns the storage
// to the pool.  Pooling is invisible to the wire protocol — message contents,
// cost charges and trace bytes do not depend on it (EXPERIMENTS.md §11).
//
// KeyBuf is a contiguous range of Key (begin()/end() return raw pointers), so
// it converts implicitly to std::span<Key> / std::span<const Key> and slots
// into the span-based predicate and blockops APIs unchanged.

#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

namespace aoft::sim {

// Sort keys.  The paper's experiments sort 32-bit integers; we store keys in
// 64 bits so adversaries can also inject out-of-universe values.
using Key = std::int64_t;

// Free list of retired key vectors.  Not thread-safe: each Machine owns one
// pool and a Machine is single-threaded by construction.
class KeyPool {
 public:
  std::vector<Key> acquire() {
    if (!free_.empty()) {
      std::vector<Key> v = std::move(free_.back());
      free_.pop_back();
      return v;
    }
    return {};
  }

  // Out of line on purpose: inlined into every KeyBuf destructor, this
  // body made the simulator's message hot paths ~7% slower (sim-campaign
  // raw call_ms.p10, EXPERIMENTS.md §16.2).
  [[gnu::noinline]] void release(std::vector<Key>&& v) {
    if (v.capacity() == 0) return;
    if (free_.size() >= kMaxFree) return;  // let the excess free normally
    v.clear();
    free_.push_back(std::move(v));
  }

  std::size_t free_count() const { return free_.size(); }

 private:
  static constexpr std::size_t kMaxFree = 256;
  std::vector<std::vector<Key>> free_;
};

// Vector-like key buffer that returns its storage to a KeyPool on
// destruction.  Default-constructed KeyBufs are unpooled (plain vector
// semantics); copies are deep and unpooled on the destination side unless the
// destination already has a pool, in which case copy-assignment keeps the
// destination's pool and capacity.
class KeyBuf {
 public:
  KeyBuf() = default;
  explicit KeyBuf(KeyPool& pool) : v_(pool.acquire()), pool_(&pool) {}

  ~KeyBuf() { release(); }

  KeyBuf(KeyBuf&& o) noexcept
      : v_(std::move(o.v_)), pool_(std::exchange(o.pool_, nullptr)) {
    o.v_.clear();
  }

  KeyBuf& operator=(KeyBuf&& o) noexcept {
    if (this != &o) {
      release();
      v_ = std::move(o.v_);
      o.v_.clear();
      pool_ = std::exchange(o.pool_, nullptr);
    }
    return *this;
  }

  // Deep copy; the copy is unpooled (safe to outlive any Machine).
  KeyBuf(const KeyBuf& o) : v_(o.v_) {}

  // Copy-assignment keeps this buffer's pool and reuses its capacity.
  KeyBuf& operator=(const KeyBuf& o) {
    if (this != &o) v_.assign(o.v_.begin(), o.v_.end());
    return *this;
  }

  KeyBuf& operator=(const std::vector<Key>& v) {
    v_.assign(v.begin(), v.end());
    return *this;
  }

  KeyBuf& operator=(std::initializer_list<Key> il) {
    v_.assign(il);
    return *this;
  }

  // Detach the storage (e.g. to hand a result out of the simulation).  The
  // vector no longer returns to the pool.
  std::vector<Key> take() && {
    pool_ = nullptr;
    return std::move(v_);
  }

  // --- vector-like interface ------------------------------------------------
  using value_type = Key;
  using iterator = Key*;
  using const_iterator = const Key*;

  Key* data() { return v_.data(); }
  const Key* data() const { return v_.data(); }
  Key* begin() { return v_.data(); }
  Key* end() { return v_.data() + v_.size(); }
  const Key* begin() const { return v_.data(); }
  const Key* end() const { return v_.data() + v_.size(); }

  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

  Key& operator[](std::size_t i) { return v_[i]; }
  const Key& operator[](std::size_t i) const { return v_[i]; }
  Key& at(std::size_t i) { return v_.at(i); }
  const Key& at(std::size_t i) const { return v_.at(i); }
  Key& front() { return v_.front(); }
  const Key& front() const { return v_.front(); }
  Key& back() { return v_.back(); }
  const Key& back() const { return v_.back(); }

  void reserve(std::size_t n) { v_.reserve(n); }
  void resize(std::size_t n, Key fill = 0) { v_.resize(n, fill); }
  void clear() { v_.clear(); }
  void push_back(Key k) { v_.push_back(k); }
  void pop_back() { v_.pop_back(); }

  template <typename It>
  void assign(It first, It last) {
    v_.assign(first, last);
  }
  void assign(std::size_t n, Key k) { v_.assign(n, k); }
  void assign(std::initializer_list<Key> il) { v_.assign(il); }
  void append(const Key* first, const Key* last) {
    v_.insert(v_.end(), first, last);
  }

  friend bool operator==(const KeyBuf& a, const KeyBuf& b) {
    return a.v_ == b.v_;
  }
  bool operator==(const std::vector<Key>& v) const { return v_ == v; }

 private:
  void release() {
    if (pool_ != nullptr) pool_->release(std::move(v_));
  }

  std::vector<Key> v_;
  KeyPool* pool_ = nullptr;
};

}  // namespace aoft::sim
