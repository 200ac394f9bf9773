#include "transport/shm_transport.h"

#include <unistd.h>

#include <bit>
#include <stdexcept>
#include <thread>

#include "transport/wire.h"

namespace aoft::transport {

namespace {

constexpr auto kIdleNap = std::chrono::microseconds(200);

// Append `n` keys from the record to `buf`, copied straight out of the ring.
bool take_keys(ShmRing::Record& rec, std::uint32_t n, sim::KeyBuf& buf) {
  buf.reserve(n);
  return rec.take(std::uint64_t{n} * sizeof(sim::Key),
                  [&](const unsigned char* p, std::uint64_t bytes) {
                    const auto* k = reinterpret_cast<const sim::Key*>(p);
                    buf.append(k, k + bytes / sizeof(sim::Key));
                  });
}

// Decode one record into `out`: the header, then both key arrays.
void decode_record(ShmRing::Record& rec, sim::KeyPool& pool,
                   sim::Message& out) {
  WireMsgHdr h;
  if (!rec.read(&h, sizeof h))
    throw std::runtime_error("shm ring record corrupt");
  message_from_header(h, pool, out);
  if (!take_keys(rec, h.ndata, out.data) || !take_keys(rec, h.nlbs, out.lbs) ||
      rec.remaining() != 0)
    throw std::runtime_error("shm ring record corrupt");
}

}  // namespace

ShmTransport::ShmTransport(ShmSegment& seg, std::int32_t role)
    : seg_(seg), role_(role) {}

void ShmTransport::push_ring(ShmRing ring, const sim::Message& m) {
  const WireMsgHdr h = wire_header(m);
  // Sized for the whole run, so a full ring is a bug, not backpressure:
  // absorb the message like a dead peer and count it for the collect path.
  if (!ring.try_push({{&h, sizeof h},
                      {m.data.data(), m.data.size() * sizeof(sim::Key)},
                      {m.lbs.data(), m.lbs.size() * sizeof(sim::Key)}}))
    ++send_overflow_;
}

void ShmTransport::send_node(cube::NodeId from, cube::NodeId to,
                             const sim::Message& m) {
  push_ring(seg_.link_ring(to, std::countr_zero(from ^ to)), m);
}

void ShmTransport::send_host(cube::NodeId from, const sim::Message& m) {
  push_ring(seg_.up_ring(from), m);
}

void ShmTransport::send_from_host(cube::NodeId to, const sim::Message& m) {
  push_ring(seg_.down_ring(to), m);
}

std::size_t ShmTransport::pump(sim::KeyPool& pool, const Deliver& deliver) {
  std::size_t delivered = 0;
  sim::Message m;
  const auto drain = [&](ShmRing ring, bool from_host) {
    while (ring.try_pop([&](ShmRing::Record& rec) {
      decode_record(rec, pool, m);
    })) {
      deliver(from_host, m.from, std::move(m));
      ++delivered;
    }
  };
  if (role_ == kHostRole) {
    for (cube::NodeId p = 0; p < seg_.num_nodes(); ++p)
      drain(seg_.up_ring(p), false);
  } else {
    const auto me = static_cast<cube::NodeId>(role_);
    for (int k = 0; k < seg_.dim(); ++k) drain(seg_.link_ring(me, k), false);
    drain(seg_.down_ring(me), true);
  }
  if (delivered > 0) waiting_ = false;
  return delivered;
}

bool ShmTransport::wait_activity(std::span<const cube::NodeId> peers) {
  const auto now = std::chrono::steady_clock::now();
  if (!waiting_) {
    waiting_ = true;
    wait_start_ = now;
  }

  if (role_ == kHostRole) {
    if (host_poll_) host_poll_();
    bool all_down = true;
    for (cube::NodeId p = 0; all_down && p < seg_.num_nodes(); ++p)
      all_down = slot_terminal(static_cast<SlotState>(
          seg_.slot(p).state.load(std::memory_order_acquire)));
    if (all_down) {
      // Slots first, rings second: anything a child pushed before its
      // terminal store is visible by now, so empty rings mean silence.
      bool drained = true;
      for (cube::NodeId p = 0; drained && p < seg_.num_nodes(); ++p)
        drained = seg_.up_ring(p).empty();
      if (drained) return false;
    }
    std::this_thread::sleep_for(kIdleNap);
    return true;
  }

  // Node role.  An orphaned child can never receive again: its host (and
  // the cube around it) is gone.
  if (getppid() != seg_.header().host_pid) return false;

  if (!peers.empty()) {
    bool all_down = true;
    for (cube::NodeId q : peers)
      all_down = all_down && slot_terminal(static_cast<SlotState>(
                                 seg_.slot(q).state.load(
                                     std::memory_order_acquire)));
    if (all_down) {
      const auto me = static_cast<cube::NodeId>(role_);
      bool drained = true;
      for (int k = 0; drained && k < seg_.dim(); ++k)
        drained = seg_.link_ring(me, k).empty();
      if (drained && seg_.down_ring(me).empty()) return false;
    }
  }

  const double waited =
      std::chrono::duration<double>(now - wait_start_).count();
  if (waited > seg_.header().recv_timeout_s) return false;

  std::this_thread::sleep_for(kIdleNap);
  return true;
}

}  // namespace aoft::transport
