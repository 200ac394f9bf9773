#include "transport/shm_transport.h"

#include <unistd.h>

#include <bit>
#include <stdexcept>
#include <thread>

#include "transport/wire.h"

namespace aoft::transport {

namespace {

constexpr auto kIdleNap = std::chrono::microseconds(200);

// Read one record into `out` in place: the header's fields, then both key
// arrays as KeyBufs borrowed over the log, which no producer writes again
// within the job (shm_ring.h).
void decode_record(ShmRing::Record& rec, sim::KeyPool& pool,
                   sim::Message& out) {
  WireMsgHdr h;
  if (!rec.read(&h, sizeof h))
    throw std::runtime_error("shm ring record corrupt");
  const auto* data = rec.take(std::uint64_t{h.ndata} * sizeof(sim::Key));
  const auto* lbs = rec.take(std::uint64_t{h.nlbs} * sizeof(sim::Key));
  if (data == nullptr || lbs == nullptr || rec.remaining() != 0)
    throw std::runtime_error("shm ring record corrupt");
  header_into(h, out);
  out.data = sim::KeyBuf::borrow(
      pool, reinterpret_cast<const sim::Key*>(data), h.ndata);
  out.lbs =
      sim::KeyBuf::borrow(pool, reinterpret_cast<const sim::Key*>(lbs), h.nlbs);
}

// Append `lbs` to `out` as the cells `cover` names, the cells between them
// as holes.  `lbs` is the sender's SC_{hi+1} window (sim/remote.h): 2^(hi+1)
// cells, of which every 2^lo-th is covered, from the sender's own offset
// below bit lo.  A span that is not such a window goes whole.
void append_covered(std::span<const sim::Key> lbs, const cube::MaskCover& c,
                    std::vector<ShmPiece>& out) {
  const std::size_t cells = std::size_t{1} << (c.hi + 1);
  const std::size_t stride = std::size_t{1} << c.lo;
  if (stride == 1 || lbs.empty() || lbs.size() % cells != 0) {
    out.push_back({lbs.data(), lbs.size() * sizeof(sim::Key)});
    return;
  }
  const std::size_t m = lbs.size() / cells;
  constexpr std::size_t kKey = sizeof(sim::Key);
  std::size_t at = 0;  // keys laid out so far
  for (std::size_t cell = c.node & (stride - 1); cell < cells; cell += stride) {
    if (cell * m > at) out.push_back(ShmPiece::hole((cell * m - at) * kKey));
    out.push_back({lbs.data() + cell * m, m * kKey});
    at = (cell + 1) * m;
  }
  if (lbs.size() > at) out.push_back(ShmPiece::hole((lbs.size() - at) * kKey));
}

}  // namespace

ShmTransport::ShmTransport(ShmSegment& seg, std::int32_t role)
    : seg_(seg),
      role_(role),
      unmapped_(role == kHostRole ? seg.num_nodes()
                                  : static_cast<std::size_t>(seg.dim()) + 1) {}

void ShmTransport::push_ring(ShmRing ring, const sim::Message& m,
                             std::span<const sim::Key> lbs,
                             const std::optional<cube::MaskCover>& cover) {
  const WireMsgHdr h = wire_header(m, lbs);
  pieces_.assign({{&h, sizeof h},
                  {m.data.data(), m.data.size() * sizeof(sim::Key)}});
  if (cover)
    append_covered(lbs, *cover, pieces_);
  else
    pieces_.push_back({lbs.data(), lbs.size() * sizeof(sim::Key)});
  // Sized for the whole run, so a full log is a bug, not backpressure:
  // absorb the message like a dead peer and count it for the collect path.
  if (!ring.try_push(pieces_)) ++send_overflow_;
}

void ShmTransport::send_node(cube::NodeId from, cube::NodeId to,
                             const sim::Message& m,
                             std::span<const sim::Key> lbs,
                             std::optional<cube::MaskCover> cover) {
  push_ring(seg_.link_ring(to, std::countr_zero(from ^ to)), m, lbs, cover);
}

void ShmTransport::send_host(cube::NodeId from, const sim::Message& m,
                             std::span<const sim::Key> lbs) {
  push_ring(seg_.up_ring(from), m, lbs);
}

void ShmTransport::send_from_host(cube::NodeId to, const sim::Message& m,
                                  std::span<const sim::Key> lbs) {
  push_ring(seg_.down_ring(to), m, lbs);
}

std::size_t ShmTransport::pump(sim::KeyPool& pool, const Deliver& deliver) {
  std::size_t delivered = 0;
  sim::Message m;
  // Inbound log i first drops the pages this process consumed in earlier
  // pumps (shm_ring.h), then hands every new record on in place.
  const auto drain = [&](ShmRing ring, std::size_t i, bool from_host) {
    unmapped_[i] = ring.unmap_consumed(unmapped_[i]);
    while (ring.try_pop([&](ShmRing::Record& rec) {
      decode_record(rec, pool, m);
    })) {
      deliver(from_host, m.from, std::move(m));
      ++delivered;
    }
  };
  if (role_ == kHostRole) {
    for (cube::NodeId p = 0; p < seg_.num_nodes(); ++p)
      drain(seg_.up_ring(p), p, false);
  } else {
    const auto me = static_cast<cube::NodeId>(role_);
    const auto dim = static_cast<std::size_t>(seg_.dim());
    for (std::size_t k = 0; k < dim; ++k)
      drain(seg_.link_ring(me, static_cast<int>(k)), k, false);
    drain(seg_.down_ring(me), dim, true);
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
