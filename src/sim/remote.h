// Remote-transport extension point for the simulated multicomputer.
//
// A Machine normally owns every link in the cube.  With a RemoteLink
// attached (Machine::attach_remote) it drives only the *local* endpoint —
// one node's coroutine, or the host's — and forwards every non-local
// delivery to the link; a separate OS process drives each other endpoint
// against the same link (transport/shm_transport.h).
//
// Inbound traffic is pulled at quiescence: when every local task is blocked
// on a receive, the scheduler's idle hook pumps the link instead of firing
// the watchdog, and the watchdog only fires once the link itself reports
// that nothing further can arrive — every waited-on peer is terminally down
// with its rings drained, or a real-time deadline expired.  That preserves
// the paper's Environmental Assumption 4 (message absence is detectable) on
// a transport where absence takes actual wall-clock time to establish.
//
// The interface lives in sim, not transport, so the transport library can
// implement it against sim without a dependency cycle.

#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>

#include "hypercube/masks.h"
#include "hypercube/topology.h"
#include "sim/message.h"
#include "sim/pool.h"

namespace aoft::sim {

class RemoteLink {
 public:
  virtual ~RemoteLink() = default;

  // Outbound, invoked from Machine::deliver* after interception, link-event
  // recording and metrics.  Must match Channel::push semantics: never blocks
  // the protocol, never fails — a dead peer absorbs traffic exactly like a
  // sim channel whose receiver already halted.  `lbs` is the message's LBS
  // payload and stands in for m.lbs: either m.lbs itself, or a window the
  // sender lent (Ctx::send with a span) that is only valid until the call
  // returns.
  //
  // The cover contract.  A lent window comes with `cover`, the protocol
  // mask its receiver reads it through: `lbs` is the sender's SC_{hi+1}
  // window, 2^(hi+1) cells of equal size, and the receiver reads only the
  // cells of the labels in the cover (S_FT's Φ_C merge reads exactly the
  // sender's vect_mask or pre_mask, which the sender computes from the
  // topology, not from what it happens to hold).  The link must deliver
  // `lbs.size()` keys and the covered cells' values exactly; what it
  // delivers in the other cells is unspecified, and a link may skip
  // writing them.  With no cover (m.lbs itself, which an interceptor may
  // have rewritten) every cell is delivered.
  virtual void send_node(cube::NodeId from, cube::NodeId to, const Message& m,
                         std::span<const Key> lbs,
                         std::optional<cube::MaskCover> cover) = 0;
  virtual void send_host(cube::NodeId from, const Message& m,
                         std::span<const Key> lbs) = 0;
  virtual void send_from_host(cube::NodeId to, const Message& m,
                              std::span<const Key> lbs) = 0;

  // Inbound: drain everything currently available, handing each message to
  // `deliver`.  Returns the number of messages delivered.  `pool` backs the
  // reconstructed pooled key buffers.
  using Deliver =
      std::function<void(bool from_host, cube::NodeId from, Message&&)>;
  virtual std::size_t pump(KeyPool& pool, const Deliver& deliver) = 0;

  // Idle wait.  `peers` holds the node labels the local receivers are
  // currently blocked on (empty when only host traffic is awaited).  Return
  // true to re-pump; return false when no further message can arrive — the
  // machine then lets the watchdog fail the blocked receivers.
  virtual bool wait_activity(std::span<const cube::NodeId> peers) = 0;
};

}  // namespace aoft::sim
