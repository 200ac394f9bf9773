// Timeout-based peer-death detection for the socket backend
// (docs/PROTOCOL.md §13.4).
//
// The shm backend gets death detection for free: the parent waitpid()s and
// flips the victim's segment slot to kDead.  Over sockets there is no shared
// parent authority — each endpoint must decide for itself when a silent peer
// is gone.  PeerWatch is that decision, as a pure state machine over
// caller-supplied time points (so tests drive it with fake clocks):
//
//   kIdle --connect--> kRunning --FINISH--> kDone | kFailed
//                         |
//                         +------EOF/ECONNRESET--------------> kDead
//                         +------silence > heartbeat_loss_s--> kDead
//
// kDead may later upgrade to kDone/kFailed if a FINISH frame was already in
// flight when the watchdog fired — results beat timeouts.  All other
// terminal states are sticky.  A kDead peer keeps the DeathCause of the
// transition that killed it (first verdict wins): kSilence from the sweep,
// the caller's cause from mark_dead.  `terminal()` uses the shared
// slot_terminal() predicate, so a tcp peer ends in the same states a shm
// child does.
//
// The silence rule ARMS per peer only at the first inbound activity
// (note_activity); mark_up alone never starts the countdown.  A peer is
// necessarily silent through the whole setup window — fleet rendezvous,
// CONFIG transfer, peer mesh — which takes minutes under the --hosts
// manual-launch workflow, and it cannot heartbeat before CONFIG even tells
// it the cadence.  Counting that silence as death would falsely kill live
// fleets; instead an unheard peer is covered by the EOF rule (a crashed
// process FINs instantly) and the parent's run-deadline backstop.  Nodes
// emit an immediate heartbeat the moment their mesh completes, so arming
// happens promptly and wedge detection is live from the first stage.

#pragma once

#include <chrono>
#include <optional>
#include <vector>

#include "transport/slot_state.h"

namespace aoft::transport {

class PeerWatch {
 public:
  using Clock = std::chrono::steady_clock;
  using Time = Clock::time_point;

  // `n` peers, all kIdle.  heartbeat_loss_s <= 0 disables the silence rule
  // (EOF and FINISH still apply).
  PeerWatch(int n, double heartbeat_loss_s);

  // Peer connected: kIdle -> kRunning, stamps last_rx.  Does NOT arm the
  // silence rule — the peer may legitimately stay quiet through the rest of
  // setup.  No-op on a terminal peer.
  void mark_up(int peer, Time now);

  // Any bytes arrived from the peer (data or heartbeat): refresh last_rx
  // and arm the silence rule for this peer.
  void note_activity(int peer, Time now);

  // Rescale the silence bound (e.g. broadcast_config growing it with the
  // block size once the job is known); <= 0 disables the rule.
  void set_loss(double heartbeat_loss_s);

  // FINISH frame processed: terminal result state.  Upgrades kDead (result
  // already in flight when the watchdog fired); ignored if already
  // kDone/kFailed.
  void mark_finished(int peer, SlotState result);

  // Connection EOF / reset without FINISH: kDead for `cause` unless already
  // terminal.
  void mark_dead(int peer, DeathCause cause);

  // Apply the silence rule to every armed kRunning peer; returns true if
  // any peer transitioned to kDead.
  bool sweep(Time now);

  // Earliest deadline at which sweep() could change state, or Time::max()
  // when no peer is subject to the silence rule.  Lets the poll loop sleep
  // exactly long enough.
  Time next_deadline() const;

  SlotState state(int peer) const { return peers_[peer].state; }
  // The cause of a kDead peer's death; nullopt for any other state.
  std::optional<DeathCause> death(int peer) const {
    const Peer& p = peers_[peer];
    return p.state == SlotState::kDead ? std::optional(p.cause) : std::nullopt;
  }
  bool terminal(int peer) const { return slot_terminal(peers_[peer].state); }
  bool all_terminal() const;

 private:
  struct Peer {
    SlotState state = SlotState::kIdle;
    Time last_rx{};
    bool armed = false;  // first inbound activity seen; gates the silence rule
    DeathCause cause = DeathCause::kExit;  // meaningful while kDead
  };
  std::vector<Peer> peers_;
  std::chrono::duration<double> loss_;
  bool silence_rule_;
};

}  // namespace aoft::transport
