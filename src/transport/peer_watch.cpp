#include "transport/peer_watch.h"

namespace aoft::transport {

PeerWatch::PeerWatch(int n, double heartbeat_loss_s)
    : peers_(static_cast<std::size_t>(n)),
      loss_(heartbeat_loss_s),
      silence_rule_(heartbeat_loss_s > 0.0) {}

void PeerWatch::mark_up(int peer, Time now) {
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  if (slot_terminal(p.state)) return;
  p.state = SlotState::kRunning;
  p.last_rx = now;
}

void PeerWatch::note_activity(int peer, Time now) {
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  if (p.state == SlotState::kIdle) p.state = SlotState::kRunning;
  p.last_rx = now;
  p.armed = true;
}

void PeerWatch::set_loss(double heartbeat_loss_s) {
  loss_ = std::chrono::duration<double>(heartbeat_loss_s);
  silence_rule_ = heartbeat_loss_s > 0.0;
}

void PeerWatch::mark_finished(int peer, SlotState result) {
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  if (p.state == SlotState::kDone || p.state == SlotState::kFailed) return;
  p.state = result;  // kDead -> result: the FINISH beat the watchdog
}

void PeerWatch::mark_dead(int peer, DeathCause cause) {
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  if (slot_terminal(p.state)) return;
  p.state = SlotState::kDead;
  p.cause = cause;
}

bool PeerWatch::sweep(Time now) {
  if (!silence_rule_) return false;
  bool changed = false;
  for (Peer& p : peers_) {
    if (p.state != SlotState::kRunning || !p.armed) continue;
    if (now - p.last_rx >
        std::chrono::duration_cast<Clock::duration>(loss_)) {
      p.state = SlotState::kDead;
      p.cause = DeathCause::kSilence;
      changed = true;
    }
  }
  return changed;
}

PeerWatch::Time PeerWatch::next_deadline() const {
  Time best = Time::max();
  if (!silence_rule_) return best;
  for (const Peer& p : peers_) {
    if (p.state != SlotState::kRunning || !p.armed) continue;
    const Time t =
        p.last_rx + std::chrono::duration_cast<Clock::duration>(loss_);
    if (t < best) best = t;
  }
  return best;
}

bool PeerWatch::all_terminal() const {
  for (const Peer& p : peers_)
    if (!slot_terminal(p.state)) return false;
  return true;
}

}  // namespace aoft::transport
