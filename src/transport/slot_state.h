// Per-node lifecycle state shared by the multi-process backends.
//
// The shm backend stores a SlotState in each NodeSlot of the mmap'd segment;
// the tcp backend tracks the same states per peer in PeerWatch.  Keeping the
// enums in one header means "terminal" and each DeathCause mean exactly one
// thing everywhere: the supervisor ladder retires a forked tcp child whose
// host link hit EOF by the same rule it uses for a SIGKILLed shm child.

#pragma once

#include <cstdint>

namespace aoft::transport {

enum class SlotState : std::uint32_t {
  kIdle = 0,     // spawned/known, node not yet running
  kRunning = 1,  // node entered its node program
  kDone = 2,     // node completed and published its results
  kFailed = 3,   // node caught an exception (harness bug; fail_reason set)
  kDead = 4,     // death observed without a kDone slot: shm — parent reaped a
                 // crash/SIGKILL; tcp — connection EOF or heartbeat loss
};

inline const char* to_string(SlotState s) {
  switch (s) {
    case SlotState::kIdle: return "idle";
    case SlotState::kRunning: return "running";
    case SlotState::kDone: return "done";
    case SlotState::kFailed: return "failed";
    case SlotState::kDead: return "dead";
  }
  return "?";
}

// Why the host declared a node dead (docs/PROTOCOL.md §11, §13.4).  Only the
// parent's own observation sets one; a node reporting a neighbour's EOF is
// an accusation, not a DeathCause.
enum class DeathCause : std::uint8_t {
  kExit,      // the process ended without publishing: shm reaped it killed
              // by a signal, tcp saw the host link of a forked child EOF
  kSilence,   // the host's heartbeat-loss sweep fired (a wedged or slow
              // peer), or a pinned node's host link hit EOF
  kBackstop,  // the parent SIGKILLed it: run deadline or await_exits' grace
};

inline const char* to_string(DeathCause c) {
  switch (c) {
    case DeathCause::kExit: return "exit";
    case DeathCause::kSilence: return "silence";
    case DeathCause::kBackstop: return "backstop";
  }
  return "?";
}

// Terminal from a waiting peer's point of view: no further message can ever
// originate from this node.
inline bool slot_terminal(SlotState s) {
  return s == SlotState::kDone || s == SlotState::kFailed ||
         s == SlotState::kDead;
}

}  // namespace aoft::transport
