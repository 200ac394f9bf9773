// Child-process lifecycle for the multi-process backends.
//
// ChildSet is the parent's handle on its locally spawned node processes:
// pids, pidfds (Linux >= 5.3), reap state, the run deadline and the fleet
// kill.  Both fleet managers build on it.  Waiting for children is an event
// wait — poll() on their pidfds, which become readable the moment a child
// exits — never a fixed nap.
//
// ShmParent owns the one-process-per-node shm fleet: it forks (or
// fork+execs) the children, reaps them, and is the authority that turns a
// vanished process into a kDead status slot — a SIGKILLed child cannot
// update its own slot, so peers' message-absence detection depends on the
// parent polling.  Its lifetime must nest inside its segment's: the
// segment may be recycled for the next run once destroyed, and ShmParent's
// destruction is what guarantees no child still maps it.

#pragma once

#include <poll.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "transport/shm_segment.h"

namespace aoft::transport {

// poll() on `pfds` until one is ready or `until` passes (time_point::max()
// waits indefinitely).  The timeout is rounded up to whole milliseconds, so
// a wait with time left never degenerates to a zero-timeout spin; with no
// time left it returns at once.
void poll_until(std::vector<pollfd>& pfds,
                std::chrono::steady_clock::time_point until);

class ChildSet {
 public:
  using Clock = std::chrono::steady_clock;
  // Called once per reaped child with its slot and waitpid status.
  using OnReap = std::function<void(std::size_t slot, int wstatus)>;

  // `slots` children at most; the run deadline counts from construction.
  ChildSet(std::size_t slots, double run_deadline_s);
  // SIGKILLs and reaps every unreaped child and closes every pidfd, so an
  // exception anywhere between spawn and reap leaks neither.
  ~ChildSet();
  ChildSet(const ChildSet&) = delete;
  ChildSet& operator=(const ChildSet&) = delete;

  // Fork the child for `slot`: it runs body() and _exits with its return
  // value (127 if body throws).  Throws std::runtime_error if fork fails, or if pidfd_open does
  // (after killing and reaping the just-forked child).  Returns the pid.
  pid_t spawn(std::size_t slot, const std::function<int()>& body);
  // Fork+exec `binary <arg> --node=<slot>` (exit 127 if the exec fails).
  pid_t spawn_exec(std::size_t slot, const std::string& binary,
                   const std::string& arg);

  // Reap every exited child without blocking, reporting each to on_reap;
  // once the run deadline has passed, SIGKILL the rest (they are reaped by
  // later calls).  Safe to call repeatedly.
  void poll(const OnReap& on_reap = {});

  // Block until an unreaped child exits or `until` passes.  Until the fleet
  // is killed the wait also ends at the run deadline, so a poll() after it
  // enforces that deadline on time.
  void wait(Clock::time_point until) const;

  // One POLLIN entry per unreaped child: readable once that child exits.
  void add_pollfds(std::vector<pollfd>& pfds) const;

  // SIGKILL every unreaped child (without reaping it).
  void kill_all();
  // SIGKILL, then block until every unreaped child is reaped.
  void kill_and_reap();

  bool all_reaped() const;
  std::size_t size() const { return pids_.size(); }

  // True once a child was forked into `slot`; stays true after the reap.
  // Only such a child's end is something this parent can have seen.
  bool spawned(std::size_t slot) const { return fates_[slot] != Fate::kNone; }
  // True once this set SIGKILLed the child in `slot` (run deadline, grace
  // kill or teardown) while it was still unreaped; stays true after the
  // reap.  A death that follows is the parent's backstop, not the node's.
  bool killed(std::size_t slot) const { return fates_[slot] == Fate::kKilled; }

 private:
  void reap(std::size_t slot, int wstatus, const OnReap& on_reap);

  std::vector<pid_t> pids_;  // 0: never spawned or already reaped
  std::vector<int> pidfds_;  // open exactly while pids_[slot] != 0
  enum class Fate : std::uint8_t { kNone, kSpawned, kKilled };
  std::vector<Fate> fates_;
  Clock::time_point deadline_;
  bool killed_ = false;
};

class ShmParent {
 public:
  explicit ShmParent(ShmSegment& seg);

  // Fork one child per node; each child runs child_main(p) and _exits with
  // its return value.  The parent records pids in the status slots.
  void spawn_fork(const std::function<int(cube::NodeId)>& child_main);

  // Fork+exec `binary --segment=<name> --node=<p>` per node (fresh address
  // spaces; tools/aoft_node is the standard launcher).
  void spawn_exec(const std::string& binary);

  // Reap exits without blocking and keep the status slots truthful: a child
  // that died by signal (or exited without publishing a terminal state)
  // becomes kDead/kFailed here, and a kDead one gets its death() cause.
  // Enforces the run deadline by killing the fleet once it expires.  Safe to
  // call repeatedly; host wait loops call it on every iteration.
  void poll();

  // Block until every child is reaped, waking on child exits (and at the
  // run deadline, to enforce it).
  void await_all();

  bool all_reaped() const;

  // Why node p's slot became kDead, if it did: kExit when the child died by
  // a signal of its own, kBackstop when this parent had SIGKILLed it.
  std::optional<DeathCause> death(cube::NodeId p) const { return deaths_[p]; }

 private:
  void reap(cube::NodeId p, int wstatus);

  ShmSegment& seg_;
  ChildSet children_;
  std::vector<std::optional<DeathCause>> deaths_;
};

// The fail-stop injection for the shm backend: die the way a crashed node
// dies, mid-protocol with no goodbye.  (The simulator degrades kill_process
// to a graceful halt; that equivalence is part of the oracle contract.)
[[noreturn]] void kill_self();

// The wedge injection for the tcp backend: SIGSTOP mid-protocol, so the
// process neither speaks nor exits and only the heartbeat-loss watchdog can
// declare it dead (fault::NodeFault::wedge_process).
[[noreturn]] void wedge_self();

}  // namespace aoft::transport
