#include "transport/process.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace aoft::transport {

namespace {

using Clock = std::chrono::steady_clock;

// now + seconds, saturating: a deadline too far out to represent never fires.
Clock::time_point deadline_after(double seconds) {
  if (!(seconds < 1e9)) return Clock::time_point::max();
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

void store_state(NodeSlot& slot, SlotState s) {
  slot.state.store(static_cast<std::uint32_t>(s), std::memory_order_release);
}

void copy_detail(char (&dst)[kErrDetailBytes], const std::string& src) {
  const std::size_t n = std::min(src.size(), sizeof dst - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

}  // namespace

void poll_until(std::vector<pollfd>& pfds, Clock::time_point until) {
  int timeout_ms = -1;
  if (until != Clock::time_point::max()) {
    const auto now = Clock::now();
    if (until <= now) return;
    const auto ms = std::chrono::ceil<std::chrono::milliseconds>(until - now);
    timeout_ms = static_cast<int>(
        std::min<std::chrono::milliseconds::rep>(ms.count(), INT_MAX));
  }
  ::poll(pfds.data(), pfds.size(), timeout_ms);
}

// ---- ChildSet ---------------------------------------------------------------

ChildSet::ChildSet(std::size_t slots, double run_deadline_s)
    : pids_(slots, 0),
      pidfds_(slots, -1),
      fates_(slots, Fate::kNone),
      deadline_(deadline_after(run_deadline_s)) {}

ChildSet::~ChildSet() { kill_and_reap(); }

pid_t ChildSet::spawn(std::size_t slot, const std::function<int()>& body) {
  const pid_t pid = ::fork();
  if (pid < 0)
    throw std::runtime_error("fork failed for node " + std::to_string(slot) +
                             " (" + std::strerror(errno) + ")");
  if (pid == 0) {
    // Never unwind into the parent's frames: this set's destructor would
    // SIGKILL the siblings from inside the child.
    int rc = 127;
    try {
      rc = body();
    } catch (...) {
    }
    _exit(rc);
  }
  const int fd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  if (fd < 0) {
    const int err = errno;
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    // Only ENOSYS means the kernel is too old; EMFILE and friends are limits.
    throw std::runtime_error("pidfd_open failed for node " +
                             std::to_string(slot) + " (" + std::strerror(err) +
                             (err == ENOSYS ? "; Linux >= 5.3 required)" : ")"));
  }
  pids_[slot] = pid;
  pidfds_[slot] = fd;
  fates_[slot] = Fate::kSpawned;
  return pid;
}

pid_t ChildSet::spawn_exec(std::size_t slot, const std::string& binary,
                          const std::string& arg) {
  const std::string node_arg = "--node=" + std::to_string(slot);
  const pid_t host = ::getpid();
  return spawn(slot, [&] {
    // The exec'd node dies with this process.  The death signal survives
    // exec; checking the parent after setting it closes the race with a
    // host that died between fork and prctl.
    if (::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || ::getppid() != host)
      return 127;
    ::execl(binary.c_str(), binary.c_str(), arg.c_str(), node_arg.c_str(),
            static_cast<char*>(nullptr));
    std::perror("execl");
    return 127;
  });
}

void ChildSet::reap(std::size_t slot, int wstatus, const OnReap& on_reap) {
  ::close(pidfds_[slot]);
  pidfds_[slot] = -1;
  pids_[slot] = 0;
  if (on_reap) on_reap(slot, wstatus);
}

void ChildSet::poll(const OnReap& on_reap) {
  for (std::size_t p = 0; p < pids_.size(); ++p) {
    if (pids_[p] == 0) continue;
    int wstatus = 0;
    if (::waitpid(pids_[p], &wstatus, WNOHANG) == pids_[p])
      reap(p, wstatus, on_reap);
  }
  if (!killed_ && !all_reaped() && Clock::now() > deadline_) kill_all();
}

void ChildSet::wait(Clock::time_point until) const {
  std::vector<pollfd> pfds;
  add_pollfds(pfds);
  if (pfds.empty()) return;
  poll_until(pfds, killed_ ? until : std::min(until, deadline_));
}

void ChildSet::add_pollfds(std::vector<pollfd>& pfds) const {
  for (const int fd : pidfds_)
    if (fd >= 0) pfds.push_back({fd, POLLIN, 0});
}

void ChildSet::kill_all() {
  killed_ = true;
  for (std::size_t p = 0; p < pids_.size(); ++p) {
    if (pids_[p] == 0) continue;
    ::kill(pids_[p], SIGKILL);
    fates_[p] = Fate::kKilled;
  }
}

void ChildSet::kill_and_reap() {
  kill_all();
  for (std::size_t p = 0; p < pids_.size(); ++p) {
    if (pids_[p] == 0) continue;
    int wstatus = 0;
    while (::waitpid(pids_[p], &wstatus, 0) < 0 && errno == EINTR) {
    }
    reap(p, wstatus, {});
  }
}

bool ChildSet::all_reaped() const {
  for (const pid_t pid : pids_)
    if (pid != 0) return false;
  return true;
}

// ---- ShmParent --------------------------------------------------------------

ShmParent::ShmParent(ShmSegment& seg)
    : seg_(seg),
      children_(seg.num_nodes(), seg.header().run_deadline_s),
      deaths_(seg.num_nodes()) {}

void ShmParent::spawn_fork(
    const std::function<int(cube::NodeId)>& child_main) {
  for (cube::NodeId p = 0; p < seg_.num_nodes(); ++p)
    seg_.slot(p).pid = children_.spawn(p, [&] { return child_main(p); });
}

void ShmParent::spawn_exec(const std::string& binary) {
  const std::string seg_arg = "--segment=" + seg_.name();
  for (cube::NodeId p = 0; p < seg_.num_nodes(); ++p)
    seg_.slot(p).pid = children_.spawn_exec(p, binary, seg_arg);
}

void ShmParent::reap(cube::NodeId p, int wstatus) {
  NodeSlot& slot = seg_.slot(p);
  const auto state = static_cast<SlotState>(
      slot.state.load(std::memory_order_acquire));
  if (slot_terminal(state)) return;  // child published before exiting
  if (WIFSIGNALED(wstatus)) {
    // Crashed or SIGKILLed mid-protocol: this store is what lets waiting
    // peers conclude the node is silent forever.
    deaths_[p] =
        children_.killed(p) ? DeathCause::kBackstop : DeathCause::kExit;
    store_state(slot, SlotState::kDead);
    return;
  }
  copy_detail(slot.fail_reason, WIFEXITED(wstatus) && WEXITSTATUS(wstatus) != 0
                                    ? "exited " + std::to_string(
                                          WEXITSTATUS(wstatus)) +
                                          " without publishing"
                                    : "exited without publishing");
  store_state(slot, SlotState::kFailed);
}

void ShmParent::poll() {
  children_.poll([this](std::size_t p, int wstatus) {
    reap(static_cast<cube::NodeId>(p), wstatus);
  });
}

void ShmParent::await_all() {
  for (;;) {
    poll();
    if (children_.all_reaped()) return;
    children_.wait(ChildSet::Clock::time_point::max());
  }
}

bool ShmParent::all_reaped() const { return children_.all_reaped(); }

void kill_self() {
  raise(SIGKILL);
  for (;;) pause();  // unreachable; SIGKILL cannot be caught
}

void wedge_self() {
  // A stopped process holds its sockets open and beats no heartbeat: only
  // timeout-based detection can retire it.  If anything ever SIGCONTs us,
  // die rather than resume a protocol the cube has long since given up on.
  raise(SIGSTOP);
  raise(SIGKILL);
  for (;;) pause();
}

}  // namespace aoft::transport
