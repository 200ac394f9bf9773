// sim::RemoteLink over TCP sockets: the per-process endpoint drivers for the
// kTcp backend (docs/PROTOCOL.md §13).
//
// Topology of one run: every node process dials the parent's rendezvous
// socket, HELLOs with the ephemeral port it bound for itself, and blocks for
// the CONFIG broadcast (job config + fault scripts + port map + input keys —
// the same payload the shm SegmentHeader carries).  Nodes then build the
// hypercube's peer mesh directly: node p dials each neighbor q = p^2^k with
// q < p and accepts the neighbors with q > p, so every physical link of the
// cube is one TCP connection and node programs run completely unmodified.
//
// Death detection is the tentpole difference from shm: there is no shared
// segment for a parent authority to flip slots in, so each endpoint runs its
// own PeerWatch — connection EOF means the peer's process is gone (the
// kernel FINs a SIGKILLed process's sockets immediately), and heartbeat
// silence beyond heartbeat_loss_s catches a *wedged* peer that neither
// speaks nor exits.  Both transition the peer to the same terminal kDead
// state a reaped shm child gets, and `recv_timeout_s` remains the absolute
// backstop on any wait episode, so Environmental Assumption 4 (message
// absence is detectable) holds with the identical failure semantics.

#pragma once

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/remote.h"
#include "transport/backend.h"
#include "transport/frame.h"
#include "transport/peer_watch.h"
#include "transport/process.h"

namespace aoft::transport {

// ---- socket plumbing --------------------------------------------------------

// One nonblocking framed connection.  Public because the framing tests drive
// it over socketpair()s to exercise partial reads and short writes.
class TcpConn {
 public:
  TcpConn() = default;
  explicit TcpConn(int fd) : fd_(fd) {}
  TcpConn(TcpConn&& o) noexcept;
  TcpConn& operator=(TcpConn&& o) noexcept;
  TcpConn(const TcpConn&) = delete;
  TcpConn& operator=(const TcpConn&) = delete;
  ~TcpConn();

  int fd() const { return fd_; }
  bool open() const { return fd_ >= 0 && !broken_; }
  void close_fd();

  // Queue one frame and try to flush what's buffered.  Never blocks, never
  // throws on a dead peer: a broken connection silently absorbs traffic,
  // exactly like a sim channel whose receiver halted.
  void queue_frame(FrameType type, std::span<const unsigned char> payload);

  // Push buffered bytes out (nonblocking).  Returns true when the write
  // buffer is empty.
  bool flush();
  bool want_write() const { return wpos_ < wbuf_.size(); }

  // Drain the kernel's receive buffer into the frame reader.  Returns the
  // byte count read; 0 with eof() set once the peer closed; 0 without eof()
  // when the read would block.
  std::size_t read_some();
  bool eof() const { return eof_; }

  FrameReader& reader() { return reader_; }

  std::chrono::steady_clock::time_point last_tx{};

 private:
  int fd_ = -1;
  bool broken_ = false;
  bool eof_ = false;
  std::vector<unsigned char> wbuf_;
  std::size_t wpos_ = 0;
  FrameReader reader_;
};

// Bound listening socket (SO_REUSEADDR, nonblocking).  port 0 picks an
// ephemeral port; `port()` reports the real one.  Throws std::runtime_error
// on any socket failure.
class TcpListener {
 public:
  TcpListener() = default;
  TcpListener(const std::string& addr, std::uint16_t port);
  TcpListener(TcpListener&& o) noexcept;
  TcpListener& operator=(TcpListener&& o) noexcept;
  TcpListener(const TcpListener&) = delete;
  ~TcpListener();

  int fd() const { return fd_; }
  std::uint16_t port() const { return port_; }
  void close_fd();

  // Accept one pending connection (nonblocking, TCP_NODELAY applied), or
  // nullopt when none is pending.
  std::optional<TcpConn> accept_one();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

// Blocking connect with retry until `timeout_s` (the target may not be
// listening yet), or until `abandon`, asked before each retry, returns
// true.  Returns a nonblocking TCP_NODELAY connection; throws
// std::runtime_error on timeout or abandonment.
TcpConn tcp_dial(const std::string& addr, std::uint16_t port,
                 double timeout_s, const std::function<bool()>& abandon = {});

// ---- hosts file -------------------------------------------------------------

// `--hosts=FILE`: pin nodes to external machines.  Line format
//     <node-id> <addr> [<port>]
// ('#' comments, blank lines ignored).  A pinned node is NOT spawned by the
// parent — the operator launches `aoft_node --connect=<parent> --node=<id>`
// on that machine and the rendezvous pairs it up.  The addr/port here is
// only advisory (which address the node should bind); the authoritative
// port map is built from the HELLOs.
struct HostPin {
  std::string addr;
  std::uint16_t port = 0;  // 0: ephemeral
};
std::vector<std::optional<HostPin>> parse_hosts_file(const std::string& path,
                                                     int num_nodes);

// ---- node endpoint ----------------------------------------------------------

// Result of one node's run, as published by its FINISH frame.  Mirrors
// NodeSlot so the sort layer assembles SortRun identically on both
// multi-process backends.
struct TcpSlot {
  SlotState state = SlotState::kIdle;
  FinishHead head{};
  std::vector<WireError> errors;
  std::vector<WireLinkEvent> events;
  std::vector<sim::Key> output;
};

class TcpNodeEndpoint final : public sim::RemoteLink {
 public:
  // Dials the parent, HELLOs, and blocks until the CONFIG broadcast arrives
  // (bounded by setup_timeout_s).  After construction config()/faults()/
  // input()/llbs()/port_map() are valid.  Throws std::runtime_error on any
  // setup failure.  A node the host forked passes the host's pid: the node
  // then also takes the host for gone once it is no longer its parent, as
  // shm nodes do, which covers the dial before the host link exists.
  TcpNodeEndpoint(cube::NodeId node, const std::string& parent_addr,
                  std::uint16_t parent_port, const std::string& listen_addr,
                  std::uint16_t listen_port, double setup_timeout_s,
                  pid_t host_pid = 0);
  ~TcpNodeEndpoint() override;

  const TcpConfigHead& config() const { return cfg_; }
  const std::vector<WireFault>& faults() const { return faults_; }
  const std::vector<sim::Key>& input() const { return input_; }
  const std::vector<sim::Key>& llbs() const { return llbs_; }

  // Build the peer mesh from the port map: dial lower neighbors, accept
  // higher ones, then drop the listen socket.  Must complete before the
  // machine runs; throws on timeout.
  void connect_peers();

  // Publish the terminal FINISH frame (flushing all buffered peer traffic
  // first) and close every connection.
  void finish(SlotState state, const FinishHead& head,
              std::span<const WireError> errors,
              std::span<const WireLinkEvent> events,
              std::span<const sim::Key> output);

  // sim::RemoteLink
  void send_node(cube::NodeId from, cube::NodeId to, const sim::Message& m,
                 std::span<const sim::Key> lbs,
                 std::optional<cube::MaskCover> cover) override;
  void send_host(cube::NodeId from, const sim::Message& m,
                 std::span<const sim::Key> lbs) override;
  void send_from_host(cube::NodeId to, const sim::Message& m,
                      std::span<const sim::Key> lbs) override;
  std::size_t pump(sim::KeyPool& pool, const Deliver& deliver) override;
  bool wait_activity(std::span<const cube::NodeId> peers) override;

 private:
  struct Pending {
    bool from_host;
    std::vector<unsigned char> bytes;  // encode_message record
  };

  TcpConn& neighbor(cube::NodeId q);
  // Read every open connection, queue kData, track liveness; send due
  // heartbeats; flush write buffers.  Returns true if any inbound data
  // frame arrived.
  bool service();

  // The host is gone: this forked node has a new parent, or the host link
  // ended (read to its EOF, or broken by a failed write).  Every setup wait
  // and wait_activity give up on it, so a killed host's nodes exit at once.
  bool orphaned() const { return host_pid_ != 0 && getppid() != host_pid_; }
  bool parent_gone() const {
    return orphaned() || parent_.eof() || !parent_.open();
  }

  cube::NodeId me_;
  pid_t host_pid_;  // 0 unless the host forked this node
  int dim_ = 0;
  TcpConfigHead cfg_{};
  std::vector<WireFault> faults_;
  std::vector<WirePortEntry> port_map_;
  std::vector<sim::Key> input_, llbs_;

  TcpListener listener_;
  TcpConn parent_;
  std::vector<TcpConn> peers_;  // indexed by dimension k
  PeerWatch watch_;             // indexed by dimension k
  std::deque<Pending> inbox_;
  std::vector<unsigned char> scratch_;

  bool waiting_ = false;
  std::chrono::steady_clock::time_point wait_start_{};
};

// ---- host endpoint ----------------------------------------------------------

class TcpHostEndpoint final : public sim::RemoteLink {
 public:
  TcpHostEndpoint(int dim, const TcpOptions& opts);

  std::uint16_t port() const { return listener_.port(); }
  const std::string& addr() const { return addr_; }

  // In a node forked after this endpoint was built: close the child's copy
  // of the listening socket.  While any copy is open, a node's connection
  // still in the accept backlog outlives a killed host, so the node sees no
  // EOF and waits out its whole CONFIG deadline.  (Exec'd nodes never hold
  // one: the socket is close-on-exec.)
  void close_listener() { listener_.close_fd(); }

  // Invoked on every wait iteration so the parent process manager can reap
  // zombies and enforce the run deadline (mirrors ShmTransport's hook).
  // When `poll` reaps `children`, pass them too: the rendezvous then also
  // wakes on their pidfds, so a child that dies before HELLO is reaped at
  // once rather than at the next connection event.  `children` also decides
  // an EOF's death cause: kExit only for a child of that set, kBackstop
  // after the set's own SIGKILL, kSilence for any other node.
  void set_host_poll(std::function<void()> poll,
                     const ChildSet* children = nullptr) {
    host_poll_ = std::move(poll);
    children_ = children;
  }

  // Accept connections until every node has HELLOed (bounded by
  // setup_timeout_s; throws on expiry), sleeping in poll() on the listener,
  // the not-yet-HELLOed connections and the children's pidfds.  Builds the
  // authoritative port map.
  void rendezvous(double setup_timeout_s);

  // Send each node its CONFIG: `head` plus faults/port-map/input/llbs tail
  // (magic, version and dim are stamped here, for_node per recipient).
  void broadcast_config(TcpConfigHead head,
                        std::span<const WireFault> faults,
                        std::span<const sim::Key> input,
                        std::span<const sim::Key> llbs);

  // Service the fleet until every node is terminal and all FINISH results
  // are in (the non-checkpoint wait; checkpoint-mode hosts instead run a
  // Machine whose idle hook pumps this link).
  void await_all();

  TcpSlot& slot(cube::NodeId p) { return slots_[p]; }
  // Why node p was declared dead, if it was: kExit on a host-link EOF or
  // reset without FINISH from a child the parent forked, kBackstop on an
  // EOF the parent's own SIGKILL caused, kSilence on heartbeat loss or on a
  // pinned node's EOF (first verdict wins).
  std::optional<DeathCause> death(cube::NodeId p) const {
    return watch_.death(static_cast<int>(p));
  }

  // sim::RemoteLink
  void send_node(cube::NodeId from, cube::NodeId to, const sim::Message& m,
                 std::span<const sim::Key> lbs,
                 std::optional<cube::MaskCover> cover) override;
  void send_host(cube::NodeId from, const sim::Message& m,
                 std::span<const sim::Key> lbs) override;
  void send_from_host(cube::NodeId to, const sim::Message& m,
                      std::span<const sim::Key> lbs) override;
  std::size_t pump(sim::KeyPool& pool, const Deliver& deliver) override;
  bool wait_activity(std::span<const cube::NodeId> peers) override;

 private:
  struct Pending {
    cube::NodeId from;
    std::vector<unsigned char> bytes;
  };

  bool service();
  void handle_frame(cube::NodeId p, const Frame& f);

  int dim_;
  cube::NodeId n_;
  TcpOptions opts_;
  std::string addr_;
  TcpListener listener_;
  std::vector<TcpConn> conns_;        // indexed by node, valid after rendezvous
  std::vector<TcpConn> anonymous_;    // accepted, HELLO not yet seen
  std::vector<WirePortEntry> port_map_;
  std::vector<TcpSlot> slots_;
  PeerWatch watch_;  // indexed by node
  std::deque<Pending> inbox_;
  std::vector<unsigned char> scratch_;
  std::function<void()> host_poll_;
  const ChildSet* children_ = nullptr;

  bool waiting_ = false;
  std::chrono::steady_clock::time_point wait_start_{};
};

// ---- local process fleet ----------------------------------------------------

// Child-process lifecycle for locally spawned tcp nodes.  Unlike ShmParent,
// this is NOT the death-detection authority — sockets are (EOF/heartbeat in
// the endpoints above).  Reaping here only collects zombies and enforces the
// run deadline; await_exits SIGKILLs stragglers (a wedged child never exits
// on its own) once the host link has its verdicts.  Destruction SIGKILLs
// and reaps whatever is left, so a throw mid-run leaks no child.
class TcpParent {
 public:
  TcpParent(int dim, double run_deadline_s);

  // Fork one child per non-pinned node; each runs child_main(p) and _exits
  // with its return value.
  void spawn_fork(const std::function<int(cube::NodeId)>& child_main,
                  const std::vector<std::optional<HostPin>>& pins);

  // Fork+exec `binary --connect=<addr>:<port> --node=<p>` per non-pinned
  // node (tools/aoft_node is the standard launcher).
  void spawn_exec(const std::string& binary, const std::string& parent_addr,
                  std::uint16_t parent_port,
                  const std::vector<std::optional<HostPin>>& pins);

  // Reap zombies without blocking; SIGKILL the fleet once the run deadline
  // expires.  Safe to call repeatedly.
  void poll();

  // SIGKILL every still-live child, then reap them all.
  void kill_all();
  // Wait on the children's pidfds for up to a 500 ms grace, then kill_all.
  void await_exits();

  const ChildSet& children() const { return children_; }

 private:
  ChildSet children_;
};

}  // namespace aoft::transport
