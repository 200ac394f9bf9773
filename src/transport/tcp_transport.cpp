#include "transport/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "transport/wire.h"

namespace aoft::transport {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void die(const std::string& what) {
  throw std::runtime_error("tcp: " + what + " (" + std::strerror(errno) + ")");
}

void set_nonblocking(int fd) {
  const int fl = fcntl(fd, F_GETFL, 0);
  if (fl < 0 || fcntl(fd, F_SETFL, fl | O_NONBLOCK) < 0)
    die("fcntl(O_NONBLOCK)");
}

void set_nodelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

sockaddr_in make_addr(const std::string& addr, std::uint16_t port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (inet_pton(AF_INET, addr.c_str(), &sa.sin_addr) != 1)
    throw std::runtime_error("tcp: bad IPv4 address '" + addr + "'");
  return sa;
}

// Poll one fd for readability, bounded.
bool wait_readable(int fd, int timeout_ms) {
  pollfd pf{fd, POLLIN, 0};
  return ::poll(&pf, 1, timeout_ms) > 0;
}

// Copy `count` PODs off the front of a payload cursor whose size the caller
// has already checked.
template <class T>
void take_n(std::span<const unsigned char>& cur, std::vector<T>& out,
            std::size_t count) {
  out.resize(count);
  if (count == 0) return;
  std::memcpy(out.data(), cur.data(), count * sizeof(T));
  cur = cur.subspan(count * sizeof(T));
}

WireHello hello_of(cube::NodeId node) {
  WireHello hello;
  std::memcpy(hello.magic, kTcpMagic, sizeof hello.magic);
  hello.role = static_cast<std::int32_t>(node);
  return hello;
}

// One pass of a HELLO-keyed accept loop: accept whatever is pending into
// `anon`, hand each connection whose HELLO has arrived to on_hello (which
// takes it), and drop those that closed before saying anything.
template <class OnHello>
void accept_hellos(TcpListener& listener, std::vector<TcpConn>& anon,
                   const char* what, const OnHello& on_hello) {
  while (auto c = listener.accept_one()) anon.push_back(std::move(*c));
  for (auto& c : anon) {
    if (c.fd() < 0) continue;
    c.read_some();
    if (auto f = c.reader().next()) {
      WireHello hello;
      auto payload = f->payload;
      if (f->type != FrameType::kHello || !take(payload, hello) ||
          std::memcmp(hello.magic, kTcpMagic, sizeof hello.magic) != 0)
        throw std::runtime_error(std::string("tcp: bad ") + what + " hello");
      on_hello(hello, c);
    } else if (c.eof() || c.reader().malformed()) {
      c.close_fd();  // gone before its HELLO: nothing left to wait for
    }
  }
  std::erase_if(anon, [](const TcpConn& c) { return c.fd() < 0; });
}

// Upper bound on one blocked wait of a service loop: heartbeats and sweeps
// run between waits, so no loop may sleep past their cadence.
constexpr auto kServiceSlice = std::chrono::milliseconds(20);

// Append one pollfd per open connection: readable when `in` (unless its
// EOF is already latched: a finished stream would wake every wait at once),
// writable while it holds unflushed bytes.  Connections with nothing to wait
// for are left out.
void add_conn_fds(std::vector<pollfd>& pfds, std::span<const TcpConn> conns,
                  bool in) {
  for (const TcpConn& c : conns) {
    if (c.fd() < 0) continue;
    const auto events = static_cast<short>((in && !c.eof() ? POLLIN : 0) |
                                           (c.want_write() ? POLLOUT : 0));
    if (events != 0) pfds.push_back({c.fd(), events, 0});
  }
}

// Why node p's host link ended without a FINISH.  Only a child this parent
// forked has an end the host can have seen: kBackstop if the parent had
// SIGKILLed it, kExit otherwise.  A pinned or external node's EOF may be a
// network reset of a healthy node, so it is mere silence.
DeathCause eof_cause(const ChildSet* children, cube::NodeId p) {
  if (children == nullptr || !children->spawned(p)) return DeathCause::kSilence;
  return children->killed(p) ? DeathCause::kBackstop : DeathCause::kExit;
}

}  // namespace

// ---- TcpConn ----------------------------------------------------------------

TcpConn::TcpConn(TcpConn&& o) noexcept { *this = std::move(o); }

TcpConn& TcpConn::operator=(TcpConn&& o) noexcept {
  if (this != &o) {
    close_fd();
    fd_ = o.fd_;
    broken_ = o.broken_;
    eof_ = o.eof_;
    wbuf_ = std::move(o.wbuf_);
    wpos_ = o.wpos_;
    reader_ = std::move(o.reader_);
    last_tx = o.last_tx;
    o.fd_ = -1;
  }
  return *this;
}

TcpConn::~TcpConn() { close_fd(); }

void TcpConn::close_fd() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void TcpConn::queue_frame(FrameType type,
                          std::span<const unsigned char> payload) {
  if (!open()) return;  // dead peers absorb traffic, like a halted receiver
  append_frame(wbuf_, type, payload);
  flush();
}

bool TcpConn::flush() {
  if (fd_ < 0 || broken_) {
    wbuf_.clear();
    wpos_ = 0;
    return true;
  }
  while (wpos_ < wbuf_.size()) {
    const ssize_t n = ::send(fd_, wbuf_.data() + wpos_, wbuf_.size() - wpos_,
                             MSG_NOSIGNAL);
    if (n > 0) {
      wpos_ += static_cast<std::size_t>(n);
      last_tx = Clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;  // signal, not a dead peer
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    broken_ = true;  // peer gone mid-write: absorb the rest
    wbuf_.clear();
    wpos_ = 0;
    return true;
  }
  if (wpos_ == wbuf_.size()) {
    wbuf_.clear();
    wpos_ = 0;
  } else if (wpos_ > 65536) {
    wbuf_.erase(wbuf_.begin(), wbuf_.begin() + static_cast<long>(wpos_));
    wpos_ = 0;
  }
  return wpos_ == wbuf_.size();
}

std::size_t TcpConn::read_some() {
  if (fd_ < 0 || eof_) return 0;
  std::size_t total = 0;
  unsigned char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      reader_.feed({buf, static_cast<std::size_t>(n)});
      total += static_cast<std::size_t>(n);
      if (static_cast<std::size_t>(n) < sizeof buf) break;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;  // signal, not a dead peer
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    eof_ = true;  // orderly close or reset: either way the peer is gone
    break;
  }
  return total;
}

// ---- TcpListener ------------------------------------------------------------

TcpListener::TcpListener(const std::string& addr, std::uint16_t port) {
  // Close-on-exec: an exec'd node must not hold the host's listener open
  // (TcpHostEndpoint::close_listener).
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) die("socket");
  int one = 1;
  setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in sa = make_addr(addr, port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) < 0)
    die("bind " + addr);
  socklen_t len = sizeof sa;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) < 0)
    die("getsockname");
  port_ = ntohs(sa.sin_port);
  if (::listen(fd_, 128) < 0) die("listen");
  set_nonblocking(fd_);
}

TcpListener::TcpListener(TcpListener&& o) noexcept
    : fd_(o.fd_), port_(o.port_) {
  o.fd_ = -1;
}

TcpListener& TcpListener::operator=(TcpListener&& o) noexcept {
  if (this != &o) {
    close_fd();
    fd_ = o.fd_;
    port_ = o.port_;
    o.fd_ = -1;
  }
  return *this;
}

TcpListener::~TcpListener() { close_fd(); }

void TcpListener::close_fd() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::optional<TcpConn> TcpListener::accept_one() {
  if (fd_ < 0) return std::nullopt;
  const int cfd = ::accept(fd_, nullptr, nullptr);
  if (cfd < 0) return std::nullopt;
  set_nonblocking(cfd);
  set_nodelay(cfd);
  return TcpConn(cfd);
}

TcpConn tcp_dial(const std::string& addr, std::uint16_t port,
                 double timeout_s, const std::function<bool()>& abandon) {
  const sockaddr_in sa = make_addr(addr, port);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) die("socket");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) ==
        0) {
      set_nonblocking(fd);
      set_nodelay(fd);
      return TcpConn(fd);
    }
    ::close(fd);
    if (Clock::now() >= deadline)
      throw std::runtime_error("tcp: connect to " + addr + ":" +
                               std::to_string(port) + " timed out");
    if (abandon && abandon())
      throw std::runtime_error("tcp: connect to " + addr + ":" +
                               std::to_string(port) + " abandoned");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

// ---- hosts file -------------------------------------------------------------

std::vector<std::optional<HostPin>> parse_hosts_file(const std::string& path,
                                                     int num_nodes) {
  std::vector<std::optional<HostPin>> pins(
      static_cast<std::size_t>(num_nodes));
  std::ifstream in(path);
  if (!in) throw std::runtime_error("tcp: cannot open hosts file " + path);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    long id = -1;
    if (!(ls >> id)) continue;  // blank / comment-only line
    HostPin pin;
    long port = 0;
    if (id < 0 || id >= num_nodes || !(ls >> pin.addr) ||
        ((ls >> port) && (port < 0 || port > 65535)))
      throw std::runtime_error("tcp: bad hosts line " +
                               std::to_string(lineno) + " in " + path);
    pin.port = static_cast<std::uint16_t>(port);
    pins[static_cast<std::size_t>(id)] = std::move(pin);
  }
  return pins;
}

// ---- TcpNodeEndpoint --------------------------------------------------------

TcpNodeEndpoint::TcpNodeEndpoint(cube::NodeId node,
                                 const std::string& parent_addr,
                                 std::uint16_t parent_port,
                                 const std::string& listen_addr,
                                 std::uint16_t listen_port,
                                 double setup_timeout_s, pid_t host_pid)
    : me_(node),
      host_pid_(host_pid),
      listener_(listen_addr, listen_port),
      parent_(tcp_dial(parent_addr, parent_port, setup_timeout_s,
                       [this] { return orphaned(); })),
      watch_(0, 0.0) {
  scratch_.reserve(4096);

  WireHello hello = hello_of(me_);
  hello.listen_port = listener_.port();
  std::snprintf(hello.listen_addr, sizeof hello.listen_addr, "%s",
                listen_addr.c_str());
  parent_.queue_frame(FrameType::kHello, as_bytes_of(hello));

  // Block for the CONFIG broadcast — it arrives only after every node of
  // the cube has HELLOed, so this wait covers the whole fleet's rendezvous.
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(setup_timeout_s));
  std::vector<unsigned char> cfg_payload;
  for (;;) {
    parent_.flush();
    if (auto f = parent_.reader().next()) {
      if (f->type == FrameType::kConfig) {
        cfg_payload.assign(f->payload.begin(), f->payload.end());
        break;
      }
      continue;  // stray heartbeat
    }
    if (parent_.reader().malformed() || parent_gone())
      throw std::runtime_error("tcp: parent stream ended before CONFIG");
    if (Clock::now() >= deadline)
      throw std::runtime_error("tcp: CONFIG wait timed out");
    wait_readable(parent_.fd(), 50);
    parent_.read_some();
  }

  std::span<const unsigned char> cur(cfg_payload);
  if (!take(cur, cfg_) ||
      std::memcmp(cfg_.magic, kTcpMagic, sizeof cfg_.magic) != 0 ||
      cfg_.version != kTcpConfigVersion ||
      cfg_.for_node != static_cast<std::int32_t>(me_))
    throw std::runtime_error("tcp: CONFIG head corrupt");
  if (const std::string why = job_config_error(cfg_); !why.empty())
    throw std::runtime_error("tcp: CONFIG carries a bad job: " + why);
  dim_ = static_cast<int>(cfg_.dim);
  if (cfg_payload.size() !=
      config_frame_bytes(dim_, cfg_.block, cfg_.with_resume != 0))
    throw std::runtime_error("tcp: CONFIG size disagrees with its head");
  const cube::NodeId n = cube::NodeId{1} << dim_;
  const std::size_t keys = static_cast<std::size_t>(n) * cfg_.block;
  take_n(cur, faults_, n);
  take_n(cur, port_map_, n);
  take_n(cur, input_, keys);
  take_n(cur, llbs_, cfg_.with_resume ? keys : 0);

  peers_.resize(static_cast<std::size_t>(dim_));
  watch_ = PeerWatch(dim_, cfg_.heartbeat_loss_s);
}

TcpNodeEndpoint::~TcpNodeEndpoint() = default;

TcpConn& TcpNodeEndpoint::neighbor(cube::NodeId q) {
  return peers_[static_cast<std::size_t>(std::countr_zero(me_ ^ q))];
}

void TcpNodeEndpoint::connect_peers() {
  const auto now = Clock::now();
  // Every wait below also reads the host link, so a dead host ends the mesh.
  const auto host_gone = [this] {
    parent_.read_some();
    return parent_gone();
  };
  int expect_accept = 0;
  for (int k = 0; k < dim_; ++k) {
    const cube::NodeId q = me_ ^ (cube::NodeId{1} << k);
    if (q < me_) {
      // Every node listens before it HELLOs and CONFIG follows the last
      // HELLO, so the lower neighbor is already accepting.
      peers_[static_cast<std::size_t>(k)] = tcp_dial(
          port_map_[q].addr, port_map_[q].port, cfg_.recv_timeout_s, host_gone);
      peers_[static_cast<std::size_t>(k)].queue_frame(
          FrameType::kHello, as_bytes_of(hello_of(me_)));
    } else {
      ++expect_accept;
    }
  }

  std::vector<TcpConn> anon;
  std::vector<pollfd> pfds;
  const auto deadline =
      now + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(cfg_.recv_timeout_s));
  while (expect_accept > 0) {
    if (Clock::now() >= deadline)
      throw std::runtime_error("tcp: peer mesh accept timed out");
    if (host_gone())
      throw std::runtime_error("tcp: parent stream ended during the mesh");
    accept_hellos(listener_, anon, "peer",
                  [&](const WireHello& hello, TcpConn& c) {
      const auto q = static_cast<cube::NodeId>(hello.role);
      if (std::popcount(me_ ^ q) != 1 || q < me_)
        throw std::runtime_error("tcp: peer hello from non-neighbor");
      neighbor(q) = std::move(c);
      --expect_accept;
    });
    if (expect_accept == 0) break;
    pfds.assign({{listener_.fd(), POLLIN, 0}});
    add_conn_fds(pfds, {&parent_, 1}, true);
    add_conn_fds(pfds, anon, true);
    poll_until(pfds, deadline);
  }
  listener_.close_fd();
  // kRunning, but each peer's silence rule stays un-armed until it is first
  // heard from — a neighbor may still be meshing with ITS other neighbors.
  for (int k = 0; k < dim_; ++k) watch_.mark_up(k, Clock::now());
  // Announce liveness right away: the regular cadence only starts once the
  // machine reaches its pump loop, which is an entire block-local sort from
  // here, and peers / the host arm their watchdogs on this first beat.
  if (cfg_.heartbeat_interval_s > 0) {
    parent_.queue_frame(FrameType::kHeartbeat, {});
    for (auto& c : peers_) c.queue_frame(FrameType::kHeartbeat, {});
  }
}

// Frames carry the whole window, cover or not: a tcp frame has no holes.
void TcpNodeEndpoint::send_node(cube::NodeId, cube::NodeId to,
                                const sim::Message& m,
                                std::span<const sim::Key> lbs,
                                std::optional<cube::MaskCover>) {
  encode_message(m, lbs, scratch_);
  neighbor(to).queue_frame(FrameType::kData, scratch_);
}

void TcpNodeEndpoint::send_host(cube::NodeId, const sim::Message& m,
                                std::span<const sim::Key> lbs) {
  encode_message(m, lbs, scratch_);
  parent_.queue_frame(FrameType::kData, scratch_);
}

void TcpNodeEndpoint::send_from_host(cube::NodeId, const sim::Message&,
                                     std::span<const sim::Key>) {
  throw std::logic_error("tcp: node endpoint cannot send as host");
}

bool TcpNodeEndpoint::service() {
  const auto now = Clock::now();
  const bool was_empty = inbox_.empty();

  const auto drain = [&](TcpConn& c, int k, bool from_host) {
    if (!c.open() && !c.eof()) return;
    if (c.read_some() > 0 && k >= 0) watch_.note_activity(k, now);
    while (auto f = c.reader().next()) {
      if (f->type == FrameType::kData)
        inbox_.push_back(
            {from_host, {f->payload.begin(), f->payload.end()}});
      // heartbeats carry no payload; their bytes already refreshed last_rx
    }
    if (c.reader().malformed())
      throw std::runtime_error("tcp: corrupt stream from peer");
    // A neighbour's EOF only steers this node's own waits; the host never
    // sees this verdict (it would be an accusation, not an observation).
    if (c.eof() && k >= 0) watch_.mark_dead(k, DeathCause::kExit);
  };

  drain(parent_, -1, true);
  for (int k = 0; k < dim_; ++k)
    drain(peers_[static_cast<std::size_t>(k)], k, false);

  // Our own liveness: beat every transmit-idle link so blocked peers (and
  // the host's wedge detector) keep seeing a live neighbor.
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(cfg_.heartbeat_interval_s));
  const auto beat = [&](TcpConn& c) {
    if (!c.open()) return;
    if (now - c.last_tx >= interval) c.queue_frame(FrameType::kHeartbeat, {});
    c.flush();
  };
  if (cfg_.heartbeat_interval_s > 0) {
    beat(parent_);
    for (auto& c : peers_) beat(c);
  } else {
    parent_.flush();
    for (auto& c : peers_) c.flush();
  }

  watch_.sweep(now);
  return was_empty && !inbox_.empty();
}

std::size_t TcpNodeEndpoint::pump(sim::KeyPool& pool, const Deliver& deliver) {
  service();
  std::size_t delivered = 0;
  while (!inbox_.empty()) {
    Pending rec = std::move(inbox_.front());
    inbox_.pop_front();
    sim::Message m(pool);
    if (!decode_message(rec.bytes, pool, m))
      throw std::runtime_error("tcp: data frame corrupt");
    deliver(rec.from_host, m.from, std::move(m));
    ++delivered;
  }
  if (delivered > 0) waiting_ = false;
  return delivered;
}

bool TcpNodeEndpoint::wait_activity(std::span<const cube::NodeId> peers) {
  const auto now = Clock::now();
  if (!waiting_) {
    waiting_ = true;
    wait_start_ = now;
  }

  if (service()) return true;  // fresh data: let the machine pump

  // An orphaned node can never receive again: its host (and the cube around
  // it) is gone.  Mirrors the shm getppid() check.
  if (parent_gone()) return false;

  if (!peers.empty()) {
    bool all_down = true;
    for (cube::NodeId q : peers)
      all_down = all_down &&
                 watch_.terminal(std::countr_zero(me_ ^ q));
    // service() drained every complete frame into the inbox, so an empty
    // inbox here means the dead peers' streams really are exhausted.
    if (all_down && inbox_.empty()) return false;
  }

  const double waited =
      std::chrono::duration<double>(now - wait_start_).count();
  if (waited > cfg_.recv_timeout_s) return false;

  // Sleep on the sockets until data, writability or the next service tick.
  std::vector<pollfd> pfds;
  add_conn_fds(pfds, {&parent_, 1}, true);
  add_conn_fds(pfds, peers_, true);
  poll_until(pfds, Clock::now() + kServiceSlice);
  return true;
}

void TcpNodeEndpoint::finish(SlotState state, const FinishHead& head,
                             std::span<const WireError> errors,
                             std::span<const WireLinkEvent> events,
                             std::span<const sim::Key> output) {
  std::vector<unsigned char> payload;
  FinishHead h = head;
  h.node = static_cast<std::int32_t>(me_);
  h.state = static_cast<std::uint32_t>(state);
  h.error_count = static_cast<std::uint32_t>(errors.size());
  h.event_count = static_cast<std::uint32_t>(events.size());
  h.out_count = static_cast<std::uint32_t>(output.size());
  const auto append = [&payload](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    payload.insert(payload.end(), b, b + n);
  };
  append(&h, sizeof h);
  append(errors.data(), errors.size_bytes());
  append(events.data(), events.size_bytes());
  append(output.data(), output.size_bytes());
  parent_.queue_frame(FrameType::kFinish, payload);

  // Flush everything still buffered (final exchange traffic included) before
  // closing; a peer that will not drain us is itself dead, so bound the try.
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  std::vector<pollfd> pfds;
  for (;;) {
    bool done = parent_.flush();
    for (auto& c : peers_) done = c.flush() && done;
    if (done || Clock::now() >= deadline) break;
    pfds.clear();
    add_conn_fds(pfds, {&parent_, 1}, false);
    add_conn_fds(pfds, peers_, false);
    poll_until(pfds, deadline);
  }
  parent_.close_fd();
  for (auto& c : peers_) c.close_fd();
}

// ---- TcpHostEndpoint --------------------------------------------------------

TcpHostEndpoint::TcpHostEndpoint(int dim, const TcpOptions& opts)
    : dim_(dim),
      n_(cube::NodeId{1} << dim),
      opts_(opts),
      addr_(opts.listen_addr),
      listener_(opts.listen_addr, opts.port),
      conns_(n_),
      port_map_(n_),
      slots_(n_),
      watch_(static_cast<int>(n_), opts.heartbeat_loss_s) {
  scratch_.reserve(4096);
}

void TcpHostEndpoint::rendezvous(double setup_timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(setup_timeout_s));
  cube::NodeId helloed = 0;
  std::vector<pollfd> pfds;
  while (helloed < n_) {
    if (Clock::now() >= deadline)
      throw std::runtime_error("tcp: rendezvous timed out with " +
                               std::to_string(helloed) + "/" +
                               std::to_string(n_) + " nodes");
    if (host_poll_) host_poll_();  // notice children that died pre-HELLO
    accept_hellos(listener_, anonymous_, "node",
                  [&](const WireHello& hello, TcpConn& c) {
      if (hello.role < 0 || static_cast<cube::NodeId>(hello.role) >= n_)
        throw std::runtime_error("tcp: bad node hello");
      const auto p = static_cast<cube::NodeId>(hello.role);
      if (conns_[p].fd() >= 0)
        throw std::runtime_error("tcp: duplicate hello from node " +
                                 std::to_string(p));
      std::snprintf(port_map_[p].addr, sizeof port_map_[p].addr, "%s",
                    hello.listen_addr);
      port_map_[p].port = hello.listen_port;
      conns_[p] = std::move(c);
      // kRunning, silence rule un-armed: the node is rightfully quiet until
      // CONFIG reaches it and its mesh completes (minutes, under --hosts);
      // its first post-mesh heartbeat arms the watchdog.
      watch_.mark_up(static_cast<int>(p), Clock::now());
      ++helloed;
    });
    if (helloed == n_) break;
    pfds.assign({{listener_.fd(), POLLIN, 0}});
    add_conn_fds(pfds, anonymous_, true);
    if (children_) children_->add_pollfds(pfds);
    poll_until(pfds, deadline);
  }
}

void TcpHostEndpoint::broadcast_config(TcpConfigHead head,
                                       std::span<const WireFault> faults,
                                       std::span<const sim::Key> input,
                                       std::span<const sim::Key> llbs) {
  std::memcpy(head.magic, kTcpMagic, sizeof head.magic);
  head.version = kTcpConfigVersion;
  head.dim = static_cast<std::uint32_t>(dim_);
  head.recv_timeout_s = opts_.recv_timeout_s;
  head.heartbeat_interval_s = opts_.heartbeat_interval_s;
  // Grow the silence bound with the block (the longest compute burst a node
  // performs without touching its sockets) and hold the host's own watchdog
  // to the same scaled value the nodes will sweep with.
  head.heartbeat_loss_s = scaled_heartbeat_loss(opts_.heartbeat_loss_s,
                                                head.block);
  watch_.set_loss(head.heartbeat_loss_s);
  std::vector<unsigned char> payload;
  for (cube::NodeId p = 0; p < n_; ++p) {
    head.for_node = static_cast<std::int32_t>(p);
    payload.clear();
    const auto append = [&payload](const void* ptr, std::size_t bytes) {
      const auto* b = static_cast<const unsigned char*>(ptr);
      payload.insert(payload.end(), b, b + bytes);
    };
    append(&head, sizeof head);
    append(faults.data(), faults.size_bytes());
    append(port_map_.data(), port_map_.size() * sizeof(WirePortEntry));
    append(input.data(), input.size_bytes());
    append(llbs.data(), llbs.size_bytes());
    conns_[p].queue_frame(FrameType::kConfig, payload);
  }
}

void TcpHostEndpoint::handle_frame(cube::NodeId p, const Frame& f) {
  switch (f.type) {
    case FrameType::kData:
      inbox_.push_back({p, {f.payload.begin(), f.payload.end()}});
      return;
    case FrameType::kHeartbeat:
      return;  // bytes already refreshed last_rx
    case FrameType::kFinish: {
      TcpSlot& s = slots_[p];
      auto cur = f.payload;
      if (!take(cur, s.head) ||
          s.head.node != static_cast<std::int32_t>(p) ||
          cur.size() != s.head.error_count * sizeof(WireError) +
                            s.head.event_count * sizeof(WireLinkEvent) +
                            s.head.out_count * sizeof(sim::Key))
        throw std::runtime_error("tcp: finish frame corrupt");
      take_n(cur, s.errors, s.head.error_count);
      take_n(cur, s.events, s.head.event_count);
      take_n(cur, s.output, s.head.out_count);
      s.state = static_cast<SlotState>(s.head.state);
      watch_.mark_finished(static_cast<int>(p), s.state);
      return;
    }
    default:
      throw std::runtime_error("tcp: unexpected frame from node");
  }
}

bool TcpHostEndpoint::service() {
  const auto now = Clock::now();
  const bool was_empty = inbox_.empty();
  for (cube::NodeId p = 0; p < n_; ++p) {
    TcpConn& c = conns_[p];
    if (c.fd() < 0) continue;
    if (c.read_some() > 0) watch_.note_activity(static_cast<int>(p), now);
    while (auto f = c.reader().next()) handle_frame(p, *f);
    if (c.reader().malformed())
      throw std::runtime_error("tcp: corrupt stream from node " +
                               std::to_string(p));
    if (c.eof()) {
      // kDone/kFailed stay put.
      watch_.mark_dead(static_cast<int>(p), eof_cause(children_, p));
      c.close_fd();
    } else {
      c.flush();
    }
  }
  watch_.sweep(now);
  // Mirror the sweep into the result slots so collectors see kDead for
  // wedged peers that never EOF'd.
  for (cube::NodeId p = 0; p < n_; ++p)
    if (!slot_terminal(slots_[p].state))
      slots_[p].state = watch_.state(static_cast<int>(p));
  return was_empty && !inbox_.empty();
}

std::size_t TcpHostEndpoint::pump(sim::KeyPool& pool, const Deliver& deliver) {
  service();
  std::size_t delivered = 0;
  while (!inbox_.empty()) {
    Pending rec = std::move(inbox_.front());
    inbox_.pop_front();
    sim::Message m(pool);
    if (!decode_message(rec.bytes, pool, m))
      throw std::runtime_error("tcp: data frame corrupt");
    deliver(false, rec.from, std::move(m));
    ++delivered;
  }
  if (delivered > 0) waiting_ = false;
  return delivered;
}

bool TcpHostEndpoint::wait_activity(std::span<const cube::NodeId>) {
  const auto now = Clock::now();
  if (!waiting_) {
    waiting_ = true;
    wait_start_ = now;
  }
  if (host_poll_) host_poll_();
  if (service()) return true;
  if (watch_.all_terminal() && inbox_.empty()) return false;

  // No open connection means every node is dead, so the return above fired.
  std::vector<pollfd> pfds;
  add_conn_fds(pfds, conns_, true);
  poll_until(pfds, Clock::now() + kServiceSlice);
  return true;
}

void TcpHostEndpoint::await_all() {
  std::vector<pollfd> pfds;
  while (!watch_.all_terminal()) {
    if (host_poll_) host_poll_();
    service();
    if (watch_.all_terminal()) break;
    pfds.clear();
    add_conn_fds(pfds, conns_, true);
    poll_until(pfds, Clock::now() + kServiceSlice);
  }
  service();  // collect any FINISH that raced the final sweep
}

void TcpHostEndpoint::send_node(cube::NodeId, cube::NodeId,
                                const sim::Message&, std::span<const sim::Key>,
                                std::optional<cube::MaskCover>) {
  throw std::logic_error("tcp: host endpoint cannot send node-to-node");
}

void TcpHostEndpoint::send_host(cube::NodeId, const sim::Message&,
                                std::span<const sim::Key>) {
  throw std::logic_error("tcp: host endpoint cannot send to itself");
}

void TcpHostEndpoint::send_from_host(cube::NodeId to, const sim::Message& m,
                                     std::span<const sim::Key> lbs) {
  encode_message(m, lbs, scratch_);
  conns_[to].queue_frame(FrameType::kData, scratch_);
}

// ---- TcpParent --------------------------------------------------------------

TcpParent::TcpParent(int dim, double run_deadline_s)
    : children_(cube::NodeId{1} << dim, run_deadline_s) {}

void TcpParent::spawn_fork(const std::function<int(cube::NodeId)>& child_main,
                           const std::vector<std::optional<HostPin>>& pins) {
  for (cube::NodeId p = 0; p < children_.size(); ++p) {
    if (p < pins.size() && pins[p]) continue;  // external node
    children_.spawn(p, [&] { return child_main(p); });
  }
}

void TcpParent::spawn_exec(const std::string& binary,
                           const std::string& parent_addr,
                           std::uint16_t parent_port,
                           const std::vector<std::optional<HostPin>>& pins) {
  const std::string connect_arg =
      "--connect=" + parent_addr + ":" + std::to_string(parent_port);
  for (cube::NodeId p = 0; p < children_.size(); ++p)
    if (p >= pins.size() || !pins[p])
      children_.spawn_exec(p, binary, connect_arg);
}

void TcpParent::poll() { children_.poll(); }

void TcpParent::kill_all() { children_.kill_and_reap(); }

void TcpParent::await_exits() {
  // Verdicts are already in (the host link saw every node terminal); give
  // well-behaved children a moment to _exit, then SIGKILL stragglers — a
  // wedged (SIGSTOPped) child never exits on its own.
  const auto grace = Clock::now() + std::chrono::milliseconds(500);
  for (;;) {
    children_.poll();
    if (children_.all_reaped()) return;
    if (Clock::now() >= grace) break;
    children_.wait(grace);
  }
  kill_all();
}

}  // namespace aoft::transport
