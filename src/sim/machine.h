// The simulated hypercube multicomputer.
//
// A Machine owns: the topology, one context per node (private memory, logical
// clock, link endpoints), a host processor with reliable links to every node,
// a deterministic cooperative scheduler, and an optional link-level fault
// interceptor.  It implements exactly the paper's environmental assumptions
// (§3):
//
//   1. node-node links and node processors may be Byzantine (the interceptor
//      and adversarial node programs model this),
//   2. the host and the host links are reliable (no interception there),
//   3. only point-to-point messages, no atomic broadcast,
//   4. message absence is detectable (scheduler watchdog),
//   5. all nodes are sane at start-up.
//
// Node programs are coroutines written against Ctx; the optional host program
// runs against HostCtx.  Lifetime note: Machine::run keeps the program
// callables alive until every coroutine finishes, and coroutine lambdas must
// not outlive their closure, so programs are passed by const reference and
// copied into the run frame.

#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hypercube/masks.h"
#include "hypercube/topology.h"
#include "sim/channel.h"
#include "sim/cost_model.h"
#include "sim/message.h"
#include "sim/pool.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace aoft::sim {

// Which executable assertion (or condition) raised a fail-stop error.
enum class ErrorSource : std::uint8_t {
  kPhiP,     // progress: sequence not bitonic
  kPhiF,     // feasibility: sequence not complete w.r.t. the previous one
  kPhiC,     // consistency: redundant copies disagree
  kTimeout,  // expected message absent (watchdog)
  kApp,      // application-defined assertion
};

const char* to_string(ErrorSource s);

struct ErrorReport {
  cube::NodeId node = 0;
  int stage = -1;
  int iter = -1;
  ErrorSource source = ErrorSource::kApp;
  std::string detail;
};

struct NodeStats {
  double clock = 0.0;       // logical time at completion
  double comp_ticks = 0.0;  // charged computation
  double comm_ticks = 0.0;  // charged send/receive overhead (excludes waiting)
  std::uint64_t msgs_sent = 0;
  std::uint64_t words_sent = 0;
};

struct RunSummary {
  double elapsed = 0.0;    // max final clock over nodes and host
  double max_comm = 0.0;   // max per-node communication ticks
  double max_comp = 0.0;   // max per-node computation ticks
  double host_comm = 0.0;  // host communication ticks
  double host_comp = 0.0;  // host computation ticks
  std::uint64_t total_msgs = 0;
  std::uint64_t total_words = 0;
  int watchdog_rounds = 0;
};

class Machine;
class RemoteLink;  // sim/remote.h

// Per-node view of the machine: the only interface node programs may use.
class Ctx {
 public:
  cube::NodeId id() const { return id_; }
  const cube::Topology& topo() const;
  int dim() const { return topo().dimension(); }

  double clock() const { return stats_.clock; }
  void charge(double ticks) {
    stats_.clock += ticks;
    stats_.comp_ticks += ticks;
  }

  // Non-blocking send over the hypercube link to an adjacent node.  Subject
  // to fault interception.
  void send(cube::NodeId to, Message m);

  // As above, with `lbs` as the message's LBS payload (m.lbs must be empty).
  // The span is read before send returns.  When a remote link carries the
  // message and no interceptor sees it, the link gathers the span straight
  // onto the wire, and may leave out every cell outside `cover`, the mask
  // the receiver reads the window through (sim/remote.h); otherwise the
  // whole span is copied into m.lbs first, because a local receiver runs
  // after the sender has moved on and an interceptor may mutate the
  // message.  Costs, link events and metrics count the same words either way.
  void send(cube::NodeId to, Message m, std::span<const Key> lbs,
            cube::MaskCover cover);

  // Awaitable receive from the link to an adjacent node.
  Channel::RecvAwaiter recv(cube::NodeId from);

  // Receive-side cost accounting; protocols call this once per successfully
  // received message: the clock advances to the message arrival time (waiting
  // is not separately charged) plus the receive overhead.
  void account_recv(const Message& m);

  // Reliable host link; the lbs overload borrows like send's above.
  void send_host(Message m);
  void send_host(Message m, std::span<const Key> lbs);
  Channel::RecvAwaiter recv_host();

  // Record a fail-stop diagnostic and notify the host (reliable).
  void error(ErrorReport r);

  // The machine's key pool; protocols build pooled Messages/KeyBufs from it.
  KeyPool& pool();

  // True when this node runs in its own OS process, its machine attached to
  // a RemoteLink — where process-level faults (kill, wedge) are real.
  bool remote() const;

  const NodeStats& stats() const { return stats_; }

 private:
  friend class Machine;
  void check_link(cube::NodeId to) const;
  // Charge a send of `words` key words at `cost` and stamp m's arrival.
  void stamp_send(Message& m, double cost, std::size_t words);

  Machine* machine_ = nullptr;
  cube::NodeId id_ = 0;
  NodeStats stats_;
};

// The host processor's view.
class HostCtx {
 public:
  const cube::Topology& topo() const;

  double clock() const { return stats_.clock; }
  void charge(double ticks) {
    stats_.clock += ticks;
    stats_.comp_ticks += ticks;
  }

  void send(cube::NodeId to, Message m);
  Channel::RecvAwaiter recv();  // shared inbox: messages from any node

  // Receive-side accounting: the host pays the serial per-word link cost when
  // draining its inbox, which is what makes it the bottleneck the paper
  // describes for host-based sorting.
  void account_recv(const Message& m);

  // Bulk-path accounting for checkpoint drains (CostModel::ckpt_word): the
  // spool absorbs the words off the interactive link's critical path.
  void account_bulk_recv(const Message& m);

  // Record a fail-stop diagnostic from the host side (e.g. the Theorem-1
  // verifier rejecting an upload, or an expected upload never arriving).
  void error(ErrorReport r);

  KeyPool& pool();

  const NodeStats& stats() const { return stats_; }

 private:
  friend class Machine;
  Machine* machine_ = nullptr;
  NodeStats stats_;
};

using NodeMain = std::function<SimTask(Ctx&)>;
using HostMain = std::function<SimTask(HostCtx&)>;

// Link-level fault injection: sees every message at send time on node-node
// links (host links are reliable by assumption).  Return false to drop the
// message; the message may be mutated in place.  Byzantine *node* behaviour
// is modelled by intercepting all links out of that node, possibly
// differently per destination (two-faced behaviour).
class LinkInterceptor {
 public:
  virtual ~LinkInterceptor() = default;
  virtual bool on_send(cube::NodeId from, cube::NodeId to, Message& m) = 0;
};

// One record per delivered or dropped message (optional, for tests).  Host
// traffic is recorded too: `to_host` marks a node→host upload (`to` is
// meaningless), `from_host` a host→node push (`from` is meaningless).  Host
// links are reliable, so host events always have delivered == true.
struct LinkEvent {
  cube::NodeId from = 0;
  cube::NodeId to = 0;
  MsgKind kind = MsgKind::kData;
  int stage = -1;
  int iter = -1;
  std::uint32_t words = 0;
  bool delivered = true;
  bool to_host = false;
  bool from_host = false;
};

class Machine {
 public:
  Machine(cube::Topology topo, CostModel cost);
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const cube::Topology& topo() const { return topo_; }
  const CostModel& cost() const { return cost_; }

  void set_interceptor(LinkInterceptor* interceptor) { interceptor_ = interceptor; }
  void record_link_events(bool on) { record_events_ = on; }
  // When on, a node program that throws a std::exception ends only that
  // node: it becomes the error {node, -1, -1, kApp, what()} and the run goes
  // on, as a node process that throws publishes kFailed on shm and tcp.
  // Off (the default, and after reset()), run() rethrows it.
  void report_node_throws(bool on) { report_throws_ = on; }

  // Run the local endpoints to completion: `node_main` on every node plus
  // the optional host program; with a remote link attached, only the node
  // given to attach_remote (`node_main`) or only the host (`host_main`).
  // May be called once per Machine (or once per reset()).
  void run(const NodeMain& node_main, const HostMain& host_main = {});

  // ---- remote transport (sim/remote.h) -------------------------------------
  // Drive only one endpoint of the cube — node `local_node`, or the host when
  // local_node is negative — and route every non-local delivery through
  // `link`.  Inbound messages are pumped from the link whenever the local
  // tasks quiesce; the watchdog fires only once the link reports that nothing
  // further can arrive.  Attach before running; reset() detaches.
  void attach_remote(RemoteLink* link, std::int32_t local_node);
  bool remote() const { return remote_ != nullptr; }

  // Return the machine to its just-constructed state so it can run again:
  // destroys any leftover coroutine frames, drains channels (pooled buffers
  // return to the pool), zeroes clocks/stats, clears the interceptor, event
  // log and error list, and re-arms the run-once contract.  A reset machine
  // is observably identical to a freshly constructed one — same event log,
  // same trace bytes — which is what lets the campaign engine keep one
  // machine per worker instead of reconstructing per scenario.
  void reset();
  void reset(const CostModel& cost);  // as above, swapping the cost model

  // The free list backing pooled messages.  Single-threaded, like the
  // machine itself.
  KeyPool& pool() { return pool_; }

  const std::vector<ErrorReport>& errors() const { return errors_; }
  bool failed_stop() const { return !errors_.empty(); }

  // True once run has been entered (even if it threw): the machine is
  // single-shot until the next reset(), and a failed run must not be
  // re-entered.
  bool ran() const { return ran_; }

  const NodeStats& node_stats(cube::NodeId p) const { return ctxs_[p].stats_; }
  const NodeStats& host_stats() const { return host_ctx_.stats_; }
  const std::vector<LinkEvent>& link_events() const { return events_; }

  RunSummary summary() const;

 private:
  friend class Ctx;
  friend class HostCtx;

  Channel& link_channel(cube::NodeId to, cube::NodeId from);
  void deliver(cube::NodeId from, cube::NodeId to, Message m);

  // Borrowed-LBS sends (Ctx::send with a span) go straight to the remote
  // link only when it carries the message and no interceptor could see it.
  bool lends_node_lbs() const {
    return remote_ != nullptr && interceptor_ == nullptr;
  }
  bool lends_host_lbs() const {
    return remote_ != nullptr && remote_local_ >= 0;
  }
  void deliver_lent(cube::NodeId from, cube::NodeId to, const Message& m,
                    std::span<const Key> lbs, const cube::MaskCover& cover);
  void deliver_host_lent(cube::NodeId from, const Message& m,
                         std::span<const Key> lbs);
  // The one recording point for every node-link send: link event, metrics
  // and the drop trace.
  void record_link(cube::NodeId from, cube::NodeId to, const Message& m,
                   std::size_t words, bool pass);
  void record_host_link(cube::NodeId from, const Message& m, std::size_t words);

  // The host-link counterparts of deliver(): every message still flows
  // through one recording point (LinkEvent log + metrics), but host links are
  // reliable by assumption — no interceptor, never dropped.
  void deliver_host(cube::NodeId from, Message m);
  void deliver_from_host(cube::NodeId to, Message m);

  cube::Topology topo_;
  CostModel cost_;
  // Declared before the scheduler and channels: their destructors release
  // pooled buffers (queued messages, frames holding KeyBufs) into pool_, so
  // pool_ must be destroyed after them.
  KeyPool pool_;
  Scheduler sched_;

  // in_links_[p][k]: messages arriving at p across dimension k.
  std::vector<std::vector<std::unique_ptr<Channel>>> in_links_;
  std::unique_ptr<Channel> host_inbox_;
  std::vector<std::unique_ptr<Channel>> host_out_;

  std::vector<Ctx> ctxs_;
  HostCtx host_ctx_;

  // Remote-transport state: the attached link, the driven endpoint (node
  // label, or negative for the host) and the scratch peer list the idle pump
  // rebuilds per quiescence.
  bool remote_idle();
  RemoteLink* remote_ = nullptr;
  std::int32_t remote_local_ = -1;
  std::vector<cube::NodeId> remote_peers_;

  LinkInterceptor* interceptor_ = nullptr;
  bool record_events_ = false;
  bool report_throws_ = false;
  std::vector<LinkEvent> events_;
  std::vector<ErrorReport> errors_;
  int watchdog_rounds_ = 0;
  bool ran_ = false;
};

}  // namespace aoft::sim
