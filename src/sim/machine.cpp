#include "sim/machine.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/sink.h"
#include "sim/remote.h"

namespace aoft::sim {

const char* to_string(ErrorSource s) {
  switch (s) {
    case ErrorSource::kPhiP: return "phi_P(progress)";
    case ErrorSource::kPhiF: return "phi_F(feasibility)";
    case ErrorSource::kPhiC: return "phi_C(consistency)";
    case ErrorSource::kTimeout: return "timeout(absent message)";
    case ErrorSource::kApp: return "application";
  }
  return "?";
}

// ---- Ctx ----

const cube::Topology& Ctx::topo() const { return machine_->topo_; }

bool Ctx::remote() const { return machine_->remote(); }

KeyPool& Ctx::pool() { return machine_->pool_; }

// The send-path helpers are forced inline: Ctx::send and Machine::deliver
// run once per simulated message, and a campaign sends millions of them.
[[gnu::always_inline]] inline void Ctx::check_link(cube::NodeId to) const {
  // Always-on invariant (not an assert: protocol code paths that pick a wrong
  // partner must fail loudly in release builds too).
  if (!machine_->topo_.adjacent(id_, to))
    throw std::logic_error("node links join neighbors only: node " +
                           std::to_string(id_) + " cannot send to " +
                           std::to_string(to));
}

[[gnu::always_inline]] inline void Ctx::stamp_send(Message& m, double cost,
                                                  std::size_t words) {
  m.from = id_;
  stats_.clock += cost;
  stats_.comm_ticks += cost;
  stats_.msgs_sent += 1;
  stats_.words_sent += words;
  m.arrival = stats_.clock;
}

void Ctx::send(cube::NodeId to, Message m) {
  check_link(to);
  stamp_send(m, machine_->cost_.msg_cost(m.words()), m.words());
  machine_->deliver(id_, to, std::move(m));
}

void Ctx::send(cube::NodeId to, Message m, std::span<const Key> lbs,
               cube::MaskCover cover) {
  check_link(to);
  const std::size_t words = m.data.size() + lbs.size();
  stamp_send(m, machine_->cost_.msg_cost(words), words);
  if (machine_->lends_node_lbs()) {
    machine_->deliver_lent(id_, to, m, lbs, cover);
    return;
  }
  m.lbs.assign(lbs.begin(), lbs.end());
  machine_->deliver(id_, to, std::move(m));
}

Channel::RecvAwaiter Ctx::recv(cube::NodeId from) {
  return machine_->link_channel(id_, from).recv();
}

void Ctx::account_recv(const Message& m) {
  stats_.clock = std::max(stats_.clock, m.arrival);
  const double cost = machine_->cost_.alpha_recv;
  stats_.clock += cost;
  stats_.comm_ticks += cost;
}

void Ctx::send_host(Message m) {
  // Host links are reliable and lightly loaded at the node end; the serial
  // per-word cost is paid by the host when it drains its inbox.
  stamp_send(m, machine_->cost_.alpha_send, m.words());
  machine_->deliver_host(id_, std::move(m));
}

void Ctx::send_host(Message m, std::span<const Key> lbs) {
  stamp_send(m, machine_->cost_.alpha_send, m.data.size() + lbs.size());
  if (machine_->lends_host_lbs()) {
    machine_->deliver_host_lent(id_, m, lbs);
    return;
  }
  m.lbs.assign(lbs.begin(), lbs.end());
  machine_->deliver_host(id_, std::move(m));
}

Channel::RecvAwaiter Ctx::recv_host() {
  return machine_->host_out_[id_]->recv();
}

void Ctx::error(ErrorReport r) {
  r.node = id_;
  if (auto* tr = obs::tracer())
    tr->instant(obs::Ev::kError, id_, r.stage, r.iter, stats_.clock,
                static_cast<std::int64_t>(r.source), 0, r.detail);
  if (auto* me = obs::metrics()) me->inc(obs::Counter::kErrors);
  Message m;
  m.kind = MsgKind::kHostError;
  m.stage = r.stage;
  m.iter = r.iter;
  m.tag = static_cast<std::int32_t>(r.source);
  machine_->errors_.push_back(std::move(r));
  send_host(std::move(m));
}

// ---- HostCtx ----

const cube::Topology& HostCtx::topo() const { return machine_->topo_; }

KeyPool& HostCtx::pool() { return machine_->pool_; }

void HostCtx::send(cube::NodeId to, Message m) {
  const double cost = machine_->cost_.host_msg_cost(m.words());
  stats_.clock += cost;
  stats_.comm_ticks += cost;
  stats_.msgs_sent += 1;
  stats_.words_sent += m.words();
  m.arrival = stats_.clock;
  machine_->deliver_from_host(to, std::move(m));
}

Channel::RecvAwaiter HostCtx::recv() { return machine_->host_inbox_->recv(); }

void HostCtx::error(ErrorReport r) {
  if (auto* tr = obs::tracer())
    tr->instant(obs::Ev::kError, obs::kHostNode, r.stage, r.iter, stats_.clock,
                static_cast<std::int64_t>(r.source), 0, r.detail);
  if (auto* me = obs::metrics()) me->inc(obs::Counter::kErrors);
  machine_->errors_.push_back(std::move(r));
}

void HostCtx::account_recv(const Message& m) {
  stats_.clock = std::max(stats_.clock, m.arrival);
  const double cost = machine_->cost_.host_msg_cost(m.words());
  stats_.clock += cost;
  stats_.comm_ticks += cost;
}

void HostCtx::account_bulk_recv(const Message& m) {
  stats_.clock = std::max(stats_.clock, m.arrival);
  const double cost = machine_->cost_.host_alpha +
                      machine_->cost_.ckpt_word * static_cast<double>(m.words());
  stats_.clock += cost;
  stats_.comm_ticks += cost;
}

// ---- Machine ----

Machine::Machine(cube::Topology topo, CostModel cost)
    : topo_(topo), cost_(cost) {
  const auto n = topo_.num_nodes();
  in_links_.resize(n);
  host_out_.resize(n);
  ctxs_.resize(n);
  for (cube::NodeId p = 0; p < n; ++p) {
    in_links_[p].resize(static_cast<std::size_t>(topo_.dimension()));
    for (int k = 0; k < topo_.dimension(); ++k)
      in_links_[p][static_cast<std::size_t>(k)] = std::make_unique<Channel>(sched_);
    host_out_[p] = std::make_unique<Channel>(sched_);
    ctxs_[p].machine_ = this;
    ctxs_[p].id_ = p;
  }
  host_inbox_ = std::make_unique<Channel>(sched_);
  host_ctx_.machine_ = this;
}

Machine::~Machine() = default;

Channel& Machine::link_channel(cube::NodeId to, cube::NodeId from) {
  if (!topo_.adjacent(to, from))
    throw std::logic_error("node links join neighbors only: no link " +
                           std::to_string(from) + " -> " + std::to_string(to));
  const int k = __builtin_ctz(to ^ from);
  return *in_links_[to][static_cast<std::size_t>(k)];
}

[[gnu::always_inline]] inline void Machine::record_link(cube::NodeId from,
                                                       cube::NodeId to,
                                                       const Message& m,
                                                       std::size_t words,
                                                       bool pass) {
  if (record_events_)
    events_.push_back(LinkEvent{from, to, m.kind, m.stage, m.iter,
                                static_cast<std::uint32_t>(words), pass});
  if (auto* me = obs::metrics()) {
    me->inc(obs::Counter::kLinkMsgs);
    me->inc(obs::Counter::kLinkWords, words);
    me->observe_msg_words(words);
    if (!pass) me->inc(obs::Counter::kDroppedMsgs);
  }
  if (!pass)
    if (auto* tr = obs::tracer())
      tr->instant(obs::Ev::kDrop, from, m.stage, m.iter, m.arrival, to,
                  static_cast<std::int64_t>(words));
}

void Machine::deliver(cube::NodeId from, cube::NodeId to, Message m) {
  bool pass = true;
  if (interceptor_ != nullptr) pass = interceptor_->on_send(from, to, m);
  record_link(from, to, m, m.words(), pass);
  if (!pass) return;
  // Interception, recording and metrics all happen sender-side (above), so a
  // remote run's event log is the local node's exact share of the sim's.
  if (remote_ != nullptr && static_cast<std::int32_t>(to) != remote_local_) {
    remote_->send_node(from, to, m, m.lbs, std::nullopt);
    return;
  }
  link_channel(to, from).push(std::move(m));
}

void Machine::deliver_lent(cube::NodeId from, cube::NodeId to,
                           const Message& m, std::span<const Key> lbs,
                           const cube::MaskCover& cover) {
  record_link(from, to, m, m.data.size() + lbs.size(), true);
  remote_->send_node(from, to, m, lbs, cover);
}

[[gnu::always_inline]] inline void Machine::record_host_link(
    cube::NodeId from, const Message& m, std::size_t words) {
  if (record_events_) {
    LinkEvent ev{from, 0, m.kind, m.stage, m.iter,
                 static_cast<std::uint32_t>(words), true};
    ev.to_host = true;
    events_.push_back(ev);
  }
  if (auto* me = obs::metrics()) {
    me->inc(obs::Counter::kHostMsgs);
    me->inc(obs::Counter::kHostWords, words);
  }
}

void Machine::deliver_host(cube::NodeId from, Message m) {
  record_host_link(from, m, m.words());
  if (remote_ != nullptr && remote_local_ >= 0) {  // node endpoint: host is remote
    remote_->send_host(from, m, m.lbs);
    return;
  }
  host_inbox_->push(std::move(m));
}

void Machine::deliver_host_lent(cube::NodeId from, const Message& m,
                                std::span<const Key> lbs) {
  record_host_link(from, m, m.data.size() + lbs.size());
  remote_->send_host(from, m, lbs);
}

void Machine::deliver_from_host(cube::NodeId to, Message m) {
  if (record_events_) {
    LinkEvent ev{0, to, m.kind, m.stage, m.iter,
                 static_cast<std::uint32_t>(m.words()), true};
    ev.from_host = true;
    events_.push_back(ev);
  }
  if (auto* me = obs::metrics()) {
    me->inc(obs::Counter::kHostMsgs);
    me->inc(obs::Counter::kHostWords, m.words());
  }
  if (remote_ != nullptr && static_cast<std::int32_t>(to) != remote_local_) {
    remote_->send_from_host(to, m, m.lbs);
    return;
  }
  host_out_[to]->push(std::move(m));
}

void Machine::run(const NodeMain& node_main, const HostMain& host_main) {
  if (ran_) throw std::logic_error("Machine::run may be called once per reset");
  ran_ = true;
  // One copy of each callable lives in this frame for the whole run; every
  // node coroutine references the same closure (coroutine lambdas must not
  // outlive their closure object).
  NodeMain local(node_main);
  HostMain host_local(host_main);
  if (report_throws_)
    // Spawn order: every node in id order, then the host; or just the one
    // local endpoint when a remote link is attached.
    sched_.set_failure_handler([this](std::size_t task, std::exception_ptr e) {
      const bool node = remote_ == nullptr ? task < topo_.num_nodes()
                                           : remote_local_ >= 0;
      if (!node) return false;
      try {
        std::rethrow_exception(e);
      } catch (const std::exception& ex) {
        const auto p = remote_ == nullptr
                           ? static_cast<cube::NodeId>(task)
                           : static_cast<cube::NodeId>(remote_local_);
        errors_.push_back({p, -1, -1, ErrorSource::kApp, ex.what()});
        return true;
      } catch (...) {
        return false;
      }
    });
  if (remote_ == nullptr) {
    for (cube::NodeId p = 0; p < topo_.num_nodes(); ++p)
      sched_.spawn(local(ctxs_[p]));
    if (host_local) sched_.spawn(host_local(host_ctx_));
  } else if (remote_local_ >= 0) {
    sched_.spawn(local(ctxs_[static_cast<std::size_t>(remote_local_)]));
  } else {
    sched_.spawn(host_local(host_ctx_));
  }
  watchdog_rounds_ = sched_.run();
}

void Machine::attach_remote(RemoteLink* link, std::int32_t local_node) {
  if (ran_)
    throw std::logic_error("attach_remote must precede the machine's run");
  remote_ = link;
  remote_local_ = local_node;
  sched_.set_idle_handler([this] { return remote_idle(); });
}

bool Machine::remote_idle() {
  const auto deliver = [this](bool from_host, cube::NodeId from, Message&& m) {
    if (remote_local_ < 0) {
      host_inbox_->push(std::move(m));
    } else if (from_host) {
      host_out_[static_cast<std::size_t>(remote_local_)]->push(std::move(m));
    } else {
      link_channel(static_cast<cube::NodeId>(remote_local_), from)
          .push(std::move(m));
    }
  };
  for (;;) {
    if (remote_->pump(pool_, deliver) > 0) return true;
    // Map each blocked receiver back to the peer it waits on, so the link
    // can detect peer death long before the real-time timeout: a receiver on
    // in_links_[local][k] waits on neighbor local ^ (1 << k).  A receiver
    // blocked on the host link names no peer — the host is reliable by
    // Environmental Assumption 2, so only the deadline can fail it.
    remote_peers_.clear();
    if (remote_local_ >= 0) {
      const auto local = static_cast<cube::NodeId>(remote_local_);
      for (const Channel* ch : sched_.blocked())
        for (int k = 0; k < topo_.dimension(); ++k)
          if (ch == in_links_[local][static_cast<std::size_t>(k)].get())
            remote_peers_.push_back(local ^ (cube::NodeId{1} << k));
    }
    if (!remote_->wait_activity(remote_peers_)) return false;
  }
}

void Machine::reset() { reset(cost_); }

void Machine::reset(const CostModel& cost) {
  // Order matters: destroying leftover coroutine frames releases any pooled
  // buffers they still hold, and channel resets release queued messages —
  // all into pool_, which stays warm for the next run.
  sched_.reset();
  for (auto& row : in_links_)
    for (auto& ch : row) ch->reset();
  for (auto& ch : host_out_) ch->reset();
  host_inbox_->reset();
  for (auto& ctx : ctxs_) ctx.stats_ = NodeStats{};
  host_ctx_.stats_ = NodeStats{};
  cost_ = cost;
  remote_ = nullptr;
  remote_local_ = -1;
  interceptor_ = nullptr;
  record_events_ = false;
  report_throws_ = false;
  events_.clear();
  errors_.clear();
  watchdog_rounds_ = 0;
  ran_ = false;
}

RunSummary Machine::summary() const {
  RunSummary s;
  for (const auto& ctx : ctxs_) {
    const auto& st = ctx.stats_;
    s.elapsed = std::max(s.elapsed, st.clock);
    s.max_comm = std::max(s.max_comm, st.comm_ticks);
    s.max_comp = std::max(s.max_comp, st.comp_ticks);
    s.total_msgs += st.msgs_sent;
    s.total_words += st.words_sent;
  }
  s.elapsed = std::max(s.elapsed, host_ctx_.stats_.clock);
  s.host_comm = host_ctx_.stats_.comm_ticks;
  s.host_comp = host_ctx_.stats_.comp_ticks;
  s.total_msgs += host_ctx_.stats_.msgs_sent;
  s.total_words += host_ctx_.stats_.words_sent;
  s.watchdog_rounds = watchdog_rounds_;
  return s;
}

}  // namespace aoft::sim
