#include "sort/fleet.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>

#include "transport/process.h"
#include "transport/shm_transport.h"
#include "transport/tcp_transport.h"

namespace aoft::sort::fleet {

namespace {

// ---- node side --------------------------------------------------------------

// NodeSlot (shm) and FinishHead (tcp) carry the same stat fields.
template <class Stats>
void put_stats(Stats& st, const sim::Machine& mach, cube::NodeId p) {
  const sim::NodeStats& ns = mach.node_stats(p);
  st.clock = ns.clock;
  st.comp_ticks = ns.comp_ticks;
  st.comm_ticks = ns.comm_ticks;
  st.msgs_sent = ns.msgs_sent;
  st.words_sent = ns.words_sent;
  st.watchdog_rounds =
      static_cast<std::uint32_t>(mach.summary().watchdog_rounds);
}

// A finished node machine's error reports and link events in wire form.  At
// most kMaxSlotErrors reports travel; the rest are only counted.
struct WireLog {
  std::vector<transport::WireError> errors;
  std::uint32_t error_overflow = 0;
  std::vector<transport::WireLinkEvent> events;
};

WireLog wire_log_of(const sim::Machine& mach) {
  WireLog log;
  for (const sim::ErrorReport& e : mach.errors()) {
    if (log.errors.size() >= transport::kMaxSlotErrors) {
      ++log.error_overflow;
      continue;
    }
    transport::WireError w;
    w.stage = e.stage;
    w.iter = e.iter;
    w.source = static_cast<std::uint8_t>(e.source);
    std::snprintf(w.detail, sizeof w.detail, "%s", e.detail.c_str());
    log.errors.push_back(w);
  }
  log.events.reserve(mach.link_events().size());
  for (const sim::LinkEvent& e : mach.link_events())
    log.events.push_back({.from = static_cast<std::int32_t>(e.from),
                          .to = static_cast<std::int32_t>(e.to),
                          .kind = static_cast<std::uint8_t>(e.kind),
                          .delivered = e.delivered,
                          .to_host = e.to_host,
                          .from_host = e.from_host,
                          .stage = e.stage,
                          .iter = e.iter,
                          .words = e.words});
  return log;
}

// Node p's program on `mach`, a one-node machine it wires to the fabric's
// `link`.
void run_attached(sim::Machine& mach, sim::RemoteLink& link, cube::NodeId p,
                  const NodeJob& job, NodeProgram node,
                  sim::LinkInterceptor* interceptor) {
  mach.attach_remote(&link, static_cast<std::int32_t>(p));
  mach.set_interceptor(interceptor);
  mach.record_link_events(job.cfg.record_events != 0);
  mach.run([&job, node](sim::Ctx& ctx) { return node(ctx, job); });
}

// ---- parent side ------------------------------------------------------------

// A harness-side failure made loud: the run becomes a fail-stop that names
// the node and what went wrong.
void report_harness(SortRun& run, cube::NodeId p, std::string detail) {
  run.errors.push_back({p, -1, -1, sim::ErrorSource::kApp, std::move(detail)});
}

// A harness-side loss (a dropped message, a truncated log), reported as above.
void report_loss(SortRun& run, cube::NodeId p, std::uint32_t count,
                 const char* what) {
  if (count == 0) return;
  report_harness(run, p, std::to_string(count) + " " + what);
}

// Fold node p's published result into `run`: its death, if the parent
// declared one, its failure, if it published kFailed, error reports (node
// order), any overflow the node counted, summary aggregates and link
// events.  A node the parent had to declare dead published nothing — its
// fault shows through its Death and its peers' kTimeout reports, like a sim
// halt.  A kFailed node's output block was never written, so its reason
// must fail the run.
template <class Stats>
void collect_node(SortRun& run, cube::NodeId p,
                  std::optional<transport::DeathCause> death,
                  transport::SlotState state, const char* fail_reason,
                  const Stats& st,
                  std::span<const transport::WireError> errors,
                  std::span<const transport::WireLinkEvent> events) {
  if (death) run.deaths.push_back({p, *death});
  if (state == transport::SlotState::kFailed)
    report_harness(run, p, fail_reason);
  for (const transport::WireError& w : errors)
    run.errors.push_back({p, w.stage, w.iter,
                          static_cast<sim::ErrorSource>(w.source), w.detail});
  report_loss(run, p, st.error_overflow,
              "error reports beyond the published cap were dropped");
  report_loss(run, p, st.event_overflow,
              "link events beyond the log capacity were dropped");
  if constexpr (requires { st.send_overflow; })
    report_loss(run, p, st.send_overflow,
                "sends dropped on a full shm ring (ring sizing bug)");
  run.summary.elapsed = std::max(run.summary.elapsed, st.clock);
  run.summary.max_comm = std::max(run.summary.max_comm, st.comm_ticks);
  run.summary.max_comp = std::max(run.summary.max_comp, st.comp_ticks);
  run.summary.total_msgs += st.msgs_sent;
  run.summary.total_words += st.words_sent;
  run.summary.watchdog_rounds += static_cast<int>(st.watchdog_rounds);
  for (const transport::WireLinkEvent& w : events)
    run.link_events.push_back({.from = static_cast<cube::NodeId>(w.from),
                               .to = static_cast<cube::NodeId>(w.to),
                               .kind = static_cast<sim::MsgKind>(w.kind),
                               .stage = w.stage,
                               .iter = w.iter,
                               .words = w.words,
                               .delivered = w.delivered != 0,
                               .to_host = w.to_host != 0,
                               .from_host = w.from_host != 0});
}

// Nodes publish link events in whatever order they finish; canonicalize so
// the merged log is a deterministic function of the event multiset.
void canonicalize_link_events(std::vector<sim::LinkEvent>& events) {
  const auto key = [](const sim::LinkEvent& e) {
    return std::make_tuple(e.stage, e.iter, e.from, e.to, e.to_host,
                           e.from_host, static_cast<int>(e.kind), e.words,
                           e.delivered);
  };
  std::sort(events.begin(), events.end(),
            [&](const sim::LinkEvent& a, const sim::LinkEvent& b) {
              return key(a) < key(b);
            });
}

// The host program on a parent-side machine attached to the fabric's host
// link; its stats seed the run summary.
void run_host(sim::RemoteLink& link, const transport::JobConfig& cfg,
              const sim::HostMain& host, SortRun& run) {
  sim::Machine hostm(cube::Topology{static_cast<int>(cfg.dim)}, cfg.cost);
  hostm.attach_remote(&link, transport::kHostRole);
  hostm.run({}, host);
  run.summary.host_comm = hostm.host_stats().comm_ticks;
  run.summary.host_comp = hostm.host_stats().comp_ticks;
  run.summary.elapsed = hostm.host_stats().clock;
}

// The simulator: every node and the host on one machine, the caller's when
// given (reset() keeps its pool and channel storage warm across campaign
// scenarios).  Link events keep the machine's own deterministic order.
SortRun run_sim(const Job& job, NodeProgram node, const sim::HostMain& host) {
  const int dim = static_cast<int>(job.cfg.dim);
  std::optional<sim::Machine> owned;
  sim::Machine* machine = job.machine;
  if (machine != nullptr) {
    if (machine->topo().dimension() != dim)
      throw std::invalid_argument(
          "Options::machine topology dimension does not match the sort");
    machine->reset(job.cfg.cost);
  } else {
    owned.emplace(cube::Topology{dim}, job.cfg.cost);
    machine = &*owned;
  }
  machine->set_interceptor(job.interceptor);
  machine->record_link_events(job.cfg.record_events != 0);
  machine->report_node_throws(true);  // as shm and tcp report kFailed
  SortRun run;
  run.output.assign(job.input.size(), 0);
  const NodeJob nj{.cfg = job.cfg,
                   .faults = job.faults,
                   .input = job.input,
                   .llbs = job.llbs,
                   .output = run.output,
                   .observer = job.observer,
                   .deaths = &run.deaths};
  machine->run([&nj, node](sim::Ctx& ctx) { return node(ctx, nj); }, host);
  run.errors = machine->errors();
  std::ranges::sort(run.deaths, {}, &Death::node);
  run.summary = machine->summary();
  if (job.cfg.record_events != 0) run.link_events = machine->link_events();
  return run;
}

void check(const Job& job, const transport::JobConfig& cfg,
           const std::string& node_binary) {
  const std::string fabric = transport::to_string(job.backend);
  const bool shm = job.backend == transport::Backend::kShm;
  if (job.machine != nullptr)
    throw std::invalid_argument(
        "Options::machine is a single-process affordance; not available on "
        "the " + fabric + " backend");
  if (job.observer != nullptr)
    throw std::invalid_argument(
        "SftOptions::observer runs in the node's process on the " + fabric +
        " backend; its snapshots cannot reach the caller — use the sim "
        "backend");
  if (job.interceptor != nullptr && !node_binary.empty())
    throw std::invalid_argument(
        "a link interceptor reaches forked nodes only; exec'd " + fabric +
        " nodes would run fault-free — drop node_binary or use the sim "
        "backend");
  if (shm)
    for (const auto& [p, f] : job.faults)
      if (f.wedge_process)
        throw std::invalid_argument(
            "wedge_process needs socket death detection: a stopped shm child "
            "never exits, so the parent cannot see it — use the tcp or sim "
            "backend");
  if (const std::string why = transport::job_config_error(cfg); !why.empty())
    throw std::invalid_argument(fabric + ": " + why);
  if (const std::size_t cb = transport::config_frame_bytes(
          static_cast<int>(cfg.dim), cfg.block, cfg.with_resume != 0);
      !shm && cb > transport::kMaxFrameBytes)
    throw std::invalid_argument(
        "tcp: CONFIG for this job would be " + std::to_string(cb) +
        " bytes, beyond the " + std::to_string(transport::kMaxFrameBytes) +
        "-byte frame limit — shrink block or dim for the tcp backend");
}

SortRun run_shm(const Job& job, const transport::JobConfig& cfg,
                NodeProgram node, const sim::HostMain& host) {
  transport::ShmSegment::Config scfg;
  static_cast<transport::JobConfig&>(scfg) = cfg;
  scfg.run_deadline_s = job.shm->run_deadline_s;
  auto seg = transport::ShmSegment::create(scfg);
  std::copy(job.input.begin(), job.input.end(), seg.input().begin());
  std::copy(job.llbs.begin(), job.llbs.end(), seg.llbs().begin());
  const auto faults = wire_faults_of(job.faults, seg.num_nodes());
  std::copy(faults.begin(), faults.end(), seg.faults().begin());

  transport::ShmParent par(seg);
  if (job.shm->node_binary.empty())
    par.spawn_fork([&](cube::NodeId p) {
      return run_node(seg, p, node, job.interceptor);
    });
  else
    par.spawn_exec(job.shm->node_binary);

  SortRun run;
  std::uint32_t host_overflow = 0;
  if (host) {
    // The parent is the reliable host, pumping the up-rings and reaping
    // children from the idle path.
    transport::ShmTransport link(seg, transport::kHostRole);
    link.set_host_poll([&par] { par.poll(); });
    run_host(link, cfg, host, run);
    host_overflow = link.send_overflow();
  }
  par.await_all();

  const auto out = seg.output();
  run.output.assign(out.begin(), out.end());
  for (cube::NodeId p = 0; p < seg.num_nodes(); ++p) {
    const transport::NodeSlot& slot = seg.slot(p);
    const auto events = seg.events(p);
    collect_node(run, p, par.death(p),
                 static_cast<transport::SlotState>(
                     slot.state.load(std::memory_order_acquire)),
                 slot.fail_reason, slot,
                 {slot.errors, std::min(slot.error_count,
                                        transport::kMaxSlotErrors)},
                 events.first(std::min<std::size_t>(slot.event_count,
                                                    events.size())));
  }
  report_loss(run, 0, host_overflow,
              "host-to-node sends dropped on a full shm ring (ring sizing "
              "bug)");
  return run;
}

SortRun run_tcp(const Job& job, const transport::JobConfig& cfg,
                NodeProgram node, const sim::HostMain& host) {
  const transport::TcpOptions& topts = *job.tcp;
  const int dim = static_cast<int>(cfg.dim);
  const cube::NodeId n = cube::NodeId{1} << dim;
  transport::TcpHostEndpoint link(dim, topts);
  transport::TcpParent par(dim, topts.run_deadline_s);
  link.set_host_poll([&par] { par.poll(); }, &par.children());
  const auto pins =
      topts.hosts_file.empty()
          ? std::vector<std::optional<transport::HostPin>>(n)
          : transport::parse_hosts_file(topts.hosts_file,
                                        static_cast<int>(n));

  const std::string parent_addr = link.addr();
  const std::uint16_t parent_port = link.port();
  if (topts.node_binary.empty()) {
    const double setup_s = topts.run_deadline_s;
    par.spawn_fork(
        [&, setup_s](cube::NodeId p) {
          try {
            transport::TcpNodeEndpoint ep(
                p, parent_addr, parent_port,
                pins[p] ? pins[p]->addr : std::string("127.0.0.1"),
                pins[p] ? pins[p]->port : std::uint16_t{0}, setup_s);
            return run_node(ep, p, node, job.interceptor);
          } catch (const std::exception&) {
            return 1;  // setup failed before the endpoint could FINISH
          }
        },
        pins);
  } else {
    par.spawn_exec(topts.node_binary, parent_addr, parent_port, pins);
  }

  link.rendezvous(topts.run_deadline_s);
  transport::TcpConfigHead head;
  static_cast<transport::JobConfig&>(head) = cfg;
  link.broadcast_config(head, wire_faults_of(job.faults, n), job.input,
                        job.llbs);

  SortRun run;
  // The parent is the reliable host, pumping the sockets and reaping
  // children from the idle path.
  if (host) run_host(link, cfg, host, run);
  link.await_all();
  par.await_exits();

  const std::size_t m = cfg.block;
  run.output.assign(static_cast<std::size_t>(n) * m, 0);
  for (cube::NodeId p = 0; p < n; ++p) {
    const transport::TcpSlot& slot = link.slot(p);
    if (slot.output.size() == m)
      std::copy(slot.output.begin(), slot.output.end(),
                run.output.begin() + static_cast<std::ptrdiff_t>(p * m));
    collect_node(run, p, link.death(p), slot.state, slot.head.fail_reason,
                 slot.head, slot.errors, slot.events);
  }
  return run;
}

}  // namespace

SortRun run(const Job& job, NodeProgram node, const sim::HostMain& host) {
  if (job.backend == transport::Backend::kSim) return run_sim(job, node, host);
  const bool shm = job.backend == transport::Backend::kShm;
  transport::JobConfig cfg = job.cfg;
  cfg.recv_timeout_s = shm ? job.shm->recv_timeout_s : job.tcp->recv_timeout_s;
  check(job, cfg, shm ? job.shm->node_binary : job.tcp->node_binary);
  SortRun run = shm ? run_shm(job, cfg, node, host)
                    : run_tcp(job, cfg, node, host);
  canonicalize_link_events(run.link_events);
  return run;
}

int run_node(transport::ShmSegment& seg, cube::NodeId p, NodeProgram node,
             sim::LinkInterceptor* interceptor) {
  transport::NodeSlot& slot = seg.slot(p);
  try {
    const transport::SegmentHeader& cfg = seg.header();
    const fault::NodeFaultMap faults = faults_from_wire(seg.faults());
    const NodeJob job{.cfg = cfg,
                      .faults = faults,
                      .input = seg.input(),
                      .llbs = cfg.with_resume ? seg.llbs() : std::span<Key>{},
                      .output = seg.output().subspan(p * cfg.block, cfg.block),
                      .out_first = p};
    sim::Machine mach(cube::Topology{static_cast<int>(cfg.dim)}, cfg.cost);
    // Every key buffer this node allocates comes from its arena in the
    // segment (received ones are read in place from its logs): pages a
    // recycled segment keeps in the page cache, not fresh ones.  The
    // output block is mapped before write_out needs it.
    const std::span<std::byte> arena = seg.arena(p);
    mach.pool().use_arena(arena.data(), arena.size());
    seg.map_output(p);
    transport::ShmTransport link(seg, static_cast<std::int32_t>(p));
    slot.state.store(static_cast<std::uint32_t>(transport::SlotState::kRunning),
                     std::memory_order_release);
    run_attached(mach, link, p, job, node, interceptor);

    // The output block is already in place, so the kDone store below, the
    // release-fenced last write, always implies a complete output region.
    put_stats(slot, mach, p);
    const WireLog log = wire_log_of(mach);
    std::copy(log.errors.begin(), log.errors.end(), slot.errors);
    slot.error_count = static_cast<std::uint32_t>(log.errors.size());
    slot.error_overflow = log.error_overflow;
    const auto events = seg.events(p);
    const std::size_t kept = std::min(log.events.size(), events.size());
    std::copy_n(log.events.begin(), kept, events.begin());
    slot.event_count = static_cast<std::uint32_t>(kept);
    slot.event_overflow = static_cast<std::uint32_t>(log.events.size() - kept);
    slot.send_overflow = link.send_overflow();
    slot.state.store(static_cast<std::uint32_t>(transport::SlotState::kDone),
                     std::memory_order_release);
    return 0;
  } catch (const std::exception& e) {
    // Publish why, and kFailed, so peers and the parent stop waiting.
    std::snprintf(slot.fail_reason, sizeof slot.fail_reason, "%s", e.what());
    slot.state.store(static_cast<std::uint32_t>(transport::SlotState::kFailed),
                     std::memory_order_release);
    return 1;
  }
}

int run_node(transport::TcpNodeEndpoint& ep, cube::NodeId p, NodeProgram node,
             sim::LinkInterceptor* interceptor) {
  try {
    ep.connect_peers();
    const transport::TcpConfigHead& cfg = ep.config();
    const fault::NodeFaultMap faults = faults_from_wire(ep.faults());
    std::vector<Key> out(cfg.block);
    const NodeJob job{.cfg = cfg,
                      .faults = faults,
                      .input = ep.input(),
                      .llbs = ep.llbs(),
                      .output = out,
                      .out_first = p};
    sim::Machine mach(cube::Topology{static_cast<int>(cfg.dim)}, cfg.cost);
    run_attached(mach, ep, p, job, node, interceptor);

    // Stats, error reports, link events and the output block ride one
    // FINISH frame, which is only ever sent complete.
    transport::FinishHead head;
    put_stats(head, mach, p);
    const WireLog log = wire_log_of(mach);
    head.error_overflow = log.error_overflow;
    ep.finish(transport::SlotState::kDone, head, log.errors, log.events, out);
    return 0;
  } catch (const std::exception& e) {
    transport::FinishHead head;
    std::snprintf(head.fail_reason, sizeof head.fail_reason, "%s", e.what());
    ep.finish(transport::SlotState::kFailed, head, {}, {}, {});
    return 1;
  }
}

void halt_process(const sim::Ctx& ctx, const fault::NodeFault& f,
                  const NodeJob& job) {
  if (f.kill_process) {
    if (ctx.remote()) transport::kill_self();
    job.deaths->push_back({ctx.id(), transport::DeathCause::kExit});
  } else if (f.wedge_process) {
    if (ctx.remote()) transport::wedge_self();
    job.deaths->push_back({ctx.id(), transport::DeathCause::kSilence});
  }
}

std::vector<transport::WireFault> wire_faults_of(
    const fault::NodeFaultMap& faults, cube::NodeId num_nodes) {
  const auto point = [](const std::optional<fault::StagePoint>& sp) {
    return sp ? transport::WirePoint{sp->stage, sp->iter, 1}
              : transport::WirePoint{};
  };
  std::vector<transport::WireFault> out(num_nodes);
  for (const auto& [p, f] : faults)
    if (p < num_nodes)
      out[p] = {point(f.halt_at), point(f.invert_direction_from),
                point(f.substitute_at), f.substitute_value, f.silent_checker,
                f.kill_process, f.wedge_process};
  return out;
}

fault::NodeFaultMap faults_from_wire(
    std::span<const transport::WireFault> wire) {
  const auto point = [](const transport::WirePoint& w) {
    return w.set ? std::optional(fault::StagePoint{w.stage, w.iter})
                 : std::nullopt;
  };
  fault::NodeFaultMap out;
  for (cube::NodeId p = 0; p < wire.size(); ++p) {
    const transport::WireFault& w = wire[p];
    fault::NodeFault f;
    f.halt_at = point(w.halt);
    f.invert_direction_from = point(w.invert);
    f.substitute_at = point(w.subst);
    f.substitute_value = w.subst_value;
    f.silent_checker = w.silent_checker != 0;
    f.kill_process = w.kill_process != 0;
    f.wedge_process = w.wedge_process != 0;
    if (f.any()) out.emplace(p, f);
  }
  return out;
}

}  // namespace aoft::sort::fleet
