// S_NR (paper Fig. 2) and the host-verified S_NR baseline of sequential.h —
// the latter lives here because it wraps the same node program with a
// gather/verify epilogue.

#include "sort/snr.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "hypercube/subcube.h"
#include "sort/blockops.h"
#include "sort/sequential.h"
#include "sort/shm_detail.h"
#include "sort/tcp_detail.h"
#include "transport/process.h"
#include "transport/shm_transport.h"
#include "transport/tcp_transport.h"

namespace aoft::sort {

namespace {

struct SnrShared {
  std::size_t m = 1;
  sim::CostModel cost{};
  fault::NodeFaultMap node_faults;
  int dim = 0;
  bool with_host = false;  // host-verified variant: gather + Theorem-1 check
  bool in_child = false;   // shm backend: this copy runs inside a node process
  sim::LinkInterceptor* interceptor = nullptr;  // carried for fork children
  std::span<const Key> input;  // view into caller storage, alive for the run
  std::vector<Key> output;

  const fault::NodeFault* fault_for(cube::NodeId p) const {
    auto it = node_faults.find(p);
    return it == node_faults.end() ? nullptr : &it->second;
  }
};

// Cost of the initial local sort: m·log2(m) comparisons (zero for m = 1).
double local_sort_cost(const sim::CostModel& cm, std::size_t m) {
  return m > 1 ? cm.cmp * static_cast<double>(m) * std::log2(static_cast<double>(m))
               : 0.0;
}

sim::SimTask snr_node(sim::Ctx& ctx, SnrShared& sh) {
  const cube::NodeId me = ctx.id();
  const int n = sh.dim;
  const std::size_t m = sh.m;
  const auto& cm = sh.cost;
  const fault::NodeFault* fault = sh.fault_for(me);

  sim::KeyBuf a(ctx.pool());
  a.assign(sh.input.begin() + static_cast<std::ptrdiff_t>(me * m),
           sh.input.begin() + static_cast<std::ptrdiff_t>((me + 1) * m));
  // Merge-split scratch, reused across every iteration of every stage.
  sim::KeyBuf merged(ctx.pool());
  auto write_out = [&] {
    std::copy(a.begin(), a.end(),
              sh.output.begin() + static_cast<std::ptrdiff_t>(me * m));
  };

  if (sh.with_host) {
    sim::Message up(ctx.pool());
    up.kind = sim::MsgKind::kHostGather;
    up.tag = 0;  // unsorted input
    up.data = a;
    ctx.send_host(std::move(up));
  }

  bool completed = true;
  bool cur_asc = n > 0 ? cube::stage_ascending(me, 0) : true;
  blockops::sort_dir(a, cur_asc);
  ctx.charge(local_sort_cost(cm, m));

  for (int i = 0; i < n && completed; ++i) {
    bool asc = cube::stage_ascending(me, i);
    if (fault && fault->invert_direction_from &&
        fault::reached(*fault->invert_direction_from, i, i))
      asc = !asc;
    if (fault && fault->substitute_at && fault->substitute_at->stage == i) {
      a[0] = fault->substitute_value;
      blockops::sort_dir(a, cur_asc);
    }
    if (asc != cur_asc) {
      blockops::reverse_block(a);
      ctx.charge(cm.copy * static_cast<double>(m));
      cur_asc = asc;
    }

    for (int j = i; j >= 0; --j) {
      if (fault && fault->halt_at && fault::reached(*fault->halt_at, i, j)) {
        if (fault->kill_process && sh.in_child) transport::kill_self();
        if (fault->wedge_process && sh.in_child) transport::wedge_self();
        write_out();
        co_return;  // fail-silent: peers see message absence
      }
      const cube::NodeId partner = me ^ (cube::NodeId{1} << j);
      const bool active = !cube::node_bit(me, j);
      if (active) {
        auto r = co_await ctx.recv(partner);
        if (!r.ok) {  // absent message: S_NR has no checks, halt silently
          completed = false;
          break;
        }
        ctx.account_recv(r.msg);
        sim::KeyBuf theirs = std::move(r.msg.data);
        if (theirs.size() != m) theirs.resize(m, 0);  // Byzantine garbage
        if (!blockops::is_sorted_dir(theirs, cur_asc))
          blockops::sort_dir(theirs, cur_asc);  // S_NR trusts, repairs shape only
        merged.resize(2 * m);
        blockops::merge_dir_into(a, theirs, cur_asc, merged);
        ctx.charge(cm.cmp * static_cast<double>(2 * m));
        sim::Message reply(ctx.pool());
        reply.kind = sim::MsgKind::kData;
        reply.stage = i;
        reply.iter = j;
        reply.data.assign(merged.begin() + static_cast<std::ptrdiff_t>(m),
                          merged.end());
        a.assign(merged.begin(), merged.begin() + static_cast<std::ptrdiff_t>(m));
        ctx.send(partner, std::move(reply));
      } else {
        sim::Message msg(ctx.pool());
        msg.kind = sim::MsgKind::kData;
        msg.stage = i;
        msg.iter = j;
        msg.data = a;
        ctx.send(partner, std::move(msg));
        auto r = co_await ctx.recv(partner);
        if (!r.ok) {
          completed = false;
          break;
        }
        ctx.account_recv(r.msg);
        a = std::move(r.msg.data);
        if (a.size() != m) a.resize(m, 0);
        if (!blockops::is_sorted_dir(a, cur_asc)) blockops::sort_dir(a, cur_asc);
      }
    }
  }
  write_out();

  if (sh.with_host && completed) {
    sim::Message up(ctx.pool());
    up.kind = sim::MsgKind::kHostGather;
    up.tag = 1;  // claimed-sorted output
    up.data = a;
    ctx.send_host(std::move(up));
    auto verdict = co_await ctx.recv_host();
    if (!verdict.ok) {
      ctx.error({0, n, -1, sim::ErrorSource::kTimeout, "no verdict from host"});
      co_return;
    }
    ctx.account_recv(verdict.msg);
    if (verdict.msg.tag != 1)
      ctx.error({0, n, -1, sim::ErrorSource::kApp,
                 "host rejected output (Theorem 1 assertion failed)"});
  }
  co_return;
}

// Host side of the host-verified variant: collect input and output, apply the
// Theorem-1 assertion (output non-decreasing and a permutation of the input),
// and broadcast the verdict.
sim::SimTask verify_host(sim::HostCtx& host, SnrShared& sh) {
  const std::size_t num_nodes = std::size_t{1} << sh.dim;
  const std::size_t m = sh.m;
  const std::size_t total = num_nodes * m;
  std::vector<Key> initial(total, 0), sorted(total, 0);
  std::vector<bool> got_sorted(num_nodes, false);

  bool complete = true;
  for (std::size_t msgs = 0; msgs < 2 * num_nodes; ++msgs) {
    auto r = co_await host.recv();
    if (!r.ok) {  // some node never reported: treat as failed verification
      complete = false;
      break;
    }
    host.account_recv(r.msg);
    if (r.msg.kind != sim::MsgKind::kHostGather) continue;  // stray error report
    auto& dst = r.msg.tag == 0 ? initial : sorted;
    if (r.msg.tag == 1) got_sorted[r.msg.from] = true;
    std::copy(r.msg.data.begin(), r.msg.data.end(),
              dst.begin() + static_cast<std::ptrdiff_t>(r.msg.from * m));
  }

  bool ok = complete;
  if (ok) {
    // Theorem 1, part 2: non-decreasing output.
    host.charge(sh.cost.host_cmp * static_cast<double>(total));
    ok = is_non_decreasing(sorted);
  }
  if (ok) {
    // Theorem 1, part 1: output is a permutation of the input.  Matching the
    // two lists is equivalent to finding the permutation: O(K·log K).
    const double k = static_cast<double>(total);
    host.charge(sh.cost.host_cmp * (k * std::log2(std::max(k, 2.0)) + k));
    ok = is_permutation_of(sorted, initial);
  }

  if (!ok)
    host.error({0, sh.dim, -1, sim::ErrorSource::kApp,
                complete ? "Theorem 1 assertion failed on uploaded output"
                         : "some node never uploaded its output"});

  for (cube::NodeId p = 0; p < num_nodes; ++p) {
    if (!got_sorted[p]) continue;  // node died mid-protocol; nothing to answer
    sim::Message down;
    down.kind = sim::MsgKind::kHostScatter;
    down.tag = ok ? 1 : 0;
    host.send(p, std::move(down));
  }
  co_return;
}

SortRun finish(sim::Machine& machine, SnrShared& sh) {
  SortRun run;
  run.output = std::move(sh.output);
  run.errors = machine.errors();
  run.summary = machine.summary();
  return run;
}

// ---- shared-memory backend --------------------------------------------------

int snr_child_body(transport::ShmSegment& seg, cube::NodeId p, SnrShared& sh) {
  transport::NodeSlot& slot = seg.slot(p);
  try {
    sim::Machine mach(cube::Topology{sh.dim}, sh.cost);
    transport::ShmTransport link(seg, static_cast<std::int32_t>(p));
    mach.attach_remote(&link, static_cast<std::int32_t>(p));
    mach.set_interceptor(sh.interceptor);
    slot.state.store(static_cast<std::uint32_t>(transport::SlotState::kRunning),
                     std::memory_order_release);
    mach.run_remote_node(p, [&sh](sim::Ctx& ctx) { return snr_node(ctx, sh); });
    transport::finish_shm_node(seg, p, mach);
    const std::size_t m = sh.m;
    std::copy(sh.output.begin() + static_cast<std::ptrdiff_t>(p * m),
              sh.output.begin() + static_cast<std::ptrdiff_t>((p + 1) * m),
              seg.output().begin() + static_cast<std::ptrdiff_t>(p * m));
    slot.state.store(static_cast<std::uint32_t>(transport::SlotState::kDone),
                     std::memory_order_release);
    return 0;
  } catch (const std::exception& e) {
    return shm_detail::fail_child(seg, p, e.what());
  }
}

SortRun run_snr_shm(int dim, SnrShared& sh, const SnrOptions& opts) {
  if (opts.machine != nullptr)
    throw std::invalid_argument(
        "SnrOptions::machine is a single-process affordance; not available "
        "on the shm backend");

  transport::ShmSegment::Config cfg;
  cfg.dim = dim;
  cfg.block = sh.m;
  cfg.algo = 1;
  cfg.cost = sh.cost;
  cfg.recv_timeout_s = opts.shm.recv_timeout_s;
  cfg.run_deadline_s = opts.shm.run_deadline_s;
  auto seg = transport::ShmSegment::create(cfg);

  std::copy(sh.input.begin(), sh.input.end(), seg.input().begin());
  shm_detail::fill_wire_faults(seg, sh.node_faults);

  transport::ShmParent par(seg);
  sh.in_child = true;
  if (opts.shm.node_binary.empty())
    par.spawn_fork(
        [&](cube::NodeId p) { return snr_child_body(seg, p, sh); });
  else
    par.spawn_exec(opts.shm.node_binary);
  sh.in_child = false;
  par.await_all();

  SortRun run;
  shm_detail::collect_shm_results(seg, run, /*record_events=*/false);
  return run;
}

// ---- socket backend ---------------------------------------------------------

int snr_tcp_child_body(transport::TcpNodeEndpoint& ep, cube::NodeId p,
                       SnrShared& sh) {
  try {
    ep.connect_peers();
    sim::Machine mach(cube::Topology{sh.dim}, sh.cost);
    mach.attach_remote(&ep, static_cast<std::int32_t>(p));
    mach.set_interceptor(sh.interceptor);
    mach.run_remote_node(p, [&sh](sim::Ctx& ctx) { return snr_node(ctx, sh); });
    const std::size_t m = sh.m;
    tcp_detail::finish_tcp_node(
        ep, p, mach, std::span<const Key>(sh.output).subspan(p * m, m),
        /*record_events=*/false);
    return 0;
  } catch (const std::exception& e) {
    return tcp_detail::fail_tcp_node(ep, p, e.what());
  }
}

SortRun run_snr_tcp(int dim, SnrShared& sh, const SnrOptions& opts) {
  if (opts.machine != nullptr)
    throw std::invalid_argument(
        "SnrOptions::machine is a single-process affordance; not available "
        "on the tcp backend");
  if (dim > transport::kMaxProcessDim)
    throw std::invalid_argument("tcp backend supports dim <= " +
                                std::to_string(transport::kMaxProcessDim));
  if (const std::size_t cb =
          transport::config_frame_bytes(dim, sh.m, /*with_resume=*/false);
      cb > transport::kMaxFrameBytes)
    throw std::invalid_argument(
        "tcp: CONFIG for this job would be " + std::to_string(cb) +
        " bytes, beyond the " + std::to_string(transport::kMaxFrameBytes) +
        "-byte frame limit — shrink block or dim for the tcp backend");

  const cube::NodeId n = cube::NodeId{1} << dim;
  const auto& topts = opts.tcp;
  transport::TcpHostEndpoint host(dim, topts);
  transport::TcpParent par(dim, topts.run_deadline_s);
  host.set_host_poll([&par] { par.poll(); }, &par.children());
  const auto pins =
      topts.hosts_file.empty()
          ? std::vector<std::optional<transport::HostPin>>(n)
          : transport::parse_hosts_file(topts.hosts_file,
                                        static_cast<int>(n));

  const std::string parent_addr = host.addr();
  const std::uint16_t parent_port = host.port();
  sh.in_child = true;
  if (topts.node_binary.empty()) {
    const double setup_s = topts.run_deadline_s;
    par.spawn_fork(
        [&, setup_s](cube::NodeId p) {
          try {
            transport::TcpNodeEndpoint ep(
                p, parent_addr, parent_port,
                pins[p] ? pins[p]->addr : std::string("127.0.0.1"),
                pins[p] ? pins[p]->port : std::uint16_t{0}, setup_s);
            return snr_tcp_child_body(ep, p, sh);
          } catch (const std::exception&) {
            return 1;
          }
        },
        pins);
  } else {
    par.spawn_exec(topts.node_binary, parent_addr, parent_port, pins);
  }
  sh.in_child = false;

  host.rendezvous(topts.run_deadline_s);

  transport::TcpConfigHead head;
  head.block = sh.m;
  head.algo = 1;
  head.cost = sh.cost;
  const auto wire_faults = tcp_detail::wire_faults_of(sh.node_faults, n);
  host.broadcast_config(head, wire_faults, sh.input, {});

  host.await_all();
  par.await_exits();

  SortRun run;
  tcp_detail::collect_tcp_results(host, dim, run, sh.m,
                                  /*record_events=*/false);
  return run;
}

}  // namespace

SortRun run_snr(int dim, std::span<const Key> input, const SnrOptions& opts) {
  assert(input.size() == (std::size_t{1} << dim) * opts.block);
  SnrShared sh;
  sh.m = opts.block;
  sh.cost = opts.cost;
  sh.node_faults = opts.node_faults;
  sh.dim = dim;
  sh.interceptor = opts.interceptor;
  sh.input = input;
  sh.output.assign(input.size(), 0);

  if (opts.backend == transport::Backend::kShm)
    return run_snr_shm(dim, sh, opts);
  if (opts.backend == transport::Backend::kTcp)
    return run_snr_tcp(dim, sh, opts);

  std::optional<sim::Machine> owned;
  sim::Machine* machine = opts.machine;
  if (machine != nullptr) {
    if (machine->topo().dimension() != dim)
      throw std::invalid_argument(
          "SnrOptions::machine topology dimension does not match the sort");
    machine->reset(opts.cost);
  } else {
    owned.emplace(cube::Topology{dim}, opts.cost);
    machine = &*owned;
  }
  machine->set_interceptor(opts.interceptor);
  machine->run([&sh](sim::Ctx& ctx) { return snr_node(ctx, sh); });
  return finish(*machine, sh);
}

SortRun run_host_verified_snr(int dim, std::span<const Key> input,
                              const HostVerifyOptions& opts) {
  assert(input.size() == (std::size_t{1} << dim) * opts.block);
  SnrShared sh;
  sh.m = opts.block;
  sh.cost = opts.cost;
  sh.node_faults = opts.node_faults;
  sh.dim = dim;
  sh.with_host = true;
  sh.input = input;
  sh.output.assign(input.size(), 0);

  sim::Machine machine(cube::Topology{dim}, opts.cost);
  machine.set_interceptor(opts.interceptor);
  machine.run([&sh](sim::Ctx& ctx) { return snr_node(ctx, sh); },
              [&sh](sim::HostCtx& host) { return verify_host(host, sh); });
  return finish(machine, sh);
}

namespace detail {

int run_snr_shm_node(transport::ShmSegment& seg, cube::NodeId p) {
  const transport::SegmentHeader& hd = seg.header();
  SnrShared sh;
  sh.dim = static_cast<int>(hd.dim);
  sh.m = static_cast<std::size_t>(hd.block);
  sh.cost = hd.cost;
  sh.node_faults = shm_detail::faults_from_segment(seg);
  sh.in_child = true;
  sh.input = seg.input();
  sh.output.assign(sh.input.size(), 0);
  return snr_child_body(seg, p, sh);
}

int run_snr_tcp_node(transport::TcpNodeEndpoint& ep, cube::NodeId p) {
  const transport::TcpConfigHead& hd = ep.config();
  SnrShared sh;
  sh.dim = static_cast<int>(hd.dim);
  sh.m = static_cast<std::size_t>(hd.block);
  sh.cost = hd.cost;
  sh.node_faults = tcp_detail::faults_from_wire(ep.faults());
  sh.in_child = true;
  sh.input = ep.input();
  sh.output.assign(sh.input.size(), 0);
  return snr_tcp_child_body(ep, p, sh);
}

}  // namespace detail

}  // namespace aoft::sort
