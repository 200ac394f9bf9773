// S_NR (paper Fig. 2) and the host-verified S_NR baseline of sequential.h —
// the latter lives here because it wraps the same node program with a
// gather/verify epilogue.

#include "sort/snr.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "hypercube/subcube.h"
#include "sort/blockops.h"
#include "sort/fleet.h"
#include "sort/sequential.h"

namespace aoft::sort {

namespace {

struct SnrShared {
  std::size_t m = 1;
  sim::CostModel cost{};
  fault::NodeFaultMap node_faults;
  int dim = 0;
  bool with_host = false;  // host-verified variant: gather + Theorem-1 check
  std::span<const Key> input;  // view into caller storage, alive for the run
  // Where finished blocks land: the whole cube's output on the simulator; in
  // a node process, only that node's m-key slot of its fabric (out_first).
  std::span<Key> output;
  cube::NodeId out_first = 0;
  std::vector<Death> deaths;  // simulator only: scripted process deaths

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
              sh.output.begin() +
                  static_cast<std::ptrdiff_t>((me - sh.out_first) * m));
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
  blockops::sort_dir(a, cur_asc, ctx.pool());
  ctx.charge(local_sort_cost(cm, m));

  for (int i = 0; i < n && completed; ++i) {
    bool asc = cube::stage_ascending(me, i);
    if (fault && fault->invert_direction_from &&
        fault::reached(*fault->invert_direction_from, i, i))
      asc = !asc;
    if (fault && fault->substitute_at && fault->substitute_at->stage == i) {
      a[0] = fault->substitute_value;
      blockops::sort_dir(a, cur_asc, ctx.pool());
    }
    if (asc != cur_asc) {
      blockops::reverse_block(a);
      ctx.charge(cm.copy * static_cast<double>(m));
      cur_asc = asc;
    }

    for (int j = i; j >= 0; --j) {
      if (fault && fault->halt_at && fault::reached(*fault->halt_at, i, j)) {
        fleet::halt_process(ctx, *fault, sh.deaths);
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
        // S_NR trusts the operand and repairs only its shape.
        if (!blockops::is_sorted_dir(theirs, cur_asc))
          blockops::sort_dir(theirs, cur_asc, ctx.pool());
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
        if (!blockops::is_sorted_dir(a, cur_asc))
          blockops::sort_dir(a, cur_asc, ctx.pool());
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

SortRun finish(sim::Machine& machine, SnrShared& sh, std::vector<Key> output) {
  SortRun run;
  run.output = std::move(output);
  run.errors = machine.errors();
  run.deaths = std::move(sh.deaths);
  std::ranges::sort(run.deaths, {}, &Death::node);
  run.summary = machine.summary();
  return run;
}

// ---- process fabrics (sort/fleet.h) -----------------------------------------

// Options -> JobConfig: what every node process is told about the job.
transport::JobConfig job_config(int dim, const SnrOptions& opts) {
  transport::JobConfig cfg;
  cfg.dim = static_cast<std::uint32_t>(dim);
  cfg.block = opts.block;
  cfg.algo = 1;
  cfg.cost = opts.cost;
  return cfg;
}

// JobConfig -> Options: a node process rebuilds the run's state from the job
// its fabric delivered.
SnrShared shared_of(const fleet::NodeJob& job) {
  SnrShared sh;
  sh.dim = static_cast<int>(job.cfg.dim);
  sh.m = static_cast<std::size_t>(job.cfg.block);
  sh.cost = job.cfg.cost;
  sh.node_faults = job.faults;
  sh.input = job.input;
  return sh;
}

// Node p's S_NR program inside its own process, forked or exec'd.  The node
// writes its block straight into the fabric's `out` slot.
void process_node(const fleet::NodeJob& job, sim::Machine& mach,
                  cube::NodeId p, std::span<Key> out) {
  SnrShared sh = shared_of(job);
  sh.output = out;
  sh.out_first = p;
  mach.run_remote_node(p, [&sh](sim::Ctx& ctx) { return snr_node(ctx, sh); });
}

}  // namespace

SortRun run_snr(int dim, std::span<const Key> input, const SnrOptions& opts) {
  require_cube_keys("run_snr input", dim, opts.block, input.size());
  if (opts.backend != transport::Backend::kSim)
    return fleet::run({.backend = opts.backend,
                       .shm = opts.shm,
                       .tcp = opts.tcp,
                       .cfg = job_config(dim, opts),
                       .input = input,
                       .llbs = {},
                       .faults = opts.node_faults,
                       .interceptor = opts.interceptor,
                       .machine = opts.machine,
                       .observer = false},
                      process_node);

  SnrShared sh;
  sh.m = opts.block;
  sh.cost = opts.cost;
  sh.node_faults = opts.node_faults;
  sh.dim = dim;
  sh.input = input;
  std::vector<Key> output(input.size(), 0);
  sh.output = output;

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
  return finish(*machine, sh, std::move(output));
}

SortRun run_host_verified_snr(int dim, std::span<const Key> input,
                              const HostVerifyOptions& opts) {
  require_cube_keys("run_host_verified_snr input", dim, opts.block,
                    input.size());
  SnrShared sh;
  sh.m = opts.block;
  sh.cost = opts.cost;
  sh.node_faults = opts.node_faults;
  sh.dim = dim;
  sh.with_host = true;
  sh.input = input;
  std::vector<Key> output(input.size(), 0);
  sh.output = output;

  sim::Machine machine(cube::Topology{dim}, opts.cost);
  machine.set_interceptor(opts.interceptor);
  machine.run([&sh](sim::Ctx& ctx) { return snr_node(ctx, sh); },
              [&sh](sim::HostCtx& host) { return verify_host(host, sh); });
  return finish(machine, sh, std::move(output));
}

namespace detail {

int run_snr_shm_node(transport::ShmSegment& seg, cube::NodeId p) {
  return fleet::run_node(seg, p, process_node);
}

int run_snr_tcp_node(transport::TcpNodeEndpoint& ep, cube::NodeId p) {
  return fleet::run_node(ep, p, process_node);
}

}  // namespace detail

}  // namespace aoft::sort
