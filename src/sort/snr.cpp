// S_NR (paper Fig. 2) and the host-verified S_NR baseline of sequential.h —
// the latter lives here because it wraps the same node program with a
// gather/verify epilogue.

#include "sort/snr.h"

#include <algorithm>
#include <cmath>

#include "hypercube/subcube.h"
#include "sort/blockops.h"
#include "sort/fleet.h"
#include "sort/sequential.h"

namespace aoft::sort {

namespace {

// Cost of the initial local sort: m·log2(m) comparisons (zero for m = 1).
double local_sort_cost(const sim::CostModel& cm, std::size_t m) {
  return m > 1 ? cm.cmp * static_cast<double>(m) * std::log2(static_cast<double>(m))
               : 0.0;
}

// The S_NR node program.  With `with_host` (the host-verified variant) the
// node also uploads its input and its claimed-sorted output to the host and
// awaits the host's Theorem-1 verdict.
sim::SimTask snr_body(sim::Ctx& ctx, const fleet::NodeJob& job,
                      bool with_host) {
  const cube::NodeId me = ctx.id();
  const int n = static_cast<int>(job.cfg.dim);
  const std::size_t m = job.cfg.block;
  const auto& cm = job.cfg.cost;
  const fault::NodeFault* fault = job.fault_for(me);

  sim::KeyBuf a(ctx.pool());
  a.assign(job.input.begin() + static_cast<std::ptrdiff_t>(me * m),
           job.input.begin() + static_cast<std::ptrdiff_t>((me + 1) * m));
  // Merge-split scratch, reused across every iteration of every stage.
  sim::KeyBuf merged(ctx.pool());
  auto write_out = [&] {
    std::copy(a.begin(), a.end(), job.out_block(me).begin());
  };

  if (with_host) {
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
        fleet::halt_process(ctx, *fault, job);
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
        // S_NR trusts the operand and repairs only its shape, in storage of
        // its own: a buffer received over shm is borrowed from the log.
        if (!blockops::is_sorted_dir(theirs, cur_asc)) {
          theirs.own();
          blockops::sort_dir(theirs, cur_asc, ctx.pool());
        }
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
        a.own();  // `a` is repaired, reversed and substituted in place
        if (a.size() != m) a.resize(m, 0);
        if (!blockops::is_sorted_dir(a, cur_asc))
          blockops::sort_dir(a, cur_asc, ctx.pool());
      }
    }
  }
  write_out();

  if (with_host && completed) {
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

sim::SimTask snr_node(sim::Ctx& ctx, const fleet::NodeJob& job) {
  return snr_body(ctx, job, false);
}

sim::SimTask snr_verified_node(sim::Ctx& ctx, const fleet::NodeJob& job) {
  return snr_body(ctx, job, true);
}

// Host side of the host-verified variant: collect input and output, apply the
// Theorem-1 assertion (output non-decreasing and a permutation of the input),
// and broadcast the verdict.
sim::SimTask verify_host(sim::HostCtx& host,
                         const transport::JobConfig& cfg) {
  const std::size_t num_nodes = std::size_t{1} << cfg.dim;
  const std::size_t m = cfg.block;
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
    host.charge(cfg.cost.host_cmp * static_cast<double>(total));
    ok = is_non_decreasing(sorted);
  }
  if (ok) {
    // Theorem 1, part 1: output is a permutation of the input.  Matching the
    // two lists is equivalent to finding the permutation: O(K·log K).  A
    // non-decreasing permutation of the input is the input sorted, so one
    // oracle call decides both parts in wall clock; the ticks stay the
    // paper's.
    const double k = static_cast<double>(total);
    host.charge(cfg.cost.host_cmp * (k * std::log2(std::max(k, 2.0)) + k));
    ok = is_sort_of(sorted, initial);
  }

  if (!ok)
    host.error({0, static_cast<int>(cfg.dim), -1, sim::ErrorSource::kApp,
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

// Options -> JobConfig: everything a node program reads about the job.
transport::JobConfig job_config(int dim, std::size_t block,
                                const sim::CostModel& cost) {
  transport::JobConfig cfg;
  cfg.dim = static_cast<std::uint32_t>(dim);
  cfg.block = block;
  cfg.algo = 1;
  cfg.cost = cost;
  return cfg;
}

}  // namespace

SortRun run_snr(int dim, std::span<const Key> input, const SnrOptions& opts) {
  require_cube_keys("run_snr input", dim, opts.block, input.size());
  return fleet::run({.backend = opts.backend,
                     .cfg = job_config(dim, opts.block, opts.cost),
                     .input = input,
                     .faults = opts.node_faults,
                     .interceptor = opts.interceptor,
                     .machine = opts.machine,
                     .shm = &opts.shm,
                     .tcp = &opts.tcp},
                    snr_node);
}

SortRun run_host_verified_snr(int dim, std::span<const Key> input,
                              const HostVerifyOptions& opts) {
  require_cube_keys("run_host_verified_snr input", dim, opts.block,
                    input.size());
  const transport::JobConfig cfg = job_config(dim, opts.block, opts.cost);
  return fleet::run({.cfg = cfg,
                     .input = input,
                     .faults = opts.node_faults,
                     .interceptor = opts.interceptor},
                    snr_verified_node, [&cfg](sim::HostCtx& host) {
                      return verify_host(host, cfg);
                    });
}

namespace detail {

int run_snr_shm_node(transport::ShmSegment& seg, cube::NodeId p) {
  return fleet::run_node(seg, p, snr_node);
}

int run_snr_tcp_node(transport::TcpNodeEndpoint& ep, cube::NodeId p) {
  return fleet::run_node(ep, p, snr_node);
}

}  // namespace detail

}  // namespace aoft::sort
