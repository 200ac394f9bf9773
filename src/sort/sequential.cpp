// run_host_sort lives here; run_host_verified_snr is defined in snr.cpp next
// to the S_NR node program it reuses.

#include "sort/sequential.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sort/blockops.h"

namespace aoft::sort {

namespace {

struct HostSortShared {
  HostSortOptions opts;
  int dim = 0;
  std::size_t m = 1;
  std::vector<Key> input;
  std::vector<Key> output;
};

sim::SimTask host_sort_node(sim::Ctx& ctx, HostSortShared& sh) {
  const cube::NodeId me = ctx.id();
  const std::size_t m = sh.m;
  sim::Message up;
  up.kind = sim::MsgKind::kHostGather;
  up.data.assign(sh.input.begin() + static_cast<std::ptrdiff_t>(me * m),
                 sh.input.begin() + static_cast<std::ptrdiff_t>((me + 1) * m));
  ctx.send_host(std::move(up));

  auto r = co_await ctx.recv_host();
  if (!r.ok) {
    ctx.error({0, -1, -1, sim::ErrorSource::kTimeout, "no scatter from host"});
    co_return;
  }
  ctx.account_recv(r.msg);
  std::copy(r.msg.data.begin(), r.msg.data.end(),
            sh.output.begin() + static_cast<std::ptrdiff_t>(me * m));
  co_return;
}

sim::SimTask host_sort_host(sim::HostCtx& host, HostSortShared& sh) {
  const std::size_t num_nodes = std::size_t{1} << sh.dim;
  const std::size_t m = sh.m;
  const std::size_t total = num_nodes * m;
  std::vector<Key> all(total, 0);

  for (std::size_t got = 0; got < num_nodes; ++got) {
    auto r = co_await host.recv();
    if (!r.ok) co_return;  // cannot happen: host links are reliable
    host.account_recv(r.msg);
    std::copy(r.msg.data.begin(), r.msg.data.end(),
              all.begin() + static_cast<std::ptrdiff_t>(r.msg.from * m));
  }

  // The paper charges the theoretical minimum: one comparison, K·log2 K times
  // (the wall clock pays a radix sort's few linear passes).
  blockops::sort_dir(all, true, host.pool());
  const double k = static_cast<double>(total);
  host.charge(sh.opts.cost.host_cmp * k * std::log2(std::max(k, 2.0)));

  for (cube::NodeId p = 0; p < num_nodes; ++p) {
    sim::Message down;
    down.kind = sim::MsgKind::kHostScatter;
    down.data.assign(all.begin() + static_cast<std::ptrdiff_t>(p * m),
                     all.begin() + static_cast<std::ptrdiff_t>((p + 1) * m));
    host.send(p, std::move(down));
  }
  co_return;
}

}  // namespace

SortRun run_host_sort(int dim, std::span<const Key> input,
                      const HostSortOptions& opts) {
  assert(input.size() == (std::size_t{1} << dim) * opts.block);
  HostSortShared sh;
  sh.opts = opts;
  sh.dim = dim;
  sh.m = opts.block;
  sh.input.assign(input.begin(), input.end());
  sh.output.assign(input.size(), 0);

  sim::Machine machine(cube::Topology{dim}, opts.cost);
  machine.run([&sh](sim::Ctx& ctx) { return host_sort_node(ctx, sh); },
              [&sh](sim::HostCtx& host) { return host_sort_host(host, sh); });

  SortRun run;
  run.output = std::move(sh.output);
  run.errors = machine.errors();
  run.summary = machine.summary();
  return run;
}

}  // namespace aoft::sort
