// Host-based baselines (paper §§4–5).
//
// The paper weighs S_FT against two host-centred alternatives:
//
//   * host sort — ship all data to the host, sort there, ship it back.  The
//     paper deliberately times the host "sort" as a single if-statement
//     executed N·log2 N times (the theoretical comparison minimum), so the
//     baseline is as favourable to the host as possible; we do the same by
//     charging host_cmp · K·log2 K ticks while producing the actual sorted
//     output with blockops::sort_dir.  Communication is O(N) but pays the
//     serial per-word host-link cost both ways: the host is the bottleneck.
//
//   * host-verified parallel sort — nodes ship the unsorted data to the
//     host, sort among themselves with the unprotected S_NR, then ship the
//     result to the host, which applies the Theorem-1 assertion (output is a
//     permutation of input and non-decreasing).  Centralized fault
//     *detection* at O(N) communication and O(N·log N) host computation.
//
// Both appear in Figures 6–8 as the comparison series.

#pragma once

#include <span>

#include "fault/fault_spec.h"
#include "sim/cost_model.h"
#include "sim/machine.h"
#include "sort/driver.h"

namespace aoft::sort {

struct HostSortOptions {
  std::size_t block = 1;
  sim::CostModel cost{};
};

// Gather -> host sort -> scatter.  Reliable by assumption (host and host
// links are non-faulty), and entirely serialized through the host.
SortRun run_host_sort(int dim, std::span<const Key> input,
                      const HostSortOptions& opts = {});

struct HostVerifyOptions {
  std::size_t block = 1;
  sim::CostModel cost{};
  sim::LinkInterceptor* interceptor = nullptr;  // faults hit the S_NR phase
  fault::NodeFaultMap node_faults;
};

// Nodes run S_NR; the host applies the Theorem-1 output assertion.  If the
// check fails the run is marked fail-stop (an ErrorReport from the host side
// appears in the result).  Detects corrupted *final* output, but only at
// termination and only at the host — the contrast motivating S_FT.
SortRun run_host_verified_snr(int dim, std::span<const Key> input,
                              const HostVerifyOptions& opts = {});

}  // namespace aoft::sort
