// Global-allocation counter for the zero-allocation acceptance bar.
//
// The pooled messaging hot path (sim/pool.h) claims that a warmed-up
// scenario run performs no heap allocation at steady state beyond one
// coroutine frame per node task.  That claim is only testable if something
// counts calls to ::operator new — so the bench (campaign_throughput) and
// the allocation-regression test link aoft_alloc_hook, whose *real*
// translation unit replaces the global operator new/delete family with
// malloc-backed versions that bump a relaxed atomic.
//
// Everything else links the *stub* TU, where alloc_hook_active() is false and
// alloc_count() stays 0 — no behavior change, no contention.  CMake selects
// the TU: sanitizer builds (AOFT_SANITIZE=ON) always get the stub because
// ASan interposes operator new itself; tests must GTEST_SKIP when
// !alloc_hook_active().
//
// The counter tallies every allocation on every thread since process start.
// Callers measure deltas: record alloc_count(), run the region of interest,
// subtract.  Single-threaded regions (a Machine run) measure exactly.

#pragma once

#include <cstdint>

namespace aoft::util {

// Total calls to the replaced ::operator new (all forms) so far.  Always 0
// when the stub TU is linked.
std::uint64_t alloc_count();

// True iff the real counting TU is linked into this binary.
bool alloc_hook_active();

}  // namespace aoft::util
