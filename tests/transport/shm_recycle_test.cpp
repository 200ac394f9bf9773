// The shm fabric's resource contract (docs/PROTOCOL.md §11.1):
//
//   - ring-full drops are counted and reported as errors, never silent;
//   - the segment is an anonymous memfd: no /dev/shm name ever exists;
//   - a process recycles its retired segment, and a run on a recycled
//     segment is indistinguishable from a run in a fresh process, even after
//     a run that left dead slots, error reports and link events behind;
//   - repeated runs leak neither fds nor children.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "sort/sft.h"
#include "transport/shm_segment.h"
#include "transport/shm_transport.h"
#include "util/rng.h"

#ifndef AOFT_NODE_PATH
#error "build must define AOFT_NODE_PATH (see tests/CMakeLists.txt)"
#endif

namespace aoft::sort {
namespace {

SftOptions shm_opts() {
  SftOptions o;
  o.block = 2;
  o.record_link_events = true;
  o.backend = transport::Backend::kShm;
  o.shm.recv_timeout_s = 5.0;
  o.shm.run_deadline_s = 60.0;
  return o;
}

fault::NodeFaultMap kill_fault(cube::NodeId node, fault::StagePoint at) {
  fault::NodeFaultMap faults;
  faults[node].halt_at = at;
  faults[node].kill_process = true;
  return faults;
}

// Everything a SortRun carries, as text, so two runs compare exactly.
std::string fingerprint(const SortRun& run) {
  std::ostringstream os;
  os.precision(17);
  os << "out";
  for (Key k : run.output) os << ' ' << k;
  os << "\nerr";
  for (const auto& e : run.errors)
    os << " (" << e.node << ',' << e.stage << ',' << e.iter << ','
       << static_cast<int>(e.source) << ',' << e.detail << ')';
  const sim::RunSummary& s = run.summary;
  os << "\nsum " << s.elapsed << ' ' << s.max_comm << ' ' << s.max_comp << ' '
     << s.host_comm << ' ' << s.host_comp << ' ' << s.total_msgs << ' '
     << s.total_words << ' ' << s.watchdog_rounds << "\nev";
  for (const auto& e : run.link_events)
    os << " (" << e.from << ',' << e.to << ',' << static_cast<int>(e.kind)
       << ',' << e.stage << ',' << e.iter << ',' << e.words << ','
       << e.delivered << e.to_host << e.from_host << ')';
  return os.str();
}

// fingerprint(fn()) computed in a forked child: a process that has never
// run a job, so its segment is freshly mapped.
std::string in_fresh_process(const std::function<SortRun()>& fn) {
  int fds[2];
  if (pipe(fds) != 0) return "pipe failed";
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const std::string fp = fingerprint(fn());
    std::size_t off = 0;
    while (off < fp.size()) {
      const ssize_t w = write(fds[1], fp.data() + off, fp.size() - off);
      if (w <= 0) _exit(1);
      off += static_cast<std::size_t>(w);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (ssize_t r; (r = read(fds[0], buf, sizeof buf)) != 0;) {
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) break;
    out.append(buf, static_cast<std::size_t>(r));
  }
  close(fds[0]);
  int st = 0;
  waitpid(pid, &st, 0);
  EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0);
  return out;
}

int open_fd_count() {
  int n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
}

std::vector<std::string> named_aoft_segments() {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/dev/shm", ec))
    if (e.path().filename().string().rfind("aoft-", 0) == 0)
      names.push_back(e.path().string());
  return names;
}

// ---- overflow reporting ------------------------------------------------------

TEST(ShmOverflow, FullLinkRingDropsAndCountsTheSend) {
  transport::ShmSegment::Config cfg;
  cfg.dim = 1;
  cfg.block = 1;
  auto seg = transport::ShmSegment::create(cfg);
  transport::ShmTransport sender(seg, 0);
  transport::ShmTransport receiver(seg, 1);

  sim::KeyPool pool;
  sim::Message big(pool);
  big.kind = sim::MsgKind::kDataLbs;
  big.from = 0;
  big.data.assign(seg.header().link_ring_bytes / sizeof(Key), 7);
  sender.send_node(0, 1, big, big.lbs);
  EXPECT_EQ(sender.send_overflow(), 1u);

  sim::Message small(pool);
  small.from = 0;
  small.data.assign({1, 2, 3});
  sender.send_node(0, 1, small, small.lbs);
  EXPECT_EQ(sender.send_overflow(), 1u);

  std::vector<std::size_t> got;
  EXPECT_EQ(receiver.pump(pool,
                          [&](bool, cube::NodeId, sim::Message&& m) {
                            got.push_back(m.data.size());
                          }),
            1u);
  EXPECT_EQ(got, std::vector<std::size_t>{3});
}

// Inflates one node's first link message past any ring's capacity.
struct Inflate final : sim::LinkInterceptor {
  cube::NodeId victim = 0;
  std::size_t keys = 0;
  bool done = false;
  bool on_send(cube::NodeId from, cube::NodeId, sim::Message& m) override {
    if (from == victim && !done) {
      m.lbs.assign(keys, 0);
      done = true;
    }
    return true;
  }
};

TEST(ShmOverflow, RingFullDropIsReportedInTheSortRun) {
  const int dim = 2;
  SftOptions opts = shm_opts();
  opts.shm.recv_timeout_s = 0.5;  // the dropped message's receiver times out
  Inflate inflate;
  inflate.victim = 2;
  inflate.keys = std::size_t{1} << 20;  // 8 MiB: beyond any dim-2 ring
  opts.interceptor = &inflate;
  const auto input = util::random_keys(5, (std::size_t{1} << dim) * opts.block);
  const SortRun run = run_sft(dim, input, opts);
  ASSERT_TRUE(run.fail_stop());
  bool reported = false;
  for (const auto& e : run.errors)
    reported = reported || (e.node == inflate.victim &&
                            e.detail.find("full shm ring") != std::string::npos);
  EXPECT_TRUE(reported) << "the drop must surface as node "
                        << inflate.victim << "'s error report";
}

// ---- memfd backing and recycling ---------------------------------------------

TEST(ShmRecycle, SegmentIsAnAnonymousMemfdAttachableThroughProc) {
  transport::ShmSegment::Config cfg;
  cfg.dim = 2;
  cfg.block = 3;
  auto seg = transport::ShmSegment::create(cfg);
  EXPECT_EQ(seg.name().rfind("/proc/" + std::to_string(getpid()) + "/fd/", 0),
            0u)
      << seg.name();
  EXPECT_TRUE(named_aoft_segments().empty());
  seg.input()[5] = 99;
  auto other = transport::ShmSegment::attach(seg.name());
  EXPECT_EQ(other.input()[5], 99);
}

TEST(ShmRecycle, RetiredSegmentIsReusedFullyReinitialized) {
  transport::ShmSegment::Config cfg;
  cfg.dim = 2;
  cfg.block = 3;
  cfg.record_events = true;
  std::string name;
  {
    auto seg = transport::ShmSegment::create(cfg);
    name = seg.name();
    // Leave behind everything a crashed run leaves: a dead slot with error
    // reports and counters, link events, keys in every region and traffic
    // in flight on a ring.
    transport::NodeSlot& slot = seg.slot(1);
    slot.state.store(static_cast<std::uint32_t>(transport::SlotState::kDead));
    slot.error_count = 2;
    slot.send_overflow = 3;
    slot.event_count = 1;
    seg.events(1)[0].words = 42;
    seg.faults()[2].kill_process = 1;
    std::fill(seg.input().begin(), seg.input().end(), 11);
    std::fill(seg.llbs().begin(), seg.llbs().end(), 12);
    std::fill(seg.output().begin(), seg.output().end(), 13);
    const Key probe = 5;
    ASSERT_TRUE(seg.link_ring(3, 1).try_push({{&probe, sizeof probe}}));
  }
  auto seg = transport::ShmSegment::create(cfg);
  EXPECT_EQ(seg.name(), name) << "same size: the spare is reused";
  for (cube::NodeId p = 0; p < seg.num_nodes(); ++p) {
    const transport::NodeSlot& slot = seg.slot(p);
    EXPECT_EQ(static_cast<transport::SlotState>(slot.state.load()),
              transport::SlotState::kIdle);
    EXPECT_EQ(slot.error_count + slot.send_overflow + slot.event_count, 0u);
    EXPECT_EQ(seg.faults()[p].kill_process, 0);
    for (int k = 0; k < seg.dim(); ++k) EXPECT_TRUE(seg.link_ring(p, k).empty());
    EXPECT_TRUE(seg.up_ring(p).empty());
    EXPECT_TRUE(seg.down_ring(p).empty());
  }
  EXPECT_EQ(seg.events(1)[0].words, 0u);
  // Only what a job reads before writing it starts over: the output.  The
  // input and llbs regions are overwritten whole by every job that reads
  // them, so recycling leaves them stale rather than zeroing megabytes.
  for (Key k : seg.output()) ASSERT_EQ(k, 0);

  // A different size maps fresh.
  cfg.block = 4;
  auto bigger = transport::ShmSegment::create(cfg);
  EXPECT_EQ(bigger.header().block, 4u);
  for (Key k : bigger.output()) ASSERT_EQ(k, 0);
}

TEST(ShmRecycle, FaultFreeRunAfterAKillRunMatchesAFreshProcess) {
  const int dim = 3;
  const SftOptions clean = shm_opts();
  const auto input = util::random_keys(31, (std::size_t{1} << dim) * clean.block);
  const std::string fresh =
      in_fresh_process([&] { return run_sft(dim, input, clean); });

  SftOptions kill = clean;
  kill.node_faults = kill_fault(1, fault::StagePoint{1, 0});
  const SortRun killed = run_sft(dim, input, kill);
  ASSERT_TRUE(killed.fail_stop());
  ASSERT_FALSE(killed.link_events.empty());

  const SortRun recycled = run_sft(dim, input, clean);
  ASSERT_FALSE(recycled.fail_stop());
  EXPECT_EQ(fingerprint(recycled), fresh);
}

// What the sim oracle and a process fabric must agree on (docs/PROTOCOL.md
// §11.2): error tuples, deaths, output and canonical link events.  A node
// SIGKILLed on shm never publishes, so its output block and the link events
// it sent are compared only on the runs where nobody is killed.
void expect_matches_oracle(const SortRun& got, const SortRun& oracle,
                           std::size_t m, const char* what) {
  using ErrorKey = std::tuple<cube::NodeId, int, int, int>;
  using EventKey = std::tuple<int, int, cube::NodeId, cube::NodeId, bool, bool,
                              int, std::uint32_t, bool>;
  const auto killed = [&](cube::NodeId p) {
    return std::ranges::any_of(oracle.deaths,
                               [p](const Death& d) { return d.node == p; });
  };
  const auto errors = [](const SortRun& r) {
    std::vector<ErrorKey> keys;
    for (const auto& e : r.errors)
      keys.emplace_back(e.node, e.stage, e.iter, static_cast<int>(e.source));
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  const auto events = [&](const SortRun& r) {
    std::vector<EventKey> keys;
    for (const auto& e : r.link_events)
      if (e.from_host || !killed(e.from))
        keys.emplace_back(e.stage, e.iter, e.from, e.to, e.to_host,
                          e.from_host, static_cast<int>(e.kind), e.words,
                          e.delivered);
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  const auto output = [&](const SortRun& r) {
    std::vector<Key> out = r.output;
    for (const Death& d : oracle.deaths)
      std::fill_n(out.begin() + static_cast<std::ptrdiff_t>(d.node * m), m, 0);
    return out;
  };
  EXPECT_EQ(errors(got), errors(oracle)) << what;
  EXPECT_EQ(got.deaths, oracle.deaths) << what;
  EXPECT_EQ(output(got), output(oracle)) << what;
  EXPECT_EQ(events(got), events(oracle)) << what;
}

TEST(ShmRecycle, FaultedThenCleanJobsMatchTheOracleAndColdRuns) {
  // Blocks of 512 keys: radix-sorted, with multi-page ring records and
  // arena extents, so the second job reuses arena and ring pages the
  // faulted one left stale.
  const int dim = 3;
  SftOptions clean = shm_opts();
  clean.block = 512;
  const auto input =
      util::random_keys(71, (std::size_t{1} << dim) * clean.block);
  SftOptions faulted = clean;
  faulted.node_faults = kill_fault(1, fault::StagePoint{1, 0});
  faulted.node_faults[6].invert_direction_from = fault::StagePoint{0, 0};
  const auto on_sim = [&](SftOptions o) {
    o.backend = transport::Backend::kSim;
    return run_sft(dim, input, o);
  };

  const std::string cold_faulted =
      in_fresh_process([&] { return run_sft(dim, input, faulted); });
  const std::string cold_clean =
      in_fresh_process([&] { return run_sft(dim, input, clean); });

  (void)run_sft(dim, input, clean);  // this process's spare, pages cached
  const SortRun f = run_sft(dim, input, faulted);
  const SortRun c = run_sft(dim, input, clean);
  ASSERT_TRUE(f.fail_stop());
  ASSERT_FALSE(c.fail_stop());
  EXPECT_EQ(fingerprint(f), cold_faulted);
  EXPECT_EQ(fingerprint(c), cold_clean);
  expect_matches_oracle(f, on_sim(faulted), clean.block, "faulted job");
  expect_matches_oracle(c, on_sim(clean), clean.block, "clean job after it");
}

TEST(ShmRecycle, FailedRunOutputIsNotThePreviousRunsKeys) {
  const int dim = 2;
  const SftOptions clean = shm_opts();
  const std::size_t m = clean.block;
  const auto first = util::random_keys(41, (std::size_t{1} << dim) * m);
  const SortRun ok = run_sft(dim, first, clean);
  ASSERT_FALSE(ok.fail_stop());

  SftOptions kill = clean;
  const cube::NodeId victim = 2;
  kill.node_faults = kill_fault(victim, fault::StagePoint{0, 0});
  const auto second = util::random_keys(42, (std::size_t{1} << dim) * m);
  const SortRun failed = run_sft(dim, second, kill);
  ASSERT_TRUE(failed.fail_stop());
  // The killed node never published: its block is the zeroed region, not
  // the sorted block the previous run left in the recycled segment.
  const auto block = std::span<const Key>(failed.output).subspan(victim * m, m);
  for (Key k : block) EXPECT_EQ(k, 0);
}

TEST(ShmRecycle, ExecModeNodesAttachTheMemfdSegment) {
  const int dim = 2;
  SftOptions exec = shm_opts();
  exec.shm.node_binary = AOFT_NODE_PATH;
  const auto input = util::random_keys(51, (std::size_t{1} << dim) * exec.block);
  SftOptions sim_opts;
  sim_opts.block = exec.block;
  sim_opts.record_link_events = true;
  const SortRun want = run_sft(dim, input, sim_opts);
  for (int rep = 0; rep < 2; ++rep) {  // fresh, then recycled
    const SortRun got = run_sft(dim, input, exec);
    ASSERT_FALSE(got.fail_stop()) << got.errors.front().detail;
    EXPECT_EQ(got.output, want.output);
    EXPECT_EQ(got.link_events.size(), want.link_events.size());
  }
}

TEST(ShmRecycle, RepeatedRunsLeakNoFdChildOrName) {
  const int dim = 2;
  const SftOptions clean = shm_opts();
  SftOptions kill = clean;
  kill.node_faults = kill_fault(3, fault::StagePoint{1, 0});
  const auto input = util::random_keys(61, (std::size_t{1} << dim) * clean.block);
  (void)run_sft(dim, input, clean);  // warm-up: the spare now exists
  const int fds = open_fd_count();
  for (int i = 0; i < 6; ++i) {
    const SortRun run = run_sft(dim, input, i % 3 == 2 ? kill : clean);
    EXPECT_EQ(run.fail_stop(), i % 3 == 2);
    EXPECT_TRUE(named_aoft_segments().empty());
  }
  EXPECT_EQ(open_fd_count(), fds);
  int st = 0;
  EXPECT_EQ(waitpid(-1, &st, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

}  // namespace
}  // namespace aoft::sort
