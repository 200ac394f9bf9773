// Transport selection: which fabric carries the cube's messages.
//
// The deterministic single-process simulator (sim/machine.h) is the oracle:
// every protocol claim is first established there.  The shared-memory
// backend (transport/shm_segment.h) runs the same node programs as one OS
// process per hypercube node over lock-free SPSC rings in an mmap'd segment;
// the socket backend (transport/tcp_transport.h) runs them over
// WireMsgHdr-framed TCP streams so an n-cube can span hosts.  Both must
// reproduce the simulator's sorted output and fail-stop verdicts for
// identical fault scripts (docs/PROTOCOL.md §11 — the oracle contract).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/cost_model.h"

namespace aoft::transport {

enum class Backend : std::uint8_t {
  kSim = 0,  // single-process deterministic coroutine simulator (the oracle)
  kShm = 1,  // one OS process per node over shared-memory SPSC rings
  kTcp = 2,  // one OS process per node over framed TCP streams (may span hosts)
};

inline const char* to_string(Backend b) {
  switch (b) {
    case Backend::kSim: return "sim";
    case Backend::kShm: return "shm";
    case Backend::kTcp: return "tcp";
  }
  return "?";
}

inline bool parse_backend(std::string_view s, Backend& out) {
  if (s == "sim") {
    out = Backend::kSim;
    return true;
  }
  if (s == "shm") {
    out = Backend::kShm;
    return true;
  }
  if (s == "tcp") {
    out = Backend::kTcp;
    return true;
  }
  return false;
}

// Multi-process backends cap the cube so a fleet stays within sane process
// and file-descriptor budgets (256 node processes; the parent holds one
// socket per node under tcp).
inline constexpr int kMaxProcessDim = 8;

// Real-time bound a blocked receiver waits for link activity before its
// watchdog declares message absence (Environmental Assumption 4 needs an
// actual clock on a real transport).  One documented constant shared by the
// shm and tcp backends — ShmOptions, TcpOptions and JobConfig must all agree
// on it, which historically they did not.
inline constexpr double kDefaultRecvTimeoutS = 15.0;

// Parent-side bound on the whole run: on expiry every spawned child is
// SIGKILLed, after which the surviving receivers fail over normally.
inline constexpr double kDefaultRunDeadlineS = 120.0;

// A node heartbeats only from its pump loop, so a compute burst (the
// block-local sorts and merges between exchanges) sends no beats for time
// proportional to its block.  The silence bound must grow with the job or
// big blocks get live nodes declared dead: 1 µs of allowed silence per
// block key is ~2 orders of magnitude above the measured per-key sort
// cost, so the scaled bound stays a wedge detector, not a false-positive
// generator.  broadcast_config stamps the scaled value into the CONFIG
// head, so host and nodes always sweep with the same bound.
inline constexpr double kHeartbeatSlackPerKeyS = 1e-6;

inline double scaled_heartbeat_loss(double loss_s, std::uint64_t block_keys) {
  if (loss_s <= 0) return loss_s;  // <= 0 disables the silence rule
  return loss_s + kHeartbeatSlackPerKeyS * static_cast<double>(block_keys);
}

// The per-job fields every node process needs, whichever fabric carries
// them.  The shm SegmentHeader and ShmSegment::Config and the tcp CONFIG head
// (TcpConfigHead) all inherit it, so each algorithm maps its options to and
// from one struct.  Fixed-width fields without padding: it is wire format.
struct JobConfig {
  std::uint32_t dim = 0;
  std::int32_t start_stage = 0;  // first stage to run; > 0 on a resume
  std::uint64_t block = 1;
  std::uint8_t algo = 0;  // 0 = sft, 1 = snr
  std::uint8_t checkpoint = 0, record_events = 0, with_resume = 0;
  std::uint8_t check_progress = 1, check_feasibility = 1;
  std::uint8_t check_consistency = 1, check_exchange = 1;
  double recv_timeout_s = kDefaultRecvTimeoutS;
  sim::CostModel cost{};
};

// Why `job` cannot run, or "" when it can: dim <= kMaxProcessDim, block >= 1,
// algo is 0 or 1, start_stage in [0, dim) (0 for a single node), and a resume
// image exactly when start_stage > 0.  Checked wherever a job is created or
// decoded: a segment header or CONFIG frame is outside input.
inline std::string job_config_error(const JobConfig& job) {
  if (job.dim > static_cast<std::uint32_t>(kMaxProcessDim))
    return "dim " + std::to_string(job.dim) + " beyond the multi-process cap " +
           std::to_string(kMaxProcessDim);
  if (job.block < 1) return "block must be >= 1";
  if (job.algo > 1) return "unknown algorithm " + std::to_string(job.algo);
  if (job.start_stage < 0 ||
      (job.start_stage > 0 &&
       static_cast<std::uint32_t>(job.start_stage) >= job.dim))
    return "start stage " + std::to_string(job.start_stage) +
           " outside the dim-" + std::to_string(job.dim) + " cube";
  if ((job.with_resume != 0) != (job.start_stage > 0))
    return "a resume image must come with exactly the resumed jobs";
  return "";
}

// Knobs for the shared-memory backend (ignored under kSim).
struct ShmOptions {
  // Backstop for a peer that wedges without dying; peer *death* is detected
  // much faster via the per-node status slots.
  double recv_timeout_s = kDefaultRecvTimeoutS;

  double run_deadline_s = kDefaultRunDeadlineS;

  // Non-empty: spawn each node by exec'ing this launcher binary
  // (tools/aoft_node) so every node gets a fresh address space.  Empty: fork
  // directly — children inherit the caller's interceptor/observer closures
  // copy-on-write, which is what lets the fault-injection test rigs run
  // unchanged over real processes.
  std::string node_binary;
};

// Knobs for the socket backend (ignored under kSim/kShm).  Defaults run the
// whole cube over loopback with ephemeral rendezvous ports; a hosts file
// (docs/PROTOCOL.md §13.2) pins addresses so nodes can live on other
// machines, launched there as `aoft_node --connect=HOST:PORT --node=P`.
struct TcpOptions {
  // Same watchdog backstop the shm backend uses (shared constant above).
  double recv_timeout_s = kDefaultRecvTimeoutS;

  double run_deadline_s = kDefaultRunDeadlineS;

  // Heartbeat cadence: every endpoint emits a heartbeat frame on each link
  // that has been transmit-idle for `heartbeat_interval_s`; a peer whose
  // link has been receive-silent for `heartbeat_loss_s` transitions to the
  // terminal kDead slot state (docs/PROTOCOL.md §13.4).  Two guards keep
  // the silence rule from killing live nodes: `heartbeat_loss_s` is the
  // *base* bound — broadcast_config stamps
  // scaled_heartbeat_loss(heartbeat_loss_s, block) into the CONFIG so the
  // swept bound grows with the longest compute burst a node performs
  // between waits — and the rule only arms per link once the peer has
  // actually been heard from (peer_watch.h), so the fleet's staggered
  // rendezvous/CONFIG/mesh window can never read as death.
  double heartbeat_interval_s = 0.25;
  double heartbeat_loss_s = 2.0;

  // Non-empty: spawn each local node by exec'ing this launcher binary
  // (tools/aoft_node --connect=...).  Empty: fork directly, as under shm.
  std::string node_binary;

  // Parent rendezvous endpoint.  Port 0 binds an ephemeral port (spawned
  // children are told the real one on their command line / closure).
  std::string listen_addr = "127.0.0.1";
  std::uint16_t port = 0;

  // Parsed hosts file (aoft_sort_cli --hosts=FILE).  Empty: every node is
  // local, binds 127.0.0.1:ephemeral, and is spawned by the parent.
  std::string hosts_file;
};

}  // namespace aoft::transport
