// The shared-memory segment one multi-process sort runs over.
//
// Layout (offsets in the header, every region 64-byte aligned):
//
//   SegmentHeader      the JobConfig (dimensions, cost model, predicate
//                      toggles, timeouts) — everything an exec'd child needs
//                      to reconstruct its SftOptions/SnrOptions — plus layout
//   WireFault[N]       scripted per-node faults (fault::NodeFault as POD)
//   NodeSlot[N]        per-child status (atomic), pid, stats, error records
//   WireLinkEvent[N*cap] per-child link-event log (record_events)
//   Key[N*m] input     flattened run input
//   Key[N*m] llbs      resume state C_{start-1} (with_resume)
//   Key[N*m] output    per-node result blocks, written at child completion
//   rings              N*dim node link rings, N up (node->host) rings,
//                      N down (host->node) rings, each ShmRingHdr + buffer
//
// Rings are sized for the whole run's traffic on their link — S_FT uses each
// directed link at most dim+1 times — so a push only fails when the protocol
// misbehaves; senders then drop and count the message rather than block (a
// dead peer must absorb traffic like a halted sim receiver).  A node
// publishes its count in its slot, the host keeps its own, and the fleet's
// collect path reports any drop as an error.
//
// The segment is an anonymous memfd (memfd_create + ftruncate +
// mmap(MAP_SHARED)), so no name exists that a crashed parent could leak.
// Fork children inherit the mapping; exec'd children open the creator's
// descriptor through /proc/<creator pid>/fd/<n>, which is the segment's
// name().
//
// Recycling: a process keeps one retired segment of its own as a spare.
// create() reuses it when the new layout has the same total_bytes (and maps
// a fresh one otherwise), re-initializing the header, faults, slots, events,
// input, llbs, output and every ring header; only ring buffers keep stale
// bytes, unreachable because every cursor restarts at 0.  This skips the
// first-touch page faults, zeroing and teardown of multi-MB rings on every
// run.  Only the creating process retires a segment, on destruction, and a
// creator must reap every child that mapped it first: ShmParent's lifetime
// nests inside the segment's.
//
// Recycled pages stay in the page cache, but every new child maps the
// segment with no page-table entries of its own, so ShmTransport prefaults
// each multi-page ring push rather than trap once per 4 KiB page.  See
// ShmRing::prefault (shm_ring.h) for the Linux >= 5.14 requirement and the
// stale neighbouring pages fault-around may map, which no reader can reach.

#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>

#include <sys/types.h>

#include "hypercube/topology.h"
#include "sim/cost_model.h"
#include "sim/pool.h"
#include "transport/backend.h"
#include "transport/shm_ring.h"
#include "transport/slot_state.h"

namespace aoft::transport {

inline constexpr int kMaxShmDim = kMaxProcessDim;  // shared multi-process cap
inline constexpr char kSegmentMagic[8] = {'A', 'O', 'F', 'T',
                                          'S', 'H', 'M', '1'};
inline constexpr std::uint32_t kSegmentVersion = 2;
inline constexpr std::uint32_t kMaxSlotErrors = 16;
inline constexpr std::uint32_t kErrDetailBytes = 96;

// The host's role id for ShmTransport (any negative value works for
// Machine::attach_remote; this one is the convention).
inline constexpr std::int32_t kHostRole = -1;

// fault::StagePoint on the wire; set == 0 encodes "no such point".
struct WirePoint {
  std::int32_t stage = 0, iter = 0;
  std::uint8_t set = 0;
  std::uint8_t pad_[3] = {};
};

// fault::NodeFault flattened to POD for the segment (exec'd children cannot
// inherit the parent's NodeFaultMap).
struct WireFault {
  WirePoint halt, invert, subst;
  std::int64_t subst_value = 0;
  std::uint8_t silent_checker = 0, kill_process = 0, wedge_process = 0;
  std::uint8_t pad_[5] = {};
};

struct WireError {
  std::int32_t stage = -1, iter = -1;
  std::uint8_t source = 0;
  char detail[kErrDetailBytes] = {};
};

struct WireLinkEvent {
  std::int32_t from = 0, to = 0;
  std::uint8_t kind = 0, delivered = 0, to_host = 0, from_host = 0;
  std::int32_t stage = -1, iter = -1;
  std::uint32_t words = 0;
};

// SlotState and slot_terminal() live in transport/slot_state.h — the tcp
// backend's PeerWatch shares them.

struct NodeSlot {
  std::atomic<std::uint32_t> state;  // SlotState; child-written, parent-reaped
  std::int32_t pid = 0;
  // sim::NodeStats of the child's machine, published at completion.
  double clock = 0.0, comp_ticks = 0.0, comm_ticks = 0.0;
  std::uint64_t msgs_sent = 0, words_sent = 0;
  std::uint32_t watchdog_rounds = 0;
  std::uint32_t send_overflow = 0;  // ring-full sends dropped (sizing bug)
  std::uint32_t error_count = 0, error_overflow = 0;
  std::uint32_t event_count = 0, event_overflow = 0;
  WireError errors[kMaxSlotErrors] = {};
  char fail_reason[kErrDetailBytes] = {};
};

struct SegmentHeader : JobConfig {
  char magic[8] = {};
  std::uint32_t version = 0;
  std::int32_t host_pid = 0;
  double run_deadline_s = kDefaultRunDeadlineS;
  std::uint64_t link_ring_bytes = 0, up_ring_bytes = 0, down_ring_bytes = 0;
  std::uint32_t event_cap = 0;
  std::uint64_t off_faults = 0, off_slots = 0, off_events = 0;
  std::uint64_t off_input = 0, off_llbs = 0, off_output = 0, off_rings = 0;
  std::uint64_t total_bytes = 0;
};
static_assert(std::is_trivially_copyable_v<SegmentHeader>);

class ShmSegment {
 public:
  struct Config : JobConfig {
    double run_deadline_s = kDefaultRunDeadlineS;
  };

  // Parent side: lay out a segment for `cfg`, recycling this process's
  // spare when its size matches, and initialize it.  Throws
  // std::runtime_error on any memfd/mmap failure and std::invalid_argument
  // on a job that job_config_error() rejects.
  static ShmSegment create(const Config& cfg);

  // Child side (exec mode): open an existing segment by name() and validate
  // magic/version/size and the job (job_config_error).  Throws
  // std::runtime_error on mismatch.
  static ShmSegment attach(const std::string& name);

  ShmSegment(ShmSegment&&) noexcept;
  ShmSegment& operator=(ShmSegment&&) noexcept;
  ShmSegment(const ShmSegment&) = delete;
  ShmSegment& operator=(const ShmSegment&) = delete;
  // Unmaps; in the creating process the segment becomes the spare instead
  // when there is none yet.
  ~ShmSegment();

  const std::string& name() const { return name_; }
  int dim() const { return static_cast<int>(header().dim); }
  cube::NodeId num_nodes() const { return cube::NodeId{1} << header().dim; }

  SegmentHeader& header() { return *reinterpret_cast<SegmentHeader*>(base_); }
  const SegmentHeader& header() const {
    return *reinterpret_cast<const SegmentHeader*>(base_);
  }

  std::span<WireFault> faults();  // one per node
  NodeSlot& slot(cube::NodeId p);
  std::span<WireLinkEvent> events(cube::NodeId p);  // event_cap entries
  std::span<sim::Key> input();
  std::span<sim::Key> llbs();
  std::span<sim::Key> output();

  // Messages into `to` across dimension k.
  ShmRing link_ring(cube::NodeId to, int k);
  ShmRing up_ring(cube::NodeId p);    // p -> host
  ShmRing down_ring(cube::NodeId p);  // host -> p

 private:
  ShmSegment() = default;
  // This process's spare if it is `total_bytes` long (it is then no longer
  // the spare), else an empty segment; a spare of another size is unmapped.
  static ShmSegment take_spare(std::uint64_t total_bytes);
  unsigned char* at(std::uint64_t off) { return base_ + off; }
  // The ring `skip` bytes into node p's ring block.
  ShmRing ring_at(cube::NodeId p, std::uint64_t skip, std::uint64_t bytes);

  std::string name_;
  unsigned char* base_ = nullptr;
  std::uint64_t size_ = 0;
  int fd_ = -1;       // the memfd, kept open by the creator for exec attach
  pid_t creator_ = 0;  // 0 in an attaching process
};

}  // namespace aoft::transport
