// sim::RemoteLink over a ShmSegment: the per-process endpoint driver.
//
// Each OS process owns one endpoint — node p (role == p) or the host (role
// == kHostRole) — and a ShmTransport wired to the shared segment.  Sends
// gather the wire header and both key arrays straight into the
// destination's inbound log, leaving the cells of a lent LBS window that
// its receiver does not read as holes (sim/remote.h); pump hands every new
// record of every log that feeds the local endpoint to the machine in
// place, its key arrays as KeyBufs borrowed over the log — one copy in,
// none out (shm_ring.h).
// Consumers that mutate a received buffer call KeyBuf::own() first.
// wait_activity implements message-absence
// detection (Environmental Assumption 4) on real time: a blocked node
// returns "nothing further can arrive" only once every peer it waits on is
// terminally down (status slot) with its inbound rings drained, or after
// recv_timeout_s of no progress; the host variant waits for all slots
// terminal and up-rings empty, polling the parent's reaper on the way.

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/remote.h"
#include "transport/shm_segment.h"

namespace aoft::transport {

class ShmTransport final : public sim::RemoteLink {
 public:
  // `role` is a node id, or kHostRole for the host endpoint.
  ShmTransport(ShmSegment& seg, std::int32_t role);

  // Host side: invoked on every wait iteration so the parent can reap dead
  // children and enforce the run deadline while its collector is blocked.
  void set_host_poll(std::function<void()> poll) { host_poll_ = std::move(poll); }

  // Cells of a lent window outside `cover` become holes in the record
  // (shm_ring.h): the receiver never reads them (sim/remote.h).
  void send_node(cube::NodeId from, cube::NodeId to, const sim::Message& m,
                 std::span<const sim::Key> lbs,
                 std::optional<cube::MaskCover> cover) override;
  void send_host(cube::NodeId from, const sim::Message& m,
                 std::span<const sim::Key> lbs) override;
  void send_from_host(cube::NodeId to, const sim::Message& m,
                      std::span<const sim::Key> lbs) override;
  std::size_t pump(sim::KeyPool& pool, const Deliver& deliver) override;
  bool wait_activity(std::span<const cube::NodeId> peers) override;

  // Messages this endpoint dropped because they would have crossed the end
  // of the destination's log.  The logs are sized for a whole run, so any
  // drop is a sizing bug; the fleet's collect path turns a nonzero count
  // into the sender's kApp error report.
  std::uint32_t send_overflow() const { return send_overflow_; }

 private:
  void push_ring(ShmRing ring, const sim::Message& m,
                 std::span<const sim::Key> lbs,
                 const std::optional<cube::MaskCover>& cover = std::nullopt);

  ShmSegment& seg_;
  std::int32_t role_;
  std::function<void()> host_poll_;
  std::uint32_t send_overflow_ = 0;
  std::vector<ShmPiece> pieces_;  // push_ring's gather list, reused
  // Per inbound log (up logs by node on the host; link logs by dimension,
  // then the down log, on a node): where this process's unmapping of
  // consumed pages has reached (ShmRing::unmap_consumed).
  std::vector<std::uint64_t> unmapped_;

  // One waiting episode: starts when wait_activity first sees no progress,
  // ends when pump delivers something.  The recv timeout bounds the episode.
  bool waiting_ = false;
  std::chrono::steady_clock::time_point wait_start_{};
};

}  // namespace aoft::transport
