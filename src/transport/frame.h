// Stream framing for the socket backend (docs/PROTOCOL.md §13.1).
//
// TCP is a byte stream; the rings' record boundaries have to be rebuilt with
// a length prefix.  Every frame is
//
//   [u32 len][u8 type][3 pad][payload: len bytes]
//
// in native byte order — both ends of a cube are the same build, exactly the
// assumption wire.h already makes for the shm rings.  kData payloads are the
// unchanged WireMsgHdr encoding from wire.h, so the logical arrival stamp
// and key blocks travel byte-identically over both multi-process fabrics.
//
// FrameReader is an incremental cursor over whatever the socket delivered:
// feed() appends raw bytes, next() yields complete frames and leaves partial
// ones (including a split mid-header) buffered for the next read.

#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "transport/shm_segment.h"
#include "transport/slot_state.h"

namespace aoft::transport {

enum class FrameType : std::uint8_t {
  kHello = 1,      // node -> parent: identity + the node's own listen port
  kConfig = 2,     // parent -> node: job config, faults, port map, input keys
  kData = 3,       // node <-> node / node <-> host: one encoded sim::Message
  kHeartbeat = 4,  // either direction: liveness only, empty payload
  kFinish = 5,     // node -> parent: terminal state, stats, errors, output
};

struct FrameHdr {
  std::uint32_t len = 0;  // payload bytes, excluding this header
  std::uint8_t type = 0;
  std::uint8_t pad_[3] = {};
};
static_assert(sizeof(FrameHdr) == 8);

// A frame larger than this is a protocol violation, not a big message: the
// largest legitimate payload is a kConfig or kFinish carrying a full key
// image (2^kMaxProcessDim nodes * block keys), and callers size well under
// this.  Guards the reader against interpreting stream garbage as a length.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 28;  // 256 MiB

inline void append_frame(std::vector<unsigned char>& out, FrameType type,
                         std::span<const unsigned char> payload) {
  // Silent u32 truncation here would desynchronize the stream; a payload
  // this large is a sender bug (drivers bound CONFIG, the biggest frame,
  // via config_frame_bytes below), so refuse loudly before any copy.
  if (payload.size() > kMaxFrameBytes)
    throw std::length_error("tcp: frame payload of " +
                            std::to_string(payload.size()) +
                            " bytes exceeds the " +
                            std::to_string(kMaxFrameBytes) +
                            "-byte frame limit");
  FrameHdr h;
  h.len = static_cast<std::uint32_t>(payload.size());
  h.type = static_cast<std::uint8_t>(type);
  const std::size_t at = out.size();
  out.resize(at + sizeof h + payload.size());
  std::memcpy(out.data() + at, &h, sizeof h);
  if (!payload.empty())
    std::memcpy(out.data() + at + sizeof h, payload.data(), payload.size());
}

struct Frame {
  FrameType type;
  std::span<const unsigned char> payload;  // valid until the next feed()
};

class FrameReader {
 public:
  // Append raw bytes from the socket.  This is the ONLY call that moves the
  // buffer (compaction and reallocation both happen here), so every payload
  // span handed out by next() since the previous feed() stays valid.
  void feed(std::span<const unsigned char> bytes) {
    compact();
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  // Next complete frame, or nullopt if the buffer holds only a partial one.
  // The payload span aliases the internal buffer and is valid until the
  // next feed(); next() itself never invalidates previously returned spans.
  // Sets malformed() (and yields nothing further) on an impossible length
  // or unknown type — stream corruption is a harness bug, callers throw.
  std::optional<Frame> next() {
    if (malformed_) return std::nullopt;
    if (buf_.size() - pos_ < sizeof(FrameHdr)) return std::nullopt;
    FrameHdr h;
    std::memcpy(&h, buf_.data() + pos_, sizeof h);
    if (h.len > kMaxFrameBytes || h.type < 1 ||
        h.type > static_cast<std::uint8_t>(FrameType::kFinish)) {
      malformed_ = true;
      return std::nullopt;
    }
    if (buf_.size() - pos_ < sizeof h + h.len) return std::nullopt;
    Frame f;
    f.type = static_cast<FrameType>(h.type);
    f.payload = std::span<const unsigned char>(buf_.data() + pos_ + sizeof h,
                                               h.len);
    pos_ += sizeof h + h.len;
    return f;
  }

  bool malformed() const { return malformed_; }
  bool empty() const { return pos_ == buf_.size(); }

 private:
  void compact() {
    // Reclaim consumed bytes once they dominate the buffer, preserving any
    // partial frame tail.
    if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(pos_));
      pos_ = 0;
    }
  }

  std::vector<unsigned char> buf_;
  std::size_t pos_ = 0;
  bool malformed_ = false;
};

// ---- control-frame payloads (POD, native order) -----------------------------

inline constexpr char kTcpMagic[8] = {'A', 'O', 'F', 'T', 'T', 'C', 'P', '1'};

// kHello payload.  role is the node id, or kHostRole is never sent — only
// nodes dial the parent.  listen_port is the ephemeral port the node bound
// for its peer mesh; listen_addr is the address peers should dial (the
// node's bind address, or its source address as a default).
struct WireHello {
  char magic[8] = {};
  std::int32_t role = 0;
  std::uint16_t listen_port = 0;
  std::uint8_t pad_[2] = {};
  char listen_addr[48] = {};
};
static_assert(std::is_trivially_copyable_v<WireHello>);

// One row of the port map broadcast inside kConfig.
struct WirePortEntry {
  char addr[48] = {};
  std::uint16_t port = 0;
  std::uint8_t pad_[6] = {};
};
static_assert(std::is_trivially_copyable_v<WirePortEntry>);

// kConfig payload: this fixed head, then WireFault[N], WirePortEntry[N],
// Key[N*m] input, and (if with_resume) Key[N*m] llbs.  The job itself is the
// JobConfig the shm SegmentHeader also carries, so exec'd children
// reconstruct SftOptions/SnrOptions the same way on both fabrics.
// broadcast_config stamps magic, version, dim and for_node; the node checks
// all four plus job_config_error() before it trusts the rest.
inline constexpr std::uint32_t kTcpConfigVersion = 2;

struct TcpConfigHead : JobConfig {
  char magic[8] = {};
  std::uint32_t version = 0;
  std::int32_t for_node = 0;  // the addressee (sanity check)
  double heartbeat_interval_s = 0.0;
  double heartbeat_loss_s = 0.0;
};
static_assert(std::is_trivially_copyable_v<TcpConfigHead>);

// Exact CONFIG payload size for a job: head + WireFault[N] + WirePortEntry[N]
// + the input key image (+ the LLBS image on a resume).  CONFIG is the
// largest frame of the protocol, so the drivers use this to reject a job
// that cannot fit one frame *before* spawning any process, with a message
// naming the real limit instead of a downstream "stream ended before
// CONFIG" mystery; append_frame refuses anything larger at send time.
inline std::size_t config_frame_bytes(int dim, std::uint64_t block,
                                      bool with_resume) {
  const std::size_t n = std::size_t{1} << dim;
  return sizeof(TcpConfigHead) +
         n * (sizeof(WireFault) + sizeof(WirePortEntry)) +
         n * static_cast<std::size_t>(block) * sizeof(sim::Key) *
             (with_resume ? 2 : 1);
}

// kFinish payload: this fixed head, then WireError[error_count],
// WireLinkEvent[event_count], Key[out_count] (the node's output block).
// Field set matches NodeSlot so parent-side result assembly is shared with
// the shm backend.
struct FinishHead {
  std::int32_t node = 0;
  std::uint32_t state = 0;  // SlotState: kDone or kFailed
  double clock = 0.0, comp_ticks = 0.0, comm_ticks = 0.0;
  std::uint64_t msgs_sent = 0, words_sent = 0;
  std::uint32_t watchdog_rounds = 0;
  std::uint32_t error_count = 0, error_overflow = 0;
  std::uint32_t event_count = 0, event_overflow = 0;
  std::uint32_t out_count = 0;
  char fail_reason[kErrDetailBytes] = {};
};
static_assert(std::is_trivially_copyable_v<FinishHead>);

template <class T>
inline std::span<const unsigned char> as_bytes_of(const T& v) {
  return {reinterpret_cast<const unsigned char*>(&v), sizeof v};
}

// Read one POD out of a payload cursor; false if the payload is too short.
template <class T>
inline bool take(std::span<const unsigned char>& payload, T& out) {
  if (payload.size() < sizeof(T)) return false;
  std::memcpy(&out, payload.data(), sizeof(T));
  payload = payload.subspan(sizeof(T));
  return true;
}

}  // namespace aoft::transport
