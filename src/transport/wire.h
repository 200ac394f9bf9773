// Wire form of sim::Message for the shared-memory rings and tcp frames.
//
// Both ends of a segment are the same build on the same machine, so the
// layout is native-endian PODs: a fixed header followed by the data keys and
// then the lbs keys.  Shm senders gather the header and both key arrays
// straight into a log record, which receivers read in place (ShmTransport);
// tcp frames go through encode_message/decode_message.  The lbs keys come
// from an explicit span — m.lbs, or the sender's own LBS window lent for the
// duration of the send — so a node's gossip reaches the wire without a
// staging copy.  The sender's logical arrival stamp travels on the wire —
// receiver clocks advance from it exactly as in the simulator, which is what
// keeps per-node logical time (and therefore every Φ evaluation and trace
// line) deterministic across backends.

#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "sim/message.h"
#include "sim/pool.h"

namespace aoft::transport {

struct WireMsgHdr {
  std::uint8_t kind = 0;
  std::uint8_t pad_[3] = {};
  std::int32_t from = 0;
  std::int32_t stage = -1;
  std::int32_t iter = -1;
  std::int32_t tag = 0;
  std::uint32_t ndata = 0;
  std::uint32_t nlbs = 0;
  std::uint32_t pad2_ = 0;  // keep `arrival` 8-aligned explicitly
  double arrival = 0.0;
};
static_assert(sizeof(WireMsgHdr) == 40);
static_assert(sizeof(WireMsgHdr) % sizeof(sim::Key) == 0,
              "keys after the header stay 8-aligned in a shm ring record");

// The fixed header describing `m` on the wire, with `lbs` as its LBS payload
// (m.lbs itself, or a window the sender lent: sim/remote.h).
inline WireMsgHdr wire_header(const sim::Message& m,
                              std::span<const sim::Key> lbs) {
  WireMsgHdr h;
  h.kind = static_cast<std::uint8_t>(m.kind);
  h.from = static_cast<std::int32_t>(m.from);
  h.stage = m.stage;
  h.iter = m.iter;
  h.tag = m.tag;
  h.ndata = static_cast<std::uint32_t>(m.data.size());
  h.nlbs = static_cast<std::uint32_t>(lbs.size());
  h.arrival = m.arrival;
  return h;
}

// `h`'s fields on `out`; its key buffers are the caller's to fill.
inline void header_into(const WireMsgHdr& h, sim::Message& out) {
  out.kind = static_cast<sim::MsgKind>(h.kind);
  out.from = static_cast<cube::NodeId>(h.from);
  out.stage = h.stage;
  out.iter = h.iter;
  out.tag = h.tag;
  out.arrival = h.arrival;
}

inline void encode_message(const sim::Message& m, std::span<const sim::Key> lbs,
                           std::vector<unsigned char>& out) {
  const WireMsgHdr h = wire_header(m, lbs);
  out.resize(sizeof h + (m.data.size() + lbs.size()) * sizeof(sim::Key));
  std::memcpy(out.data(), &h, sizeof h);
  unsigned char* p = out.data() + sizeof h;
  if (!m.data.empty()) {
    std::memcpy(p, m.data.data(), m.data.size() * sizeof(sim::Key));
    p += m.data.size() * sizeof(sim::Key);
  }
  if (!lbs.empty()) std::memcpy(p, lbs.data(), lbs.size() * sizeof(sim::Key));
}

// Rebuild a pooled Message from one encoded record.  False on a malformed
// record (truncated, or length fields disagreeing with the payload size) —
// a harness bug, not a protocol fault, so callers throw.
inline bool decode_message(std::span<const unsigned char> bytes,
                           sim::KeyPool& pool, sim::Message& out) {
  if (bytes.size() < sizeof(WireMsgHdr)) return false;
  WireMsgHdr h;
  std::memcpy(&h, bytes.data(), sizeof h);
  const std::size_t want =
      sizeof h +
      (static_cast<std::size_t>(h.ndata) + h.nlbs) * sizeof(sim::Key);
  if (bytes.size() != want) return false;
  out = sim::Message(pool);
  header_into(h, out);
  const auto* keys =
      reinterpret_cast<const sim::Key*>(bytes.data() + sizeof h);
  out.data.assign(keys, keys + h.ndata);
  out.lbs.assign(keys + h.ndata, keys + h.ndata + h.nlbs);
  return true;
}

}  // namespace aoft::transport
