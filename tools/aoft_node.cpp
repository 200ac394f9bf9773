// aoft_node — per-node launcher for the multi-process transports' exec mode.
//
//   aoft_node --segment=/proc/<pid>/fd/<n> --node=P           (shm backend)
//   aoft_node --connect=HOST:PORT --node=P [--listen=ADDR[:PORT]]  (tcp)
//
// Shm mode: the parent (aoft_sort_cli --transport=shm --node-bin=..., or any
// caller setting ShmOptions::node_binary) creates the segment and exec's one
// of these per hypercube node.  The launcher opens the segment by the path
// ShmSegment::name() gives (the parent's memfd under /proc) and
// reconstructs the node program's options from the segment header — exec'd
// children inherit nothing.
//
// Tcp mode: --connect names the parent's rendezvous socket.  The launcher
// binds its own listen socket (--listen, default 127.0.0.1 ephemeral), HELLOs
// the parent, and blocks for the CONFIG broadcast, which carries everything
// the segment header would (docs/PROTOCOL.md §13.2) — including which
// algorithm to run.  This is also the manual launcher for nodes pinned to
// other machines via --hosts: start it by hand there, pointing --connect at
// the driving host.
//
// Either way it then runs exactly the node body a forked child would
// (sort/sft.cpp, sort/snr.cpp).  Exit status: 0 = result published (kDone,
// or a protocol-detected fail-stop), 1 = harness failure (kFailed, reason in
// the slot/FINISH), 2 = usage/attach/rendezvous error before the run began.

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "sort/sft.h"
#include "sort/snr.h"
#include "transport/shm_segment.h"
#include "transport/tcp_transport.h"
#include "util/flags.h"

namespace {

// "HOST:PORT" / "HOST" → (addr, port).  Returns false on garbage.
bool split_endpoint(const char* s, std::string& addr, std::uint16_t& port,
                    bool port_required) {
  const char* colon = std::strrchr(s, ':');
  if (colon == nullptr) {
    if (port_required || *s == '\0') return false;
    addr = s;
    return true;
  }
  long long v = 0;
  if (!aoft::util::parse_i64(colon + 1, v) || v < 0 || v > 65535) return false;
  if (colon == s) return false;
  addr.assign(s, colon);
  port = static_cast<std::uint16_t>(v);
  return true;
}

int run_tcp(const char* connect, long long node, const char* listen,
            const char* argv0) {
  std::string parent_addr;
  std::uint16_t parent_port = 0;
  if (!split_endpoint(connect, parent_addr, parent_port, true) ||
      parent_port == 0) {
    std::fprintf(stderr, "%s: --connect needs HOST:PORT\n", argv0);
    return 2;
  }
  std::string listen_addr = "127.0.0.1";
  std::uint16_t listen_port = 0;
  if (listen != nullptr &&
      !split_endpoint(listen, listen_addr, listen_port, false)) {
    std::fprintf(stderr, "%s: --listen needs ADDR[:PORT]\n", argv0);
    return 2;
  }
  const auto p = static_cast<aoft::cube::NodeId>(node);
  // The CONFIG wait is bounded by the run deadline: a parent that never
  // broadcasts is indistinguishable from one that died.
  aoft::transport::TcpNodeEndpoint ep(p, parent_addr, parent_port, listen_addr,
                                      listen_port,
                                      aoft::transport::kDefaultRunDeadlineS);
  if (node >= (1LL << ep.config().dim)) {
    std::fprintf(stderr, "%s: node %lld outside the dim-%d cube\n", argv0,
                 node, ep.config().dim);
    return 2;
  }
  return ep.config().algo == 0 ? aoft::sort::detail::run_sft_tcp_node(ep, p)
                               : aoft::sort::detail::run_snr_tcp_node(ep, p);
}

}  // namespace

int main(int argc, char** argv) {
  aoft::util::flag_reject_unknown(
      argc, argv, {"--segment", "--connect", "--node", "--listen"});
  const char* segment = aoft::util::flag_value(argc, argv, "--segment");
  const char* connect = aoft::util::flag_value(argc, argv, "--connect");
  const char* node_str = aoft::util::flag_value(argc, argv, "--node");
  long long node = -1;
  if ((segment == nullptr) == (connect == nullptr) || node_str == nullptr ||
      !aoft::util::parse_i64(node_str, node) || node < 0) {
    std::fprintf(stderr,
                 "usage: %s --segment=PATH --node=P\n"
                 "       %s --connect=HOST:PORT --node=P [--listen=ADDR[:PORT]]\n",
                 argv[0], argv[0]);
    return 2;
  }
  try {
    if (connect != nullptr) {
      return run_tcp(connect, node,
                     aoft::util::flag_value(argc, argv, "--listen"), argv[0]);
    }
    auto seg = aoft::transport::ShmSegment::attach(segment);
    if (node >= static_cast<long long>(seg.num_nodes())) {
      std::fprintf(stderr, "%s: node %lld outside the %u-node cube\n", argv[0],
                   node, seg.num_nodes());
      return 2;
    }
    const auto p = static_cast<aoft::cube::NodeId>(node);
    return seg.header().algo == 0 ? aoft::sort::detail::run_sft_shm_node(seg, p)
                                  : aoft::sort::detail::run_snr_shm_node(seg, p);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
}
