// TCP loopback transport.
//
// Proves the protocol stack runs over a real network edge: every
// registered site gets a listening socket on 127.0.0.1 (kernel-assigned
// port, recorded in an in-process registry) and one epoll-driven I/O
// thread. Outbound connections are created lazily per (from, to) pair and
// cached. Frames are length-prefixed:
//
//     [u32 little-endian payload length][payload]
//     payload = varint(from) varint(to) bytes
//
// Partial reads/writes are handled; a peer that disappears mid-frame
// costs the in-flight packets and nothing else, which is exactly the loss
// model the commit protocol already tolerates.
//
// Send queues the packet on the sender's endpoint and wakes its I/O
// thread through an eventfd, except when the caller is that I/O thread
// itself (a handler replying): the loop flushes queued sends before it
// blocks, so the wake would only cost a syscall and an extra epoll round.
// Received bytes are consumed by offset and compacted once per read, so
// a burst of small frames costs linear, not quadratic, copying.
#ifndef SRC_NET_TCP_TRANSPORT_H_
#define SRC_NET_TCP_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "src/net/transport.h"

namespace polyvalue {

class TcpTransport : public Transport {
 public:
  TcpTransport();
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  Status Register(SiteId site, Handler handler) override;
  Status Unregister(SiteId site) override;
  Status Send(Packet packet) override;

  // The loopback port a site listens on (0 if unknown). Exposed for tests.
  uint16_t PortOf(SiteId site) const;

  uint64_t packets_sent() const;
  uint64_t packets_delivered() const;

 private:
  struct Endpoint;

  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace polyvalue

#endif  // SRC_NET_TCP_TRANSPORT_H_
