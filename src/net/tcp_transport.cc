#include "src/net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <vector>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/thread_annotations.h"
#include "src/common/strings.h"
#include "src/net/wire.h"

namespace polyvalue {

namespace {

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  POLYV_CHECK_GE(flags, 0);
  POLYV_CHECK_GE(fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0);
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Serialises a packet into one frame.
std::string BuildFrame(const Packet& packet) {
  ByteWriter body;
  body.PutVarint(packet.from.value());
  body.PutVarint(packet.to.value());
  body.PutRaw(packet.payload.data(), packet.payload.size());
  ByteWriter frame;
  frame.PutFixed32(static_cast<uint32_t>(body.size()));
  frame.PutRaw(body.buffer().data(), body.size());
  return frame.Take();
}

}  // namespace

// Per-connection state: frame reassembly buffer and pending output.
struct Connection {
  int fd = -1;
  std::string inbox;   // raw bytes awaiting frame completion
  std::deque<std::string> outbox;
  size_t out_offset = 0;  // bytes of outbox.front() already written
  bool want_write = false;
};

// One registered site: listener, epoll loop thread, outbound connections.
struct TcpTransport::Endpoint {
  SiteId site;
  Transport::Handler handler;
  uint16_t port = 0;
  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;  // eventfd to interrupt epoll_wait
  std::thread io_thread;

  Mutex mu POLYV_MUTEX_RANK(kTransportEndpoint);
  bool stopping GUARDED_BY(mu) = false;
  // fd -> connection (inbound accepted + outbound established). The map
  // itself is guarded; Connection internals are touched only by the io
  // thread (via pointers obtained under mu).
  std::unordered_map<int, Connection> connections GUARDED_BY(mu);
  // destination site -> fd of the cached outbound connection.
  std::unordered_map<SiteId, int> outbound GUARDED_BY(mu);
  // packets queued by Send before the io thread picks them up.
  std::deque<Packet> pending_sends GUARDED_BY(mu);
};

class TcpTransport::Impl {
 public:
  ~Impl() {
    std::vector<std::unique_ptr<Endpoint>> eps;
    {
      MutexLock lock(&mu_);
      for (auto& [site, ep] : endpoints_) {
        eps.push_back(std::move(ep));
      }
      endpoints_.clear();
    }
    for (auto& ep : eps) {
      StopEndpoint(ep.get());
    }
  }

  Status Register(SiteId site, Transport::Handler handler) {
    auto ep = std::make_unique<Endpoint>();
    ep->site = site;
    ep->handler = std::move(handler);

    ep->listen_fd = socket(AF_INET, SOCK_STREAM, 0);
    if (ep->listen_fd < 0) {
      return UnavailableError("socket() failed");
    }
    int one = 1;
    setsockopt(ep->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (bind(ep->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
        listen(ep->listen_fd, 64) < 0) {
      close(ep->listen_fd);
      return UnavailableError("bind/listen failed");
    }
    socklen_t len = sizeof(addr);
    getsockname(ep->listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    ep->port = ntohs(addr.sin_port);
    SetNonBlocking(ep->listen_fd);

    ep->epoll_fd = epoll_create1(0);
    ep->wake_fd = eventfd(0, EFD_NONBLOCK);
    POLYV_CHECK_GE(ep->epoll_fd, 0);
    POLYV_CHECK_GE(ep->wake_fd, 0);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = ep->listen_fd;
    epoll_ctl(ep->epoll_fd, EPOLL_CTL_ADD, ep->listen_fd, &ev);
    ev.data.fd = ep->wake_fd;
    epoll_ctl(ep->epoll_fd, EPOLL_CTL_ADD, ep->wake_fd, &ev);

    Endpoint* raw = ep.get();
    {
      MutexLock lock(&mu_);
      if (endpoints_.count(site)) {
        close(raw->listen_fd);
        close(raw->epoll_fd);
        close(raw->wake_fd);
        return AlreadyExistsError(StrCat("site ", site, " registered"));
      }
      ports_[site] = ep->port;
      endpoints_.emplace(site, std::move(ep));
    }
    raw->io_thread = std::thread([this, raw] { IoLoop(raw); });
    return OkStatus();
  }

  Status Unregister(SiteId site) {
    std::unique_ptr<Endpoint> ep;
    {
      MutexLock lock(&mu_);
      auto it = endpoints_.find(site);
      if (it == endpoints_.end()) {
        return NotFoundError(StrCat("site ", site, " not registered"));
      }
      ep = std::move(it->second);
      endpoints_.erase(it);
      ports_.erase(site);
    }
    StopEndpoint(ep.get());
    return OkStatus();
  }

  Status Send(Packet packet) {
    Endpoint* from = nullptr;
    {
      MutexLock lock(&mu_);
      auto it = endpoints_.find(packet.from);
      if (it == endpoints_.end()) {
        return InvalidArgumentError(
            StrCat("sender ", packet.from, " not registered"));
      }
      from = it->second.get();
      ++packets_sent_;
    }
    {
      MutexLock lock(&from->mu);
      from->pending_sends.push_back(std::move(packet));
    }
    // A handler replying from the sender's own io thread needs no wake:
    // IoLoop flushes pending_sends before it blocks again.
    if (from != io_endpoint_) {
      Wake(from);
    }
    return OkStatus();
  }

  uint16_t PortOf(SiteId site) const {
    MutexLock lock(&mu_);
    auto it = ports_.find(site);
    return it == ports_.end() ? 0 : it->second;
  }

  uint64_t packets_sent() const {
    MutexLock lock(&mu_);
    return packets_sent_;
  }
  uint64_t packets_delivered() const {
    return packets_delivered_.load();
  }

 private:
  static void Wake(Endpoint* ep) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(ep->wake_fd, &one, sizeof(one));
  }

  void StopEndpoint(Endpoint* ep) {
    {
      MutexLock lock(&ep->mu);
      ep->stopping = true;
    }
    Wake(ep);
    if (ep->io_thread.joinable()) {
      ep->io_thread.join();
    }
    MutexLock lock(&ep->mu);
    for (auto& [fd, conn] : ep->connections) {
      close(fd);
    }
    close(ep->listen_fd);
    close(ep->epoll_fd);
    close(ep->wake_fd);
  }

  // Establishes (or reuses) an outbound connection from `ep` to `dest`.
  // Returns -1 when the destination is unknown or connect fails.
  int OutboundFd(Endpoint* ep, SiteId dest) {
    {
      MutexLock lock(&ep->mu);
      auto it = ep->outbound.find(dest);
      if (it != ep->outbound.end()) {
        return it->second;
      }
    }
    uint16_t port = PortOf(dest);
    if (port == 0) {
      return -1;
    }
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    // Blocking connect on loopback: completes immediately or fails.
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      close(fd);
      return -1;
    }
    SetNonBlocking(fd);
    SetNoDelay(fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    epoll_ctl(ep->epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    {
      MutexLock lock(&ep->mu);
      Connection conn;
      conn.fd = fd;
      ep->connections[fd] = std::move(conn);
      ep->outbound[dest] = fd;
    }
    return fd;
  }

  void CloseConnection(Endpoint* ep, int fd) {
    epoll_ctl(ep->epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    close(fd);
    MutexLock lock(&ep->mu);
    ep->connections.erase(fd);
    for (auto it = ep->outbound.begin(); it != ep->outbound.end();) {
      if (it->second == fd) {
        it = ep->outbound.erase(it);
      } else {
        ++it;
      }
    }
  }

  void UpdateWriteInterest(Endpoint* ep, Connection* conn) {
    const bool want = !conn->outbox.empty();
    if (want == conn->want_write) {
      return;
    }
    conn->want_write = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.fd = conn->fd;
    epoll_ctl(ep->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  }

  void FlushPendingSends(Endpoint* ep) {
    std::deque<Packet> pending;
    {
      MutexLock lock(&ep->mu);
      pending.swap(ep->pending_sends);
    }
    for (Packet& packet : pending) {
      const int fd = OutboundFd(ep, packet.to);
      if (fd < 0) {
        continue;  // destination unreachable: packet lost (tolerated)
      }
      Connection* conn;
      {
        MutexLock lock(&ep->mu);
        auto it = ep->connections.find(fd);
        if (it == ep->connections.end()) {
          continue;
        }
        conn = &it->second;
        conn->outbox.push_back(BuildFrame(packet));
      }
      TryWrite(ep, conn);
    }
  }

  void TryWrite(Endpoint* ep, Connection* conn) {
    for (;;) {
      std::string* front = nullptr;
      {
        MutexLock lock(&ep->mu);
        if (conn->outbox.empty()) {
          break;
        }
        front = &conn->outbox.front();
      }
      const ssize_t n =
          write(conn->fd, front->data() + conn->out_offset,
                front->size() - conn->out_offset);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          break;
        }
        CloseConnection(ep, conn->fd);
        return;
      }
      conn->out_offset += static_cast<size_t>(n);
      if (conn->out_offset == front->size()) {
        MutexLock lock(&ep->mu);
        conn->outbox.pop_front();
        conn->out_offset = 0;
      }
    }
    UpdateWriteInterest(ep, conn);
  }

  void HandleReadable(Endpoint* ep, int fd) {
    Connection* conn;
    {
      MutexLock lock(&ep->mu);
      auto it = ep->connections.find(fd);
      if (it == ep->connections.end()) {
        return;
      }
      conn = &it->second;
    }
    char buf[16 * 1024];
    for (;;) {
      const ssize_t n = read(fd, buf, sizeof(buf));
      if (n > 0) {
        conn->inbox.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      // EOF or error: deliver what is complete, then drop the connection.
      if (DrainFrames(ep, conn)) {
        CloseConnection(ep, fd);
      }
      return;
    }
    DrainFrames(ep, conn);
  }

  // Delivers every complete frame in conn->inbox, then drops the
  // consumed bytes in one move. Returns false when a corrupt frame closed
  // (and freed) the connection.
  bool DrainFrames(Endpoint* ep, Connection* conn) {
    size_t offset = 0;
    for (;;) {
      const size_t available = conn->inbox.size() - offset;
      if (available < 4) {
        break;
      }
      const char* frame = conn->inbox.data() + offset;
      ByteReader header(frame, 4);
      const uint32_t body_len = header.GetFixed32().value();
      if (body_len > 64u * 1024 * 1024) {
        // Corrupt length: poison the connection.
        CloseConnection(ep, conn->fd);
        return false;
      }
      if (available < 4u + body_len) {
        break;
      }
      ByteReader body(frame + 4, body_len);
      auto from = body.GetVarint();
      auto to = body.GetVarint();
      if (from.ok() && to.ok()) {
        Packet packet;
        packet.from = SiteId(from.value());
        packet.to = SiteId(to.value());
        packet.payload.assign(frame + 4 + (body_len - body.remaining()),
                              body.remaining());
        ++packets_delivered_;
        ep->handler(std::move(packet));
      }
      offset += 4u + body_len;
    }
    conn->inbox.erase(0, offset);
    return true;
  }

  void HandleAccept(Endpoint* ep) {
    for (;;) {
      const int fd = accept(ep->listen_fd, nullptr, nullptr);
      if (fd < 0) {
        return;
      }
      SetNonBlocking(fd);
      SetNoDelay(fd);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      epoll_ctl(ep->epoll_fd, EPOLL_CTL_ADD, fd, &ev);
      MutexLock lock(&ep->mu);
      Connection conn;
      conn.fd = fd;
      ep->connections[fd] = std::move(conn);
    }
  }

  void IoLoop(Endpoint* ep) {
    io_endpoint_ = ep;
    epoll_event events[64];
    for (;;) {
      {
        MutexLock lock(&ep->mu);
        if (ep->stopping) {
          return;
        }
      }
      FlushPendingSends(ep);
      const int n = epoll_wait(ep->epoll_fd, events, 64, 50);
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == ep->wake_fd) {
          uint64_t drain;
          [[maybe_unused]] ssize_t r =
              read(ep->wake_fd, &drain, sizeof(drain));
          continue;
        }
        if (fd == ep->listen_fd) {
          HandleAccept(ep);
          continue;
        }
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          HandleReadable(ep, fd);  // drain then close
          continue;
        }
        if (events[i].events & EPOLLIN) {
          HandleReadable(ep, fd);
        }
        if (events[i].events & EPOLLOUT) {
          std::unordered_map<int, Connection>::iterator it;
          {
            MutexLock lock(&ep->mu);
            it = ep->connections.find(fd);
            if (it == ep->connections.end()) {
              continue;
            }
          }
          TryWrite(ep, &it->second);
        }
      }
    }
  }

  mutable Mutex mu_ POLYV_MUTEX_RANK(kTransport);
  std::unordered_map<SiteId, std::unique_ptr<Endpoint>> endpoints_
      GUARDED_BY(mu_);
  std::unordered_map<SiteId, uint16_t> ports_ GUARDED_BY(mu_);
  uint64_t packets_sent_ GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> packets_delivered_{0};
  // The endpoint whose IoLoop runs on this thread (null elsewhere).
  static thread_local Endpoint* io_endpoint_;
};

thread_local TcpTransport::Endpoint* TcpTransport::Impl::io_endpoint_ =
    nullptr;

TcpTransport::TcpTransport() : impl_(std::make_unique<Impl>()) {}
TcpTransport::~TcpTransport() = default;

Status TcpTransport::Register(SiteId site, Handler handler) {
  return impl_->Register(site, std::move(handler));
}
Status TcpTransport::Unregister(SiteId site) {
  return impl_->Unregister(site);
}
Status TcpTransport::Send(Packet packet) {
  return impl_->Send(std::move(packet));
}
uint16_t TcpTransport::PortOf(SiteId site) const {
  return impl_->PortOf(site);
}
uint64_t TcpTransport::packets_sent() const { return impl_->packets_sent(); }
uint64_t TcpTransport::packets_delivered() const {
  return impl_->packets_delivered();
}
}  // namespace polyvalue
