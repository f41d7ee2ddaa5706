#include "util/net.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/posix_io.hpp"
#include "util/string_util.hpp"

namespace oracle::util {

std::optional<HostPort> HostPort::parse(const std::string& text,
                                        bool allow_port_zero) {
  const std::string t{trim(text)};
  if (t.empty()) return std::nullopt;
  HostPort hp;
  std::string port_str;
  const auto colon = t.rfind(':');
  if (colon == std::string::npos) {
    hp.host = "127.0.0.1";
    port_str = t;
  } else {
    hp.host = t.substr(0, colon);
    if (hp.host.empty()) hp.host = "127.0.0.1";
    port_str = t.substr(colon + 1);
  }
  std::int64_t port = 0;
  try {
    port = parse_int(port_str, "port");
  } catch (const ConfigError&) {
    return std::nullopt;
  }
  if (port < 0 || port > 65535) return std::nullopt;
  if (port == 0 && !allow_port_zero) return std::nullopt;
  hp.port = static_cast<std::uint16_t>(port);
  return hp;
}

std::string HostPort::str() const {
  return strfmt("%s:%u", host.c_str(), static_cast<unsigned>(port));
}

std::optional<std::string> FrameSplitter::next() {
  if (corrupt_) return std::nullopt;
  if (buf_.size() - off_ < 4) return std::nullopt;
  const auto* h = reinterpret_cast<const unsigned char*>(buf_.data() + off_);
  const std::uint32_t n = static_cast<std::uint32_t>(h[0]) |
                          (static_cast<std::uint32_t>(h[1]) << 8) |
                          (static_cast<std::uint32_t>(h[2]) << 16) |
                          (static_cast<std::uint32_t>(h[3]) << 24);
  if (n > max_bytes_) {
    corrupt_ = true;
    return std::nullopt;
  }
  if (buf_.size() - off_ - 4 < n) return std::nullopt;
  std::string payload = buf_.substr(off_ + 4, n);
  off_ += 4 + static_cast<std::size_t>(n);
  // Compact once the consumed prefix dominates, so a long-lived
  // connection does not accrete every frame it ever received.
  if (off_ > 4096 && off_ * 2 >= buf_.size()) {
    buf_.erase(0, off_);
    off_ = 0;
  }
  return payload;
}

std::string frame_bytes(const std::string& payload, std::size_t max_bytes) {
  if (payload.size() > max_bytes) return {};
  unsigned char hdr[4];
  const auto n = static_cast<std::uint32_t>(payload.size());
  hdr[0] = static_cast<unsigned char>(n & 0xff);
  hdr[1] = static_cast<unsigned char>((n >> 8) & 0xff);
  hdr[2] = static_cast<unsigned char>((n >> 16) & 0xff);
  hdr[3] = static_cast<unsigned char>((n >> 24) & 0xff);
  std::string buf;
  buf.reserve(4 + payload.size());
  buf.append(reinterpret_cast<const char*>(hdr), 4);
  buf.append(payload);
  return buf;
}

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

bool FrameServer::listen(const HostPort& at) {
  if (!wake_.valid()) return false;
  listener_ = listen_tcp(at);
  port_ = listener_.valid() ? local_port(listener_.fd()) : 0;
  return listener_.valid();
}

FrameServer::Conn* FrameServer::find(std::uint64_t conn) {
  for (auto& c : conns_)
    if (c.id == conn && !c.dead) return &c;
  return nullptr;
}

bool FrameServer::flushed() const {
  return std::all_of(conns_.begin(), conns_.end(), [](const Conn& c) {
    return c.dead || c.out_off >= c.out.size();
  });
}

void FrameServer::reap(std::vector<Event>& events) {
  std::erase_if(conns_, [&](const Conn& c) {
    if (c.dead) events.push_back({Event::Kind::kClosed, c.id, {}});
    return c.dead;
  });
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Remaining milliseconds until `deadline`, rounded up (a poll never
/// wakes just short of it) and clamped to [0, 60 s].
int ms_until(NetDeadline deadline) {
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(deadline - NetClock::now())
          .count();
  if (left <= 0) return 0;
  if (left > 60'000) return 60'000;
  return static_cast<int>(left);
}

/// Wait for `events` on fd until deadline. True iff the fd became ready.
bool wait_ready(int fd, short events, NetDeadline deadline) {
  struct pollfd p;
  p.fd = fd;
  p.events = events;
  p.revents = 0;
  while (true) {
    const int r = poll_retry(&p, 1, ms_until(deadline));
    if (r > 0) return true;
    if (r == 0) {
      if (NetClock::now() >= deadline) return false;
      continue;  // clamped wait expired; deadline still ahead
    }
    return false;
  }
}

std::optional<sockaddr_in> resolve_ipv4(const HostPort& hp) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(hp.port);
  if (::inet_pton(AF_INET, hp.host.c_str(), &addr.sin_addr) == 1) return addr;
  struct addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  if (::getaddrinfo(hp.host.c_str(), nullptr, &hints, &res) != 0 || !res)
    return std::nullopt;
  addr.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return addr;
}

/// Write exactly n bytes to a (possibly nonblocking) socket under a
/// deadline. Unlike write_full this must poll on EAGAIN.
bool write_all_deadline(int fd, const char* p, std::size_t n,
                        NetDeadline deadline) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::send(fd, p + done, n - done, MSG_NOSIGNAL);
    if (r > 0) {
      done += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!wait_ready(fd, POLLOUT, deadline)) return false;
      continue;
    }
    return false;
  }
  return true;
}

/// Read exactly n bytes under a deadline. False on EOF/timeout/error.
bool read_all_deadline(int fd, char* p, std::size_t n, NetDeadline deadline) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::recv(fd, p + done, n - done, 0);
    if (r > 0) {
      done += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) return false;  // EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!wait_ready(fd, POLLIN, deadline)) return false;
      continue;
    }
    return false;
  }
  return true;
}

}  // namespace

Socket listen_tcp(const HostPort& at, int backlog) {
  const auto addr = resolve_ipv4(at);
  if (!addr) return Socket();
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) return Socket();
  int one = 1;
  ::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(s.fd(), reinterpret_cast<const sockaddr*>(&*addr),
             sizeof(*addr)) != 0)
    return Socket();
  if (::listen(s.fd(), backlog) != 0) return Socket();
  set_nonblocking(s.fd());
  return s;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return 0;
  return ntohs(addr.sin_port);
}

Socket connect_tcp(const HostPort& to, NetDeadline deadline) {
  const auto addr = resolve_ipv4(to);
  if (!addr) return Socket();
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) return Socket();
  set_nonblocking(s.fd());
  const int rc = ::connect(s.fd(), reinterpret_cast<const sockaddr*>(&*addr),
                           sizeof(*addr));
  if (rc != 0) {
    if (errno != EINPROGRESS) return Socket();
    if (!wait_ready(s.fd(), POLLOUT, deadline)) return Socket();
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(s.fd(), SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0)
      return Socket();
  }
  set_nodelay(s.fd());
  return s;
}

Socket accept_tcp(int listen_fd) {
  Socket s(::accept(listen_fd, nullptr, nullptr));
  if (!s.valid()) return Socket();
  set_nonblocking(s.fd());
  set_nodelay(s.fd());
  return s;
}

WakePipe::WakePipe() {
  int fds[2];
  if (::pipe(fds) != 0) return;
  rfd_ = fds[0];
  wfd_ = fds[1];
  set_nonblocking(rfd_);
  set_nonblocking(wfd_);
}

WakePipe::~WakePipe() {
  if (rfd_ >= 0) ::close(rfd_);
  if (wfd_ >= 0) ::close(wfd_);
}

void WakePipe::notify() {
  if (wfd_ < 0) return;
  const char b = 1;
  // A full pipe already guarantees the poller will wake; dropping the
  // byte on EAGAIN is the coalescing, not a loss.
  [[maybe_unused]] const ssize_t r = ::write(wfd_, &b, 1);
}

void WakePipe::drain() {
  if (rfd_ < 0) return;
  char sink[256];
  while (::read(rfd_, sink, sizeof(sink)) > 0) {
  }
}

std::vector<FrameServer::Event> FrameServer::poll(NetDeadline until) {
  std::vector<Event> events;
  reap(events);  // connections close()d since the last pass
  for (const auto& c : conns_) {
    if (c.out_off < c.out.size())
      until = std::min(until, c.last_write + limits_.write_timeout);
    if (c.in.partial())
      until = std::min(until, c.last_read + limits_.read_timeout);
  }

  std::vector<pollfd> fds;
  fds.reserve(conns_.size() + 2);
  fds.push_back({wake_.poll_fd(), POLLIN, 0});
  fds.push_back({listener_.fd(), POLLIN, 0});  // -1 once stop_accepting()
  for (const auto& c : conns_) {
    const bool pending = c.out_off < c.out.size();
    fds.push_back({c.sock.fd(),
                   static_cast<short>(POLLIN | (pending ? POLLOUT : 0)), 0});
  }
  poll_retry(fds.data(), fds.size(), events.empty() ? ms_until(until) : 0);
  if (fds[0].revents & POLLIN) wake_.drain();

  const auto now = NetClock::now();
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    const short rev = fds[i + 2].revents;
    if (rev & (POLLERR | POLLNVAL)) {
      c.dead = true;
      continue;
    }
    if (rev & (POLLIN | POLLHUP)) read(c, now, events);
    if (!c.dead && (rev & POLLOUT)) flush(c);
  }
  if (fds[1].revents & POLLIN) accept_all(now, events);
  evict(NetClock::now());
  reap(events);
  return events;
}

bool FrameServer::send(std::uint64_t conn, const std::string& payload) {
  Conn* c = find(conn);
  if (c == nullptr) return false;
  std::string wire = frame_bytes(payload, limits_.max_frame_bytes);
  if (wire.empty()) {
    c->dead = true;
    return false;
  }
  if (c->out_off >= c->out.size()) c->last_write = NetClock::now();
  c->out += wire;
  flush(*c);
  return !c->dead;
}

void FrameServer::read(Conn& c, NetClock::time_point now,
                       std::vector<Event>& events) {
  // Up to 64 KiB per pass, so one fast sender cannot monopolise the loop.
  char chunk[16384];
  bool got = false;
  for (int i = 0; i < 4;) {
    const ssize_t r = ::recv(c.sock.fd(), chunk, sizeof(chunk), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (r <= 0) {  // EOF or a hard socket error
      c.dead = true;
      return;
    }
    c.in.feed(chunk, static_cast<std::size_t>(r));
    got = true;
    ++i;
  }
  if (!got) return;
  c.last_read = now;
  while (auto frame = c.in.next())
    events.push_back({Event::Kind::kFrame, c.id, std::move(*frame)});
  if (c.in.corrupt()) c.dead = true;
}

void FrameServer::flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t r = ::send(c.sock.fd(), c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (r <= 0) {
      c.dead = true;
      return;
    }
    c.out_off += static_cast<std::size_t>(r);
    c.last_write = NetClock::now();
  }
  if (c.out_off >= c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  } else if (c.out_off > (1u << 20)) {
    c.out.erase(0, c.out_off);
    c.out_off = 0;
  }
}

void FrameServer::accept_all(NetClock::time_point now,
                             std::vector<Event>& events) {
  while (true) {
    Socket sock = accept_tcp(listener_.fd());
    if (!sock.valid()) return;
    // Bounds what a stalled peer can sink into the kernel before the
    // write queue and its eviction deadline take over.
    if (limits_.sndbuf_bytes > 0)
      ::setsockopt(sock.fd(), SOL_SOCKET, SO_SNDBUF, &limits_.sndbuf_bytes,
                   sizeof(limits_.sndbuf_bytes));
    Conn& c = conns_.emplace_back();
    c.sock = std::move(sock);
    c.id = next_id_++;
    c.in = FrameSplitter(limits_.max_frame_bytes);
    c.last_read = now;
    events.push_back({Event::Kind::kOpened, c.id, {}});
  }
}

void FrameServer::evict(NetClock::time_point now) {
  for (auto& c : conns_) {
    const bool write_stall = c.out_off < c.out.size() &&
                             now - c.last_write >= limits_.write_timeout;
    const bool read_stall =
        c.in.partial() && now - c.last_read >= limits_.read_timeout;
    if (c.dead || !(write_stall || read_stall)) continue;
    ++evicted_;
    c.dead = true;
    ORACLE_LOG_WARN(strfmt("evicting stalled client (conn %llu): %s",
                           static_cast<unsigned long long>(c.id),
                           write_stall ? "reply bytes unaccepted"
                                       : "partial request frame"));
  }
}

bool send_frame(int fd, const std::string& payload, NetDeadline deadline,
                std::size_t max_bytes) {
  // Header and payload in one buffer: a single send() usually covers both,
  // and a peer can never observe a header-only partial frame from us.
  const std::string buf = frame_bytes(payload, max_bytes);
  return !buf.empty() &&
         write_all_deadline(fd, buf.data(), buf.size(), deadline);
}

std::optional<std::string> recv_frame(int fd, NetDeadline deadline,
                                      std::size_t max_bytes) {
  unsigned char hdr[4];
  if (!read_all_deadline(fd, reinterpret_cast<char*>(hdr), 4, deadline))
    return std::nullopt;
  const std::uint32_t n = static_cast<std::uint32_t>(hdr[0]) |
                          (static_cast<std::uint32_t>(hdr[1]) << 8) |
                          (static_cast<std::uint32_t>(hdr[2]) << 16) |
                          (static_cast<std::uint32_t>(hdr[3]) << 24);
  if (n > max_bytes) return std::nullopt;
  std::string payload(n, '\0');
  if (n > 0 && !read_all_deadline(fd, payload.data(), n, deadline))
    return std::nullopt;
  return payload;
}

}  // namespace oracle::util
