#pragma once
// TCP plumbing shared by the lease and oracle services: parse
// "host:port", length-prefixed frames, and two ways to move them.
// Servers run on FrameServer, one non-blocking poll loop per process in
// which no peer can delay another. Clients use the deadline-blocking
// helpers (connect_tcp, send_frame, recv_frame): every call honours an
// absolute deadline via poll_retry, so a wedged peer can never hang a
// worker past its retry budget. POSIX sockets only (the shard supervisor
// is already POSIX-gated); no new dependencies.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace oracle::util {

using NetClock = std::chrono::steady_clock;
using NetDeadline = NetClock::time_point;

/// "host:port" (or ":port" / bare "port" meaning 127.0.0.1). Port must be
/// in [1, 65535] for connect; 0 is allowed for listen (ephemeral).
struct HostPort {
  std::string host;
  std::uint16_t port = 0;

  static std::optional<HostPort> parse(const std::string& text,
                                       bool allow_port_zero = false);
  std::string str() const;
};

/// Owning socket fd; closes on destruction. Moveable, not copyable.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

 private:
  int fd_ = -1;
};

/// Bind + listen on host:port (SO_REUSEADDR). Port 0 picks an ephemeral
/// port; read it back with local_port(). Invalid Socket on failure
/// (errno preserved).
Socket listen_tcp(const HostPort& at, int backlog = 64);

/// The locally-bound port of a listening/connected socket (0 on error).
std::uint16_t local_port(int fd);

/// Connect with a deadline (nonblocking connect + poll). Invalid Socket
/// on failure or timeout. Resolves numeric IPv4 or names via getaddrinfo.
Socket connect_tcp(const HostPort& to, NetDeadline deadline);

/// Accept one pending connection (socket must be ready). Invalid on error.
Socket accept_tcp(int listen_fd);

inline constexpr std::size_t kMaxFrameBytes = 1 << 16;

/// Write one [u32-le length][payload] frame before `deadline`. The socket
/// may be nonblocking; partial writes are continued under poll. False on
/// error/timeout. `max_bytes` caps the payload a protocol is willing to
/// put on the wire (both peers must agree).
bool send_frame(int fd, const std::string& payload, NetDeadline deadline,
                std::size_t max_bytes = kMaxFrameBytes);

/// Read one frame before `deadline`. nullopt on EOF, timeout, error, or
/// an oversized/corrupt length prefix (connection should be dropped).
std::optional<std::string> recv_frame(int fd, NetDeadline deadline,
                                      std::size_t max_bytes = kMaxFrameBytes);

/// The exact wire bytes of one frame — [u32-le length][payload] in a
/// single contiguous buffer (what send_frame puts on the wire and what
/// FrameServer queues). Empty string when the payload exceeds
/// `max_bytes` (nothing to queue; the caller must not send a partial).
std::string frame_bytes(const std::string& payload,
                        std::size_t max_bytes = kMaxFrameBytes);

/// Incremental decoder for length-prefixed frames arriving in arbitrary
/// chunks on a non-blocking connection: feed() raw bytes as they arrive,
/// next() pops complete payloads in order. corrupt() latches when a
/// length prefix exceeds max_bytes — the stream is garbage from there on
/// and the connection should be dropped.
class FrameSplitter {
 public:
  explicit FrameSplitter(std::size_t max_bytes = kMaxFrameBytes)
      : max_bytes_(max_bytes) {}

  void feed(const char* data, std::size_t len) { buf_.append(data, len); }
  void feed(const std::string& data) { feed(data.data(), data.size()); }

  /// Pop the next complete frame payload; nullopt when no complete frame
  /// is buffered (or the stream is corrupt).
  std::optional<std::string> next();

  bool corrupt() const { return corrupt_; }
  /// True when a partial frame (header or payload) is sitting in the
  /// buffer — the peer owes us bytes (drives the read-stall deadline).
  bool partial() const { return off_ < buf_.size(); }

 private:
  std::size_t max_bytes_;
  std::string buf_;
  std::size_t off_ = 0;  ///< consumed prefix of buf_
  bool corrupt_ = false;
};

/// Self-pipe that wakes a poll loop from another thread: poll the read
/// end for POLLIN, notify() from anywhere (async-signal-safe, coalescing,
/// never blocks), drain() before re-polling. Invalid (fds < 0) when
/// pipe() fails.
class WakePipe {
 public:
  WakePipe();
  ~WakePipe();
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  bool valid() const { return rfd_ >= 0; }
  int poll_fd() const { return rfd_; }
  void notify();
  void drain();

 private:
  int rfd_ = -1;
  int wfd_ = -1;
};

/// The connection core of every server here: one listener and many
/// non-blocking connections, driven by the owner's thread one poll() pass
/// at a time. Per connection, inbound bytes reassemble in a FrameSplitter
/// and replies queue in a write buffer flushed on POLLOUT. A peer that
/// leaves a frame half-sent for `read_timeout` after its last inbound
/// byte, or accepts none of its queued reply bytes for `write_timeout`,
/// is evicted: only that connection drops, never the loop or its other
/// peers. The owner keeps its policy (what a frame means, when to stop)
/// and hands poll() its own nearest deadline.
class FrameServer {
 public:
  struct Limits {
    std::size_t max_frame_bytes = kMaxFrameBytes;  ///< both directions
    std::chrono::milliseconds read_timeout{10'000};
    std::chrono::milliseconds write_timeout{10'000};
    int sndbuf_bytes = 0;  ///< SO_SNDBUF of accepted sockets; 0 = OS default
  };

  /// What one poll() pass saw, in order. Each connection is reported
  /// kOpened once, kFrame per complete inbound frame, then kClosed once:
  /// after EOF, a socket error, a corrupt stream, an eviction or close().
  struct Event {
    enum class Kind { kOpened, kFrame, kClosed };
    Kind kind = Kind::kFrame;
    std::uint64_t conn = 0;
    std::string payload;  ///< kFrame only
  };

  explicit FrameServer(Limits limits) : limits_(limits) {}
  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Bind + listen (see listen_tcp). False on failure.
  bool listen(const HostPort& at);
  /// The bound port; 0 before listen(), unchanged by stop_accepting().
  std::uint16_t port() const { return port_; }
  /// Close the listener; open connections keep being served.
  void stop_accepting() { listener_.close(); }
  /// Close the listener and every connection, dropping queued bytes and
  /// reporting no kClosed events (the owner is done serving).
  void shutdown() {
    listener_.close();
    conns_.clear();
  }

  /// One pass: wait until a socket is ready, wake() is called, or `until`
  /// passes (sooner when an eviction falls due), then accept, read, flush
  /// and evict.
  std::vector<Event> poll(NetDeadline until);

  /// Queue one frame on `conn` and write what the socket takes now. False
  /// when `conn` is not open; a payload over max_frame_bytes closes the
  /// connection instead, since a frame is never sent in part.
  bool send(std::uint64_t conn, const std::string& payload);
  /// Drop `conn`; the next poll() reports it closed.
  void close(std::uint64_t conn) {
    if (Conn* c = find(conn)) c->dead = true;
  }
  bool open(std::uint64_t conn) { return find(conn) != nullptr; }

  bool flushed() const;  ///< no open connection has reply bytes queued
  std::size_t evicted() const { return evicted_; }  ///< stalled peers dropped

  /// Cut the current or next poll() wait short. Async-signal-safe, for
  /// signal handlers and worker threads.
  void wake() { wake_.notify(); }

 private:
  struct Conn {
    Socket sock;
    std::uint64_t id = 0;
    FrameSplitter in;
    std::string out;          ///< queued reply bytes (whole frames)
    std::size_t out_off = 0;  ///< already-written prefix of `out`
    NetClock::time_point last_read{};   ///< last inbound byte
    NetClock::time_point last_write{};  ///< last write progress (out pending)
    bool dead = false;
  };

  Conn* find(std::uint64_t conn);
  void read(Conn& c, NetClock::time_point now, std::vector<Event>& events);
  void flush(Conn& c);
  void accept_all(NetClock::time_point now, std::vector<Event>& events);
  void evict(NetClock::time_point now);
  void reap(std::vector<Event>& events);

  Limits limits_;
  Socket listener_;
  std::uint16_t port_ = 0;
  WakePipe wake_;
  std::vector<Conn> conns_;
  std::uint64_t next_id_ = 1;
  std::size_t evicted_ = 0;
};

}  // namespace oracle::util
