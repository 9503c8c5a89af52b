#include "svc/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>

#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace bfvr::svc {

namespace {

// Wire instruments, resolved once so every frame pays only relaxed atomic
// updates. Encode/decode time covers serialization + CRC + the socket I/O
// itself — the client-visible cost of a frame.
struct WireMetrics {
  obs::Counter& frames_sent;
  obs::Counter& frames_received;
  obs::Counter& bytes_sent;
  obs::Counter& bytes_received;
  obs::Counter& errors;
  obs::Histogram& encode_seconds;
  obs::Histogram& decode_seconds;

  static WireMetrics& get() {
    static WireMetrics m{
        obs::Registry::global().counter("bfvr_wire_frames_sent_total"),
        obs::Registry::global().counter("bfvr_wire_frames_received_total"),
        obs::Registry::global().counter("bfvr_wire_bytes_sent_total"),
        obs::Registry::global().counter("bfvr_wire_bytes_received_total"),
        obs::Registry::global().counter("bfvr_wire_errors_total"),
        obs::Registry::global().histogram("bfvr_wire_frame_encode_seconds",
                                          "", obs::kSecondsScale),
        obs::Registry::global().histogram("bfvr_wire_frame_decode_seconds",
                                          "", obs::kSecondsScale),
    };
    return m;
  }
};

std::string errnoText(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Write all of `n` bytes, retrying EINTR and short writes. Every library
/// send passes MSG_NOSIGNAL, so a vanished peer surfaces as EPIPE here
/// instead of a process-wide SIGPIPE — see ignoreSigpipe() for the
/// binary-level belt-and-braces.
void writeAll(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::send(fd, p, n, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Only reachable with SO_SNDTIMEO set (setSendTimeout): the peer
        // stopped draining its socket for the configured window.
        throw Error("wire: send timed out");
      }
      throw Error(errnoText("wire: send failed"));
    }
    p += static_cast<std::size_t>(k);
    n -= static_cast<std::size_t>(k);
  }
}

double monoSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Block until `fd` is readable or the absolute monotonic `deadline`
/// passes. Returns false on deadline expiry.
bool waitReadable(int fd, double deadline) {
  for (;;) {
    const double left = deadline - monoSeconds();
    if (left <= 0.0) return false;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    // +1 rounds up so a sub-millisecond remainder still sleeps instead of
    // spinning.
    const int rc =
        ::poll(&pfd, 1, static_cast<int>(std::min(left * 1000.0 + 1.0, 3.6e6)));
    if (rc > 0) return true;  // readable, EOF, or error: recv resolves it
    if (rc < 0 && errno != EINTR) throw Error(errnoText("wire: poll failed"));
    // Timed out or interrupted: re-check the clock at the top of the loop.
  }
}

/// Read exactly `n` bytes. Before each recv, waits for input until the
/// absolute monotonic `deadline`; 0 means no deadline and no poll(2) call.
/// Returns false on EOF before the first byte of a frame (`frame_start`):
/// an orderly close. Throws Timeout past the deadline, idle when no byte of
/// the frame has arrived yet, and Error on EOF mid-frame or a failed recv.
bool readAll(int fd, std::uint8_t* p, std::size_t n, double deadline,
             bool frame_start) {
  std::size_t got = 0;
  while (got < n) {
    if (deadline > 0.0 && !waitReadable(fd, deadline)) {
      const bool idle = frame_start && got == 0;
      throw Timeout(idle ? "wire: session idle past deadline"
                         : "wire: frame stalled past deadline",
                    idle);
    }
    const ssize_t k = ::recv(fd, p + got, n - got, 0);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw Error(errnoText("wire: recv failed"));
    }
    if (k == 0) {
      if (got == 0 && frame_start) return false;
      throw Error("wire: connection closed mid-frame");
    }
    got += static_cast<std::size_t>(k);
  }
  return true;
}

/// The absolute monotonic deadline `seconds` from now; 0 stays 0 (none).
double deadlineIn(double seconds) {
  return seconds > 0.0 ? monoSeconds() + seconds : 0.0;
}

}  // namespace

void ignoreSigpipe() { std::signal(SIGPIPE, SIG_IGN); }

void setSendTimeout(const Fd& fd, double seconds) {
  timeval tv{};
  if (seconds > 0.0) {
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>((seconds - double(tv.tv_sec)) * 1e6);
  }
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    throw Error(errnoText("wire: setsockopt(SO_SNDTIMEO)"));
  }
}

bool writableNow(const Fd& fd) {
  pollfd p{fd.get(), POLLOUT, 0};
  int rc = 0;
  do {
    rc = ::poll(&p, 1, 0);
  } while (rc < 0 && errno == EINTR);
  return rc == 1 && (p.revents & POLLOUT) != 0;
}

void Fd::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Endpoint Endpoint::parse(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.is_unix = true;
    ep.path = spec.substr(5);
    if (ep.path.empty()) throw Error("endpoint: empty unix socket path");
    return ep;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    ep.is_unix = false;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      throw Error("endpoint: expected tcp:host:port, got '" + spec + "'");
    }
    ep.host = rest.substr(0, colon);
    const std::string port_s = rest.substr(colon + 1);
    char* end = nullptr;
    const unsigned long port = std::strtoul(port_s.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port == 0 || port > 65535) {
      throw Error("endpoint: bad port '" + port_s + "'");
    }
    ep.port = static_cast<std::uint16_t>(port);
    return ep;
  }
  throw Error("endpoint: expected unix:PATH or tcp:HOST:PORT, got '" + spec +
              "'");
}

std::string Endpoint::describe() const {
  return is_unix ? "unix:" + path : "tcp:" + host + ":" + std::to_string(port);
}

Fd listenOn(const Endpoint& ep, int backlog) {
  if (ep.is_unix) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (ep.path.size() >= sizeof(addr.sun_path)) {
      throw Error("endpoint: unix socket path too long: " + ep.path);
    }
    std::memcpy(addr.sun_path, ep.path.c_str(), ep.path.size() + 1);
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) throw Error(errnoText("socket(AF_UNIX)"));
    ::unlink(ep.path.c_str());  // stale socket from a previous run
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw Error(errnoText("bind " + ep.describe()));
    }
    if (::listen(fd.get(), backlog) != 0) {
      throw Error(errnoText("listen " + ep.describe()));
    }
    return fd;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const std::string port_s = std::to_string(ep.port);
  if (::getaddrinfo(ep.host.empty() ? nullptr : ep.host.c_str(),
                    port_s.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    throw Error("endpoint: cannot resolve " + ep.describe());
  }
  Fd fd(::socket(res->ai_family, res->ai_socktype, res->ai_protocol));
  if (!fd.valid()) {
    ::freeaddrinfo(res);
    throw Error(errnoText("socket(tcp)"));
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const int ok = ::bind(fd.get(), res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (ok != 0) throw Error(errnoText("bind " + ep.describe()));
  if (::listen(fd.get(), backlog) != 0) {
    throw Error(errnoText("listen " + ep.describe()));
  }
  return fd;
}

Fd acceptOn(const Fd& listener) {
  for (;;) {
    const int fd = ::accept(listener.get(), nullptr, nullptr);
    if (fd >= 0) return Fd(fd);
    if (errno == EINTR) continue;
    // EBADF / EINVAL: the listener was closed or shut down under us — the
    // server's orderly exit path, not an error.
    return Fd();
  }
}

Fd connectTo(const Endpoint& ep) {
  if (ep.is_unix) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (ep.path.size() >= sizeof(addr.sun_path)) {
      throw Error("endpoint: unix socket path too long: " + ep.path);
    }
    std::memcpy(addr.sun_path, ep.path.c_str(), ep.path.size() + 1);
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) throw Error(errnoText("socket(AF_UNIX)"));
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      throw Error(errnoText("connect " + ep.describe()));
    }
    return fd;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_s = std::to_string(ep.port);
  if (::getaddrinfo(ep.host.c_str(), port_s.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    throw Error("endpoint: cannot resolve " + ep.describe());
  }
  Error last("connect " + ep.describe() + ": no addresses");
  for (const addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    Fd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!fd.valid()) continue;
    if (::connect(fd.get(), ai->ai_addr, ai->ai_addrlen) == 0) {
      const int one = 1;
      ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::freeaddrinfo(res);
      return fd;
    }
    last = Error(errnoText("connect " + ep.describe()));
  }
  ::freeaddrinfo(res);
  throw last;
}

void sendFrame(const Fd& fd, const Frame& f) {
  WireMetrics& wm = WireMetrics::get();
  const Timer t;
  const std::vector<std::uint8_t> bytes = encodeFrame(f);
  try {
    writeAll(fd.get(), bytes.data(), bytes.size());
  } catch (...) {
    wm.errors.inc();
    throw;
  }
  wm.encode_seconds.observeSeconds(t.seconds());
  wm.frames_sent.inc();
  wm.bytes_sent.inc(bytes.size());
}

std::optional<Frame> recvFrame(const Fd& fd, const RecvDeadlines& deadlines) {
  WireMetrics& wm = WireMetrics::get();
  std::uint8_t header[kFrameHeaderBytes];
  try {
    // The idle clock covers only the wait for byte 0; the moment a frame
    // starts, the (usually much shorter) frame clock takes over so a
    // peer trickling one byte per idle-window cannot hold the session.
    if (!readAll(fd.get(), header, 1, deadlineIn(deadlines.idle_seconds),
                 true)) {
      return std::nullopt;
    }
    const double frame_deadline = deadlineIn(deadlines.frame_seconds);
    readAll(fd.get(), header + 1, sizeof(header) - 1, frame_deadline, false);
    // The decode clock starts once the header has arrived: the wait for a
    // frame is not a decoding cost.
    const Timer t;
    Frame f;
    std::uint32_t crc = 0;
    const std::uint32_t len = decodeFrameHeader(header, &f.type, &crc);
    f.payload.resize(len);
    readAll(fd.get(), f.payload.data(), len, frame_deadline, false);
    checkPayloadCrc(f.payload.data(), f.payload.size(), crc);
    wm.decode_seconds.observeSeconds(t.seconds());
    wm.frames_received.inc();
    wm.bytes_received.inc(kFrameHeaderBytes + f.payload.size());
    return f;
  } catch (...) {
    wm.errors.inc();
    throw;
  }
}

}  // namespace bfvr::svc
