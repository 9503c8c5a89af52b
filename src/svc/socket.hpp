// Thin POSIX socket layer for the service: RAII fds, Unix-domain and TCP
// endpoints behind one "unix:PATH" / "tcp:HOST:PORT" spec grammar, and
// blocking whole-frame send/recv with EINTR retry. Everything network is
// quarantined here; server.cpp and client.cpp only see Frames.
#pragma once

#include <optional>
#include <string>

#include "svc/wire.hpp"

namespace bfvr::svc {

/// A read deadline expired (svc::Error subclass, so generic error paths
/// keep working). `idle` distinguishes "peer sent nothing at all" (the
/// reaper's case) from "peer stalled mid-frame" (a slow-loris or a torn
/// send — protocol-error territory).
struct Timeout : Error {
  bool idle = false;
  Timeout(const std::string& what, bool idle_) : Error(what), idle(idle_) {}
};

/// Per-recv deadlines, both in seconds, 0 = no limit. `idle_seconds` caps
/// the wait for the *first* byte of the next frame; once a frame has
/// started, `frame_seconds` caps the time until its last byte arrives.
struct RecvDeadlines {
  double idle_seconds = 0.0;
  double frame_seconds = 0.0;
};

/// Owning file descriptor. Move-only; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { close(); }
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      close();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Parsed endpoint spec: "unix:/path/to.sock" or "tcp:host:port".
struct Endpoint {
  bool is_unix = true;
  std::string path;  ///< socket path (unix)
  std::string host;  ///< host (tcp)
  std::uint16_t port = 0;

  /// Throws svc::Error on an unrecognized spec.
  static Endpoint parse(const std::string& spec);
  std::string describe() const;
};

/// Bind + listen on the endpoint (unlinking a stale unix socket path
/// first). Throws svc::Error on failure.
Fd listenOn(const Endpoint& ep, int backlog = 64);

/// Accept one connection; returns an invalid Fd when the listener was
/// closed/shut down (the server's exit signal) instead of throwing.
Fd acceptOn(const Fd& listener);

/// Connect to the endpoint. Throws svc::Error on failure.
Fd connectTo(const Endpoint& ep);

/// Write one whole frame (header + payload), retrying short writes and
/// EINTR. Throws svc::Error if the peer is gone.
void sendFrame(const Fd& fd, const Frame& f);

/// Read one whole frame. Returns nullopt on a clean EOF at a frame
/// boundary (orderly close); throws svc::Error on EOF mid-frame, bad
/// magic/version/length, or CRC mismatch. With deadlines it also throws
/// svc::Timeout when the peer stays silent past `idle_seconds` or stalls a
/// started frame past `frame_seconds` (poll-based, so a partial frame
/// cannot pin the reader forever the way a blocking recv can); without
/// them it blocks in recv and makes no poll(2) call.
std::optional<Frame> recvFrame(const Fd& fd,
                               const RecvDeadlines& deadlines = {});

/// Whether `fd` polls writable right now (POLLOUT, 0-ms timeout). A peer
/// that stopped reading turns this false once a share of the socket buffer
/// is queued, well before a blocking write of a small frame would wait.
bool writableNow(const Fd& fd);

/// Cap how long a send may block on a full socket buffer (SO_SNDTIMEO);
/// past it, sendFrame throws svc::Error. 0 restores blocking sends.
void setSendTimeout(const Fd& fd, double seconds);

/// Ignore SIGPIPE process-wide. Library sends already use MSG_NOSIGNAL on
/// every write, so this is **not** called implicitly anywhere in the
/// library (a library must not clobber its host's signal handlers);
/// binaries that own their process (bfv_serve, bfv_client) call it once at
/// startup to cover any straggler descriptor.
void ignoreSigpipe();

}  // namespace bfvr::svc
