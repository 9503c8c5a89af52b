#include "svc/client.hpp"

#include <type_traits>

namespace bfvr::svc {

namespace {

/// `f` decoded as the Event alternative whose kType it carries; a frame
/// type no alternative carries is an error.
template <class... M>
Event decodeEvent(const Frame& f, std::type_identity<std::variant<M...>>) {
  std::optional<Event> ev;
  if (!((f.type == M::kType && (ev.emplace(decode<M>(f)), true)) || ...)) {
    throw Error(std::string("client: unexpected ") + to_string(f.type) +
                " frame from server");
  }
  return *std::move(ev);
}

}  // namespace

Client::Client(const std::string& endpoint_spec, const std::string& tenant)
    : fd_(connectTo(Endpoint::parse(endpoint_spec))) {
  sendFrame(fd_, encode(Hello{tenant}));
  std::optional<Frame> reply = recvFrame(fd_);
  if (!reply.has_value()) {
    throw Error("client: server closed the connection during handshake");
  }
  if (reply->type == WireError::kType) {
    throw Error("client: handshake rejected: " +
                decode<WireError>(*reply).message);
  }
  const HelloAck ack = decode<HelloAck>(*reply);
  session_ = ack.session;
  server_ = ack.server;
}

std::uint64_t Client::submit(const std::string& manifest_line,
                             const std::string& idem) {
  const std::uint64_t tag = next_tag_++;
  sendFrame(fd_, encode(Submit{tag, manifest_line, idem}));
  return tag;
}

void Client::cancel(std::uint64_t job) { sendFrame(fd_, encode(Cancel{job})); }

void Client::evict(std::uint64_t job) { sendFrame(fd_, encode(Evict{job})); }

void Client::queryStats(std::uint32_t flags) {
  sendFrame(fd_, encode(StatsQuery{flags}));
}

void Client::shutdownServer(bool drain) {
  sendFrame(fd_, encode(Shutdown{drain}));
}

void Client::bye() {
  // Best-effort courtesy frame: after a shutdown request the server may
  // close the connection before the Bye lands, and that is not an error.
  try {
    sendFrame(fd_, encode(Bye{}));
  } catch (const Error&) {
  }
}

std::optional<Event> Client::next() { return next(0.0); }

std::optional<Event> Client::next(double timeout_seconds) {
  RecvDeadlines dl;
  dl.idle_seconds = timeout_seconds;
  std::optional<Frame> f = recvFrame(fd_, dl);
  if (!f.has_value()) return std::nullopt;
  return decodeEvent(*f, std::type_identity<Event>{});
}

std::optional<std::uint64_t> Client::awaitAdmission(std::uint64_t tag,
                                                    std::string* reason) {
  for (;;) {
    std::optional<Event> ev = next();
    if (!ev.has_value()) {
      throw Error("client: connection closed awaiting admission");
    }
    if (const auto* acc = std::get_if<Accepted>(&*ev);
        acc != nullptr && acc->tag == tag) {
      return acc->job;
    }
    if (const auto* rej = std::get_if<Rejected>(&*ev);
        rej != nullptr && rej->tag == tag) {
      if (reason != nullptr) *reason = rej->reason;
      return std::nullopt;
    }
  }
}

JobDone Client::awaitDone(std::uint64_t job) {
  for (;;) {
    std::optional<Event> ev = next();
    if (!ev.has_value()) {
      throw Error("client: connection closed awaiting job " +
                  std::to_string(job));
    }
    if (const auto* done = std::get_if<JobDone>(&*ev);
        done != nullptr && done->job == job) {
      return *done;
    }
  }
}

}  // namespace bfvr::svc
