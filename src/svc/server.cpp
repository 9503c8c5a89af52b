#include "svc/server.hpp"

#include <sys/socket.h>

#include <chrono>
#include <cstdio>
#include <fstream>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "run/manifest.hpp"
#include "svc/protocol.hpp"
#include "util/file.hpp"
#include "util/json.hpp"

namespace bfvr::svc {

namespace {

/// Flight-recorder ring capacity (recent events retained).
constexpr std::size_t kFlightCapacity = 512;

/// Read a spool checkpoint file whole. Empty on any failure: an eviction
/// that raced ahead of the first snapshot simply restarts from scratch.
std::shared_ptr<const std::vector<std::uint8_t>> slurpSpool(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return nullptr;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  if (bytes.empty()) return nullptr;
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

/// Per-tenant serving counter (admission decisions, outcomes, churn).
/// Registry lookup per call — these fire per job-lifecycle event, not per
/// frame or per BDD op, so the mutex there is noise.
obs::Counter& tenantCounter(const char* name, const std::string& tenant) {
  return obs::Registry::global().counter(name,
                                         obs::metricLabel("tenant", tenant));
}

/// Write `text` to `path`, logging a failure; returns whether it worked.
bool writeFile(const std::string& path, const std::string& text) {
  if (util::writeFile(path, text)) return true;
  obs::logLine(obs::LogLevel::kError, "svc", "cannot write " + path);
  return false;
}

obs::Histogram& dispatchHistogram() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "bfvr_svc_dispatch_seconds", "", obs::kSecondsScale);
  return h;
}
obs::Histogram& iterationHistogram() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "bfvr_svc_iteration_seconds", "", obs::kSecondsScale);
  return h;
}

/// The answer to a duplicate of a finished job, built from its `done`
/// record alone so it reads the same before and after a restart. Fields
/// the journal does not carry (worker, peak, attempts, ...) read 0.
JobDone doneFrame(const JournalRecord& done) {
  JobDone out;
  out.job = done.job;
  out.status = done.status;
  out.message = done.message;
  out.iterations = done.iteration;
  out.states = done.states;
  out.seconds = done.seconds;
  return out;
}

}  // namespace

Server::Server(const Options& opts)
    : opts_(opts),
      endpoint_(Endpoint::parse(opts.endpoint)),
      listener_(listenOn(endpoint_)),
      queue_(opts.tenants),
      table_(!opts.journal_dir.empty()),
      flight_(kFlightCapacity),
      pool_(opts.workers, /*warm_managers=*/true) {
  // Configured tenants report from the start, idle or not.
  for (const TenantConfig& t : opts.tenants) statsFor(t.name);
  if (!opts_.journal_dir.empty()) {
    journal_ =
        std::make_unique<Journal>(opts_.journal_dir, opts_.journal_fsync);
    replayJournal();
  }
}

Server::~Server() {
  requestShutdown(false);
  waitStopped();
}

void Server::start() {
  accept_thread_ = std::thread([this] { acceptLoop(); });
  if (opts_.metrics_every > 0.0) {
    metrics_thread_ = std::thread([this] { metricsLoop(); });
  }
  obs::logLine(obs::LogLevel::kInfo, "svc",
               "listening on " + endpoint_.describe() + " with " +
                   std::to_string(pool_.workers()) + " workers");
  // Jobs replayed from the journal are already queued; nothing else will
  // pump them until a client shows up, so dispatch them now.
  const std::lock_guard<std::mutex> lock(mu_);
  pump();
}

void Server::requestShutdown(bool drain) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    // A repeat request is a no-op, except the escalation a second SIGTERM
    // means: a drain in progress hardens into an immediate stop. After the
    // server already stopped there is nothing left to escalate.
    if (stopped_) return;
    if (shutdown_requested_ && (drain || !shutdown_drain_)) return;
    const bool escalated = shutdown_requested_;
    shutdown_requested_ = true;
    shutdown_drain_ = drain;
    draining_ = true;
    obs::logLine(obs::LogLevel::kInfo, "svc",
                 std::string(escalated ? "shutdown escalated ("
                                       : "shutdown requested (") +
                     (drain ? "drain" : "immediate") + ")");
    flight_.record(obs::FlightSeverity::kInfo, "shutdown",
                   escalated ? "drain escalated to immediate stop"
                             : (drain ? "drain requested"
                                      : "immediate stop requested"));
    if (!drain) {
      // Immediate: cancel every running job and drop the queue. Dropped
      // jobs' owners get no JobDone — their sessions are about to close.
      // With a journal the dropped work is not lost, only deferred: the
      // jobs stay live in the table and the log, and replay on the next
      // start.
      for (auto& [id, r] : running_) r.cancel->cancel();
      for (const QueuedJob& dropped : queue_.dropAll()) {
        if (journal_ == nullptr) {
          cancelQueuedLocked(dropped, "dropped at shutdown", false);
        }
      }
    } else {
      pump();  // capped tenants may have runnable work and idle workers
    }
  }
  cv_.notify_all();
}

void Server::waitStopped() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopped_) return;
    cv_.wait(lock, [this] { return shutdown_requested_; });
    // Drain: wait until nothing is queued and no worker is busy.
    cv_.wait(lock, [this] {
      return running_.empty() && queue_.queuedCount() == 0;
    });
    if (!opts_.report_path.empty() &&
        writeFile(opts_.report_path,
                  buildReportLocked(StatsQuery::kIncludeMetrics |
                                    StatsQuery::kIncludeSpans) +
                      "\n")) {
      obs::logLine(obs::LogLevel::kInfo, "svc", "wrote " + opts_.report_path);
    }
    if (journal_ != nullptr) finishJournalLocked();
    stopped_ = true;
    // Wake the accept thread out of accept(2) and every session reader out
    // of recv(2).
    ::shutdown(listener_.get(), SHUT_RDWR);
    for (auto& [id, s] : sessions_) {
      s->alive.store(false, std::memory_order_relaxed);
      ::shutdown(s->fd.get(), SHUT_RDWR);
    }
  }
  cv_.notify_all();  // wake the metrics writer so it sees stopped_
  if (accept_thread_.joinable()) accept_thread_.join();
  if (metrics_thread_.joinable()) metrics_thread_.join();
  // The accept thread spawns session threads; with it joined the vector is
  // final.
  std::vector<std::thread> threads;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    threads.swap(session_threads_);
  }
  for (std::thread& t : threads) t.join();
  listener_.close();
  if (endpoint_.is_unix) std::remove(endpoint_.path.c_str());
  // Final observability snapshots, after all workers and writers are quiet.
  if (opts_.metrics_every > 0.0) writeMetricsFiles();
  flight_.record(obs::FlightSeverity::kInfo, "shutdown", "server stopped");
  dumpFlight("shutdown");
  obs::logLine(obs::LogLevel::kInfo, "svc", "stopped");
}

void Server::acceptLoop() {
  for (;;) {
    Fd conn = acceptOn(listener_);
    if (!conn.valid()) return;  // listener shut down: orderly exit
    auto s = std::make_shared<Session>();
    s->fd = std::move(conn);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      s->id = next_session_++;
      sessions_accepted_ += 1;
      sessions_[s->id] = s;
      session_threads_.emplace_back([this, s] { sessionLoop(s); });
    }
  }
}

void Server::sessionLoop(std::shared_ptr<Session> s) {
  // First frame must be Hello; everything else on this connection is a
  // protocol error reported back (best-effort) before closing.
  const RecvDeadlines deadlines{opts_.idle_timeout, opts_.frame_timeout};
  try {
    if (opts_.send_timeout > 0.0) setSendTimeout(s->fd, opts_.send_timeout);
    std::optional<Frame> first = recvFrame(s->fd, deadlines);
    if (!first.has_value()) throw Error("session: closed before hello");
    const Hello hello = decode<Hello>(*first);
    if (hello.proto != kWireVersion) {
      throw Error("session: client protocol version " +
                  std::to_string(hello.proto) + " (server speaks " +
                  std::to_string(kWireVersion) + ")");
    }
    if (hello.tenant.empty()) throw Error("session: empty tenant name");
    s->tenant = hello.tenant;
    sendTo(s, encode(HelloAck{s->id, opts_.name}));
    obs::logLine(obs::LogLevel::kDebug, "svc",
                 "session " + std::to_string(s->id) + " opened", s->tenant);
    while (s->alive.load(std::memory_order_relaxed)) {
      std::optional<Frame> f = recvFrame(s->fd, deadlines);
      if (!f.has_value()) break;  // orderly close without Bye: fine
      if (!handleFrame(s, *f)) break;
    }
  } catch (const Timeout& e) {
    if (e.idle) {
      // The reaper's case: a connected-but-silent peer. Not a protocol
      // error — just reclaim the thread, telling the peer why if its pipe
      // still works.
      sessions_reaped_.fetch_add(1, std::memory_order_relaxed);
      obs::Registry::global().counter("bfvr_svc_sessions_reaped_total").inc();
      obs::logLine(obs::LogLevel::kInfo, "svc",
                   "session " + std::to_string(s->id) + " reaped: " + e.what(),
                   s->tenant);
      flight_.record(obs::FlightSeverity::kInfo, "reaper", e.what(),
                     s->tenant);
    } else {
      // A frame that started but never finished arriving: slow-loris or a
      // torn send. Protocol-error territory.
      frame_timeouts_.fetch_add(1, std::memory_order_relaxed);
      obs::Registry::global().counter("bfvr_svc_frame_timeouts_total").inc();
      obs::Registry::global().counter("bfvr_svc_session_errors_total").inc();
      obs::logLine(obs::LogLevel::kError, "svc",
                   "session " + std::to_string(s->id) + ": " + e.what(),
                   s->tenant);
      flight_.record(obs::FlightSeverity::kError, "wire", e.what(),
                     s->tenant);
    }
    sendTo(s, encode(WireError{e.what()}));
  } catch (const Error& e) {
    // Malformed traffic (bad magic/CRC/truncation) or version skew: tell
    // the client why, if the pipe still works, then drop the session. The
    // server itself never goes down with a session.
    obs::logLine(obs::LogLevel::kError, "svc",
                 "session " + std::to_string(s->id) + ": " + e.what(),
                 s->tenant);
    flight_.record(obs::FlightSeverity::kError, "wire", e.what(), s->tenant);
    obs::Registry::global().counter("bfvr_svc_session_errors_total").inc();
    sendTo(s, encode(WireError{e.what()}));
  }
  // Session teardown. Without a journal: retire its queued jobs as
  // cancelled and cancel its running ones — results with no one to read
  // them are wasted worker time. With a journal the jobs are kept
  // (detached from the dead session): the client is expected to reconnect
  // and resubmit with its idempotency keys, and the work already done must
  // not be thrown away.
  {
    const std::lock_guard<std::mutex> lock(mu_);
    s->alive.store(false, std::memory_order_relaxed);
    if (journal_ == nullptr) {
      for (const QueuedJob& dropped : queue_.dropSession(s->id)) {
        cancelQueuedLocked(dropped, "session closed", false);
      }
      for (auto& [id, r] : running_) {
        if (r.job.session == s->id) r.cancel->cancel();
      }
    }
    sessions_.erase(s->id);
    pump();  // dropping queued jobs may unblock a tenant's queue cap
  }
  obs::logLine(obs::LogLevel::kDebug, "svc",
               "session " + std::to_string(s->id) + " closed", s->tenant);
  cv_.notify_all();
}

bool Server::handleFrame(const std::shared_ptr<Session>& s, const Frame& f) {
  switch (f.type) {
    case FrameType::kSubmit:
      handleSubmit(s, f);
      return true;
    case FrameType::kCancel: {
      const Cancel c = decode<Cancel>(f);
      const std::lock_guard<std::mutex> lock(mu_);
      if (auto it = running_.find(c.job); it != running_.end()) {
        it->second.cancel->cancel();
      } else if (std::optional<QueuedJob> dropped = queue_.dropJob(c.job);
                 dropped.has_value()) {
        // An explicit client cancel is terminal, journal or not: the job
        // must not rise from the dead on the next restart.
        cancelQueuedLocked(*dropped, "cancelled while queued", true);
        pump();
      }
      return true;
    }
    case FrameType::kEvict: {
      const Evict e = decode<Evict>(f);
      const std::lock_guard<std::mutex> lock(mu_);
      if (auto it = running_.find(e.job); it != running_.end()) {
        it->second.evict_requested = true;
        it->second.cancel->cancel();
      }
      return true;
    }
    case FrameType::kStats: {
      const StatsQuery q = decode<StatsQuery>(f);
      sendTo(s, encode(StatsReply{statsJson(q.flags)}));
      return true;
    }
    case FrameType::kShutdown: {
      const Shutdown sd = decode<Shutdown>(f);
      requestShutdown(sd.drain);
      return true;
    }
    case FrameType::kBye:
      return false;
    default:
      throw Error(std::string("session: unexpected ") + to_string(f.type) +
                  " frame");
  }
}

void Server::handleSubmit(const std::shared_ptr<Session>& s, const Frame& f) {
  const Submit sub = decode<Submit>(f);
  const std::lock_guard<std::mutex> lock(mu_);
  // Accepted carries the span's trace id while the span is retained.
  const auto accept = [&](std::uint64_t id) {
    Accepted acc;
    acc.tag = sub.tag;
    acc.job = id;
    if (auto it = spans_.find(id); it != spans_.end()) {
      acc.trace = it->second.trace_id;
    }
    sendTo(s, encode(acc));
  };
  statsFor(s->tenant).submitted += 1;
  tenantCounter("bfvr_svc_submissions_total", s->tenant).inc();
  // Idempotent resubmission: a key this tenant already used answers with
  // the original job's identity — and its terminal result when it already
  // finished — instead of executing a second time. A live job is
  // reattached to this session so its remaining frames land here.
  if (journal_ != nullptr && !sub.idem.empty()) {
    if (const JobEntry* known = table_.findKey(s->tenant, sub.idem)) {
      const std::uint64_t id = known->accepted.job;
      dedup_hits_ += 1;
      tenantCounter("bfvr_svc_dedup_hits_total", s->tenant).inc();
      flight_.record(obs::FlightSeverity::kInfo, "dedup",
                     "idem '" + sub.idem + "' matched job " +
                         std::to_string(id),
                     s->tenant, id);
      if (auto rit = running_.find(id); rit != running_.end()) {
        rit->second.job.session = s->id;
      } else {
        queue_.reattachSession(id, s->id);
      }
      accept(id);
      if (known->done.has_value()) {
        sendTo(s, encode(doneFrame(*known->done)));
      }
      return;
    }
  }
  JournalRecord accepted;
  accepted.event = JournalEvent::kAccepted;
  accepted.job = table_.nextId();
  accepted.tenant = s->tenant;
  accepted.idem = sub.idem;
  accepted.line = sub.line;
  const std::optional<std::string> refused =
      draining_ ? std::optional<std::string>("server is draining")
                : admitLocked(accepted, s->id, false);
  if (refused.has_value()) {
    statsFor(s->tenant).rejected += 1;
    tenantCounter("bfvr_svc_rejected_total", s->tenant).inc();
    flight_.record(obs::FlightSeverity::kWarn, "admission",
                   "rejected: " + *refused, s->tenant);
    sendTo(s, encode(Rejected{sub.tag, *refused}));
    return;
  }
  accept(accepted.job);
  pump();
}

std::optional<std::string> Server::admitLocked(const JournalRecord& accepted,
                                               std::uint64_t session,
                                               bool replayed) {
  const std::uint64_t id = accepted.job;
  QueuedJob job;
  job.id = id;
  job.session = session;
  job.tenant = accepted.tenant;
  try {
    // One submission = one manifest line; portfolio entries are a batch
    // feature and not accepted over the wire.
    std::vector<run::ManifestEntry> entries =
        run::parseManifestString(accepted.line);
    if (entries.size() != 1) {
      throw std::invalid_argument("expected exactly one job line");
    }
    if (!entries[0].portfolio.empty()) {
      throw std::invalid_argument("portfolio= is not accepted over the wire");
    }
    job.spec = std::move(entries[0].spec);
  } catch (const std::exception& e) {
    return e.what();
  }
  // Make the job evictable: wire up the spool checkpoint unless the
  // submission already checkpoints somewhere of its own. A replayed job
  // resumes from its spool snapshot when one exists (io::save is atomic,
  // so a snapshot that exists is complete).
  if (job.spec.opts.checkpoint_path.empty() && opts_.checkpoint_every > 0) {
    job.spec.opts.checkpoint_every = opts_.checkpoint_every;
    job.spec.opts.checkpoint_path = spoolPathFor(id);
  }
  if (replayed && !job.spec.opts.checkpoint_path.empty()) {
    job.spec.resume_image = slurpSpool(job.spec.opts.checkpoint_path);
  }
  const bool resumed = job.spec.resume_image != nullptr;
  const std::string display = job.spec.displayName();
  if (std::optional<std::string> reason = queue_.admit(std::move(job));
      reason.has_value()) {
    return reason;
  }
  if (!replayed) {
    // Write-ahead: the accept must be durable before the client hears it,
    // or a crash between the two could lose a job the client believes is
    // in flight. A journal that cannot take the record refuses the job.
    if (journal_ != nullptr && !journalAppend(accepted)) {
      queue_.dropJob(id);
      return "journal write failed";
    }
    table_.apply(accepted);
  }
  // The job exists: open its span.
  obs::JobSpan& span = spans_[id];
  span.trace_id = next_trace_++;
  span.job = id;
  span.tenant = accepted.tenant;
  span.idem = accepted.idem;
  span.start = uptime_.seconds();
  span_counts_[accepted.tenant] += 1;
  if (replayed) {
    replayed_jobs_ += 1;
    obs::Registry::global()
        .counter("bfvr_svc_journal_replayed_jobs_total")
        .inc();
    if (resumed) {
      replayed_resumed_ += 1;
      statsFor(accepted.tenant).resumes += 1;
      tenantCounter("bfvr_svc_resumes_total", accepted.tenant).inc();
    }
    const std::string how =
        resumed ? "resume from spool snapshot (watermark iter=" +
                      std::to_string(table_.find(id)->watermark) + ")"
                : "no snapshot; fresh start";
    spanEventLocked(id, "replayed", how);
    flight_.record(obs::FlightSeverity::kInfo, "journal", "replayed: " + how,
                   accepted.tenant, id);
    obs::logLine(obs::LogLevel::kInfo, "svc", "replayed from journal: " + how,
                 accepted.tenant, id);
  } else {
    // The received/admitted/queued stamps land together — one frame
    // handler performed all three transitions.
    spanEventLocked(id, "received", display);
    spanEventLocked(id, "admitted");
    tenantCounter("bfvr_svc_admitted_total", accepted.tenant).inc();
    flight_.record(obs::FlightSeverity::kInfo, "admission",
                   "admitted " + display, accepted.tenant, id);
    obs::logLine(obs::LogLevel::kDebug, "svc", "admitted " + display,
                 accepted.tenant, id);
  }
  spanEventLocked(id, "queued");
  return std::nullopt;
}

void Server::finishLocked(RunStatus status, JobDone done,
                          const std::string& tenant, const std::string& spool,
                          std::uint64_t owner) {
  const std::uint64_t id = done.job;
  done.status = to_string(status);
  // Write-ahead again: the terminal record must be durable before the
  // client hears JobDone, so a crash right after the send cannot re-run a
  // job the client saw finish.
  JournalRecord rec;
  rec.event = JournalEvent::kDone;
  rec.job = id;
  rec.iteration = done.iterations;
  rec.status = done.status;
  rec.message = done.message;
  rec.states = done.states;
  rec.seconds = done.seconds;
  if (journal_ != nullptr) journalAppend(rec);
  table_.apply(rec);
  TenantStats& ts = statsFor(tenant);
  ts.finished.add(status);
  ts.queue_seconds += done.queue_seconds;
  ts.exec_seconds += done.seconds;
  tenantCounter("bfvr_svc_jobs_finished_total", tenant).inc();
  // A job that reached a worker names it; one retired from the queue (or
  // by replay) says why instead.
  const bool ran = done.attempts > 0;
  const std::string detail =
      done.status + (ran ? " worker=" + std::to_string(done.worker)
                         : " (" + done.message + ")");
  if (auto sit = spans_.find(id); sit != spans_.end()) {
    obs::JobSpan& span = sit->second;
    span.status = done.status;
    span.evictions = done.evictions;
    if (ran) span.workers.push_back(done.worker);
    spanEventLocked(id, "done", detail);
    finished_spans_.push_back(id);
    while (finished_spans_.size() > opts_.span_retain) {
      spans_.erase(finished_spans_.front());
      finished_spans_.pop_front();
    }
  }
  if (status == RunStatus::kError) {
    flight_.record(obs::FlightSeverity::kError, "job",
                   "failed: " + done.message, tenant, id);
  }
  obs::logLine(obs::LogLevel::kDebug, "svc", detail, tenant, id);
  // The job is finished for good: its spool snapshot is garbage now.
  if (!spool.empty() && spool.rfind(opts_.spool_dir, 0) == 0) {
    std::remove(spool.c_str());
  }
  sendTo(sessionById(owner), encode(done));
}

void Server::cancelQueuedLocked(const QueuedJob& job, const char* why,
                                bool notify) {
  JobDone done;
  done.job = job.id;
  done.message = why;
  done.evictions = job.evictions;
  finishLocked(RunStatus::kCancelled, std::move(done), job.tenant,
               job.spec.opts.checkpoint_path, notify ? job.session : 0);
}

void Server::pump() {
  while (running_.size() < pool_.workers()) {
    std::optional<QueuedJob> picked = queue_.pick();
    if (!picked.has_value()) return;
    const std::uint64_t id = picked->id;
    Running r;
    r.job = std::move(*picked);
    r.cancel = std::make_shared<run::CancelToken>();
    run::JobSpec spec = r.job.spec;  // the Running keeps the pristine copy
    const unsigned avoid = r.job.avoid_worker;
    const bool resumed = spec.resume_image != nullptr;
    // Stream iteration records to the job's owner, and — with a journal —
    // append a checkpoint watermark at the job's snapshot cadence. The hook
    // runs on the worker thread. It looks the owner up under mu_ at every
    // send, so a client that reattached by key gets the rest of the
    // stream, and sends outside mu_. Updates are best-effort: one goes out
    // only when the owner's socket is writable, and is dropped (and
    // counted) otherwise, so a client that stops reading cannot pin the
    // worker and the job's deadline is still polled. The hook fires
    // *before* the engine writes the post-iteration snapshot, so a
    // journaled watermark means "progress reached", not "snapshot
    // durable": replay always trusts the spool file itself (atomic
    // tmp+rename, so it is complete whenever it exists), never the
    // watermark.
    const bool stream = opts_.stream_iterations;
    const bool watermark = journal_ != nullptr &&
                           !spec.opts.checkpoint_path.empty() &&
                           spec.opts.checkpoint_every > 0;
    if (stream || watermark) {
      const unsigned ckpt_every = spec.opts.checkpoint_every;
      // `last_mark` carries the previous iteration's timestamp across hook
      // invocations (one lambda per dispatch, called sequentially on the
      // worker thread), so each observation is one iteration's wall-clock.
      auto last_mark = std::make_shared<double>(uptime_.seconds());
      obs::Counter* dropped = &tenantCounter(
          "bfvr_svc_iteration_updates_dropped_total", r.job.tenant);
      spec.opts.on_iteration = [this, id, last_mark, stream, watermark,
                                ckpt_every,
                                dropped](const obs::IterationRecord& it) {
        const double now_s = uptime_.seconds();
        iterationHistogram().observeSeconds(now_s - *last_mark);
        *last_mark = now_s;
        JournalRecord mark;
        const bool marked = watermark && it.iteration % ckpt_every == 0;
        if (marked) {
          mark.event = JournalEvent::kCheckpointed;
          mark.job = id;
          mark.iteration = it.iteration;
          journalAppend(mark);
        }
        std::shared_ptr<Session> owner;
        {
          const std::lock_guard<std::mutex> lock(mu_);
          if (marked) table_.apply(mark);
          if (auto rit = running_.find(id); rit != running_.end()) {
            owner = sessionById(rit->second.job.session);
          }
          // Fold the live iteration count into the span's running stamp
          // instead of appending one event per iteration — timelines stay
          // bounded however long the fixpoint runs.
          if (auto sit = spans_.find(id); sit != spans_.end()) {
            obs::JobSpan& span = sit->second;
            if (!span.events.empty() && span.events.back().what == "running") {
              span.events.back().t = now_s - span.start;
              span.events.back().detail =
                  "iter=" + std::to_string(it.iteration);
            } else {
              spanEventLocked(id, "running",
                              "iter=" + std::to_string(it.iteration));
            }
          }
        }
        if (!stream || owner == nullptr) return;
        IterationUpdate u;
        u.job = id;
        u.iteration = it.iteration;
        u.frontier_nodes = it.frontier_nodes;
        u.live_nodes = it.live_nodes;
        u.peak_nodes = it.peak_nodes;
        u.frontier_states = it.frontier_states;
        if (!sendIfWritable(owner, encode(u))) dropped->inc();
      };
    }
    if (journal_ != nullptr) {
      JournalRecord rec;
      rec.event = JournalEvent::kDispatched;
      rec.job = id;
      journalAppend(rec);
      table_.apply(rec);
    }
    const std::uint64_t session_id = r.job.session;
    dispatches_ += 1;
    if (auto sit = spans_.find(id); sit != spans_.end()) {
      // Scheduling latency: span open (admission) to this dispatch. A
      // resumed job measures its requeue wait, which is the point.
      const obs::JobSpan& span = sit->second;
      double queued_at = span.start;
      for (const obs::SpanEvent& ev : span.events) {
        if (ev.what == "queued") queued_at = span.start + ev.t;
      }
      dispatchHistogram().observeSeconds(uptime_.seconds() - queued_at);
      spanEventLocked(id, resumed ? "resumed" : "dispatched",
                      resumed ? "from eviction image" : "");
    }
    if (resumed) {
      flight_.record(obs::FlightSeverity::kInfo, "resume",
                     "resumed from eviction image", r.job.tenant, id);
    }
    obs::logLine(obs::LogLevel::kDebug, "svc",
                 resumed ? "resumed" : "dispatched", r.job.tenant, id);
    auto cancel = r.cancel;
    running_[id] = std::move(r);
    pool_.submit(
        std::move(spec), cancel,
        [this, id](const run::JobResult& res) { onJobDone(id, res); }, avoid);
    sendTo(sessionById(session_id), encode(JobStarted{id, resumed}));
  }
}

void Server::onJobDone(std::uint64_t id, const run::JobResult& r) {
  // Runs on the worker thread, right before the job's future is fulfilled.
  // Flight dump triggers, resolved under mu_ and acted on after it: a
  // failed job or an injected worker fault is post-mortem material.
  std::string dump_reason;
  std::uint64_t faults_injected = 0;
  for (const run::AttemptRecord& a : r.attempts) {
    faults_injected += a.faults_injected;
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    auto it = running_.find(id);
    if (it == running_.end()) return;  // cannot happen; defensive
    Running rec = std::move(it->second);
    running_.erase(it);
    queue_.release(rec.job.tenant);
    if (faults_injected != 0) {
      flight_.record(obs::FlightSeverity::kError, "fault",
                     "worker " + std::to_string(r.worker) + " injected " +
                         std::to_string(faults_injected) + " fault(s)",
                     rec.job.tenant, id);
      dump_reason = "worker-fault";
    }
    if (r.retriesUsed() > 0) {
      flight_.record(obs::FlightSeverity::kWarn, "retry",
                     std::to_string(r.retriesUsed()) + " retry attempt(s), " +
                         "final status " + to_string(r.status),
                     rec.job.tenant, id);
    }
    const bool evicting = rec.evict_requested &&
                          r.status == RunStatus::kCancelled && !draining_;
    // A running job cancelled by an *immediate shutdown* under a journal
    // is not terminal — it stays live in the table and the log (with its
    // spool snapshot intact) and replays on the next start. Only explicit
    // client cancels and real completions retire a journaled job.
    const bool preserved = !evicting && journal_ != nullptr &&
                           shutdown_requested_ && !shutdown_drain_ &&
                           r.status == RunStatus::kCancelled;
    if (preserved) {
      spanEventLocked(id, "preserved",
                      "immediate shutdown at iter=" +
                          std::to_string(r.reach.iterations) +
                          "; will replay");
      flight_.record(obs::FlightSeverity::kInfo, "journal",
                     "job preserved for restart replay (iteration " +
                         std::to_string(r.reach.iterations) + ")",
                     rec.job.tenant, id);
      obs::logLine(obs::LogLevel::kInfo, "svc",
                   "preserved for restart replay", rec.job.tenant, id);
    } else if (evicting) {
      // Lift the latest spool snapshot into memory and requeue at the
      // front, steered away from the worker that ran the job. No snapshot
      // yet (evicted before the first checkpoint) still migrates — the
      // resume just starts from scratch.
      QueuedJob again = std::move(rec.job);
      again.spec.resume_image = slurpSpool(again.spec.opts.checkpoint_path);
      again.avoid_worker = r.worker;
      again.evictions += 1;
      statsFor(again.tenant).evictions += 1;
      tenantCounter("bfvr_svc_evictions_total", again.tenant).inc();
      if (again.spec.resume_image != nullptr) {
        statsFor(again.tenant).resumes += 1;
        tenantCounter("bfvr_svc_resumes_total", again.tenant).inc();
      }
      if (auto sit = spans_.find(id); sit != spans_.end()) {
        sit->second.evictions = again.evictions;
        sit->second.workers.push_back(r.worker);
      }
      spanEventLocked(id, "evicted",
                      "iter=" + std::to_string(r.reach.iterations) +
                          " worker=" + std::to_string(r.worker));
      spanEventLocked(id, "queued", "requeued after eviction");
      flight_.record(obs::FlightSeverity::kWarn, "eviction",
                     "evicted at iteration " +
                         std::to_string(r.reach.iterations) + " from worker " +
                         std::to_string(r.worker) +
                         (again.spec.resume_image != nullptr
                              ? ", snapshot captured"
                              : ", no snapshot yet"),
                     again.tenant, id);
      obs::logLine(obs::LogLevel::kInfo, "svc",
                   "evicted from worker " + std::to_string(r.worker),
                   again.tenant, id);
      sendTo(sessionById(again.session),
             encode(JobEvicted{id, r.reach.iterations, r.worker}));
      queue_.requeueFront(std::move(again));
    } else {
      if (r.status == RunStatus::kError && dump_reason.empty()) {
        dump_reason = "job-error";
      }
      JobDone done;
      done.job = id;
      done.message = r.message;
      done.seconds = r.seconds;
      done.queue_seconds = r.queue_seconds;
      done.worker = r.worker;
      done.iterations = r.reach.iterations;
      done.states = r.reach.states;
      done.peak_live_nodes = r.reach.peak_live_nodes;
      done.attempts = static_cast<std::uint32_t>(r.attempts.size());
      done.evictions = rec.job.evictions;
      done.resumed = rec.job.spec.resume_image != nullptr ||
                     (!r.attempts.empty() && r.attempts.back().resumed);
      finishLocked(r.status, std::move(done), rec.job.tenant,
                   rec.job.spec.opts.checkpoint_path, rec.job.session);
    }
    pump();
  }
  if (!dump_reason.empty()) dumpFlight(dump_reason);
  cv_.notify_all();
}

void Server::sendTo(const std::shared_ptr<Session>& s, const Frame& f) {
  if (s == nullptr) return;
  const std::lock_guard<std::mutex> lock(s->write_mu);
  if (!s->alive.load(std::memory_order_relaxed)) return;
  try {
    sendFrame(s->fd, f);
  } catch (const Error&) {
    // Peer is gone; its reader thread will notice and tear the session
    // down. Until then, drop further frames silently.
    s->alive.store(false, std::memory_order_relaxed);
  }
}

bool Server::sendIfWritable(const std::shared_ptr<Session>& s,
                            const Frame& f) {
  // Other writers hold the mutex for one small frame each, and those
  // writes do not block either: POLLOUT clears long before updates could
  // fill a stalled client's buffer.
  const std::lock_guard<std::mutex> lock(s->write_mu);
  if (!s->alive.load(std::memory_order_relaxed)) return true;
  if (!writableNow(s->fd)) return false;
  try {
    sendFrame(s->fd, f);
  } catch (const Error&) {
    s->alive.store(false, std::memory_order_relaxed);
  }
  return true;
}

std::shared_ptr<Server::Session> Server::sessionById(std::uint64_t id) {
  auto it = sessions_.find(id);
  return it != sessions_.end() ? it->second : nullptr;
}

Server::TenantStats& Server::statsFor(const std::string& tenant) {
  for (TenantStats& t : tenant_stats_) {
    if (t.name == tenant) return t;
  }
  TenantStats& t = tenant_stats_.emplace_back();
  t.name = tenant;
  if (const TenantConfig* cfg = queue_.tenantConfig(tenant)) {
    t.weight = cfg->weight;
  }
  return t;
}

std::string Server::spoolPathFor(std::uint64_t job_id) const {
  return opts_.spool_dir + "/svc_job_" + std::to_string(job_id) + ".ckpt";
}

void Server::replayJournal() {
  // Constructor context: no session or worker exists yet; mu_ is taken
  // because the admission and terminal paths expect it held.
  const std::lock_guard<std::mutex> lock(mu_);
  for (const JournalRecord& rec : journal_->replayed()) table_.apply(rec);
  replayed_terminal_ = table_.terminalCount();
  // Re-admit every live job, detached (session 0) until a client
  // reattaches by key.
  for (const JournalRecord& accepted : table_.live()) {
    const std::optional<std::string> fail = admitLocked(accepted, 0, true);
    if (!fail.has_value()) continue;
    // Cannot be re-run (the line no longer parses, the tenant's queue cap
    // shrank, ...): retire it, key and answer kept, so it stops replaying
    // and a resubmission under its key gets this answer.
    obs::logLine(obs::LogLevel::kError, "svc",
                 "journal replay failed for job " +
                     std::to_string(accepted.job) + ": " + *fail,
                 accepted.tenant, accepted.job);
    JobDone done;
    done.job = accepted.job;
    done.message = "replay failed: " + *fail;
    finishLocked(RunStatus::kError, std::move(done), accepted.tenant,
                 spoolPathFor(accepted.job), 0);
  }
  const JournalStats js = journal_->stats();
  if (js.torn_bytes > 0) {
    flight_.record(obs::FlightSeverity::kWarn, "journal",
                   "truncated torn tail: " + std::to_string(js.torn_bytes) +
                       " byte(s)");
  }
  obs::logLine(obs::LogLevel::kInfo, "svc",
               "journal replay: " + std::to_string(js.replayed_records) +
                   " record(s), " + std::to_string(replayed_jobs_) +
                   " job(s) re-enqueued (" +
                   std::to_string(replayed_resumed_) + " resuming), " +
                   std::to_string(replayed_terminal_) +
                   " already terminal, torn tail " +
                   std::to_string(js.torn_bytes) + " byte(s)");
}

bool Server::journalAppend(const JournalRecord& rec) noexcept {
  try {
    journal_->append(rec);
    return true;
  } catch (const std::exception& e) {
    journal_errors_ += 1;
    obs::Registry::global().counter("bfvr_svc_journal_errors_total").inc();
    obs::logLine(obs::LogLevel::kError, "svc",
                 std::string("journal append failed: ") + e.what());
    return false;
  }
}

void Server::finishJournalLocked() {
  if (opts_.journal_compact_on_shutdown) {
    const std::vector<JournalRecord> keep = table_.live();
    try {
      journal_->compact(keep);
      obs::logLine(obs::LogLevel::kInfo, "svc",
                   "journal compacted to " + std::to_string(keep.size()) +
                       " live job(s)");
    } catch (const std::exception& e) {
      obs::logLine(obs::LogLevel::kError, "svc",
                   std::string("journal compaction failed: ") + e.what());
    }
  }
  const JournalStats js = journal_->stats();
  util::JsonObject o;
  o.add("name", opts_.name)
      .add("path", journal_->path())
      .add("fsync", to_string(journal_->policy()))
      .add("appended", js.appended)
      .add("fsyncs", js.fsyncs)
      .add("replayed_records", js.replayed_records)
      .add("replayed_jobs", replayed_jobs_)
      .add("replayed_resumed", replayed_resumed_)
      .add("replayed_terminal", replayed_terminal_)
      .add("dedup_hits", dedup_hits_)
      .add("journal_errors", journal_errors_)
      .add("torn_bytes", js.torn_bytes)
      .add("compactions", js.compactions)
      .add("live_at_shutdown",
           static_cast<std::uint64_t>(table_.liveCount()));
  const std::string path =
      opts_.journal_dir + "/JOURNAL_" + opts_.name + ".json";
  if (writeFile(path, o.str() + "\n")) {
    obs::logLine(obs::LogLevel::kInfo, "svc", "wrote " + path);
  }
}

std::uint64_t Server::replayedJobs() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return replayed_jobs_;
}

std::uint64_t Server::dedupHits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dedup_hits_;
}

std::uint64_t Server::sessionsReaped() const {
  return sessions_reaped_.load(std::memory_order_relaxed);
}

std::uint64_t Server::frameTimeouts() const {
  return frame_timeouts_.load(std::memory_order_relaxed);
}

void Server::spanEventLocked(std::uint64_t id, const char* what,
                             std::string detail) {
  auto it = spans_.find(id);
  if (it == spans_.end()) return;
  obs::SpanEvent ev;
  ev.what = what;
  ev.t = uptime_.seconds() - it->second.start;
  ev.detail = std::move(detail);
  it->second.events.push_back(std::move(ev));
}

void Server::sampleGaugesLocked() const {
  obs::Registry& reg = obs::Registry::global();
  reg.gauge("bfvr_svc_queue_depth").set(
      static_cast<std::int64_t>(queue_.queuedCount()));
  reg.gauge("bfvr_svc_running").set(static_cast<std::int64_t>(running_.size()));
  reg.gauge("bfvr_svc_sessions").set(
      static_cast<std::int64_t>(sessions_.size()));
  const run::ManagerCache::Stats warm = pool_.warmStats();
  reg.gauge("bfvr_svc_warm_hits").set(static_cast<std::int64_t>(warm.hits));
  reg.gauge("bfvr_svc_warm_misses").set(
      static_cast<std::int64_t>(warm.misses));
  reg.gauge("bfvr_svc_leaked_nodes").set(
      static_cast<std::int64_t>(warm.leaked_nodes));
  // Integer-friendly hit rate: parts per million of acquires served warm.
  const std::uint64_t acquires = warm.hits + warm.misses;
  reg.gauge("bfvr_svc_warm_hit_rate_ppm")
      .set(acquires == 0 ? 0
                         : static_cast<std::int64_t>(warm.hits * 1000000 /
                                                     acquires));
  if (journal_ != nullptr) {
    const JournalStats js = journal_->stats();
    reg.gauge("bfvr_journal_appended")
        .set(static_cast<std::int64_t>(js.appended));
    reg.gauge("bfvr_journal_fsyncs")
        .set(static_cast<std::int64_t>(js.fsyncs));
    reg.gauge("bfvr_journal_torn_bytes")
        .set(static_cast<std::int64_t>(js.torn_bytes));
    reg.gauge("bfvr_journal_live_jobs")
        .set(static_cast<std::int64_t>(table_.liveCount()));
  }
}

std::string Server::buildReportLocked(std::uint32_t flags) const {
  sampleGaugesLocked();
  // A tenant's counters under report keys: `<prefix>submitted`,
  // `<prefix>rejected`, the outcome tally, evictions and resumes.
  const auto addCounts = [](util::JsonObject& o, const TenantStats& t,
                            const std::string& prefix) -> util::JsonObject& {
    o.add(prefix + "submitted", t.submitted)
        .add(prefix + "rejected", t.rejected);
    return obs::addStatusCounts(o, t.finished, prefix)
        .add("evictions", t.evictions)
        .add("resumes", t.resumes);
  };
  TenantStats all;
  std::vector<std::string> rows;
  rows.reserve(tenant_stats_.size());
  for (const TenantStats& t : tenant_stats_) {
    util::JsonObject o;
    o.add("tenant", t.name).add("weight", t.weight);
    addCounts(o, t, "")
        .add("queue_seconds", t.queue_seconds)
        .add("exec_seconds", t.exec_seconds);
    rows.push_back(o.str());
    all.submitted += t.submitted;
    all.rejected += t.rejected;
    all.finished += t.finished;
    all.evictions += t.evictions;
    all.resumes += t.resumes;
  }
  const run::ManagerCache::Stats warm = pool_.warmStats();
  util::JsonObject root;
  root.add("server", opts_.name)
      .add("endpoint", endpoint_.describe())
      .add("workers", pool_.workers())
      .add("seconds", uptime_.seconds())
      .add("sessions", sessions_accepted_)
      .add("dispatches", dispatches_);
  addCounts(root, all, "jobs_")
      .add("warm_hits", warm.hits)
      .add("warm_misses", warm.misses)
      .add("resets_failed", warm.resets_failed)
      .add("leaked_nodes", warm.leaked_nodes)
      .add("queue_depth", static_cast<std::uint64_t>(queue_.queuedCount()))
      .add("running", static_cast<std::uint64_t>(running_.size()))
      .addRaw("tenants", util::jsonArray(rows));
  if ((flags & StatsQuery::kIncludeSpans) != 0 && !spans_.empty()) {
    std::vector<std::string> spans;
    spans.reserve(spans_.size());
    for (const auto& [id, span] : spans_) spans.push_back(obs::spanJson(span));
    root.addRaw("spans", util::jsonArray(spans));
  }
  if ((flags & StatsQuery::kIncludeMetrics) != 0) {
    root.addRaw("metrics", obs::Registry::global().json());
  }
  if ((flags & StatsQuery::kIncludeFlight) != 0) {
    root.addRaw("flight", flight_.json("stats-query"));
  }
  return root.str();
}

std::string Server::statsJson() const {
  return statsJson(StatsQuery::kIncludeMetrics | StatsQuery::kIncludeSpans);
}

std::string Server::statsJson(std::uint32_t flags) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return buildReportLocked(flags);
}

std::vector<std::string> Server::dispatchLog() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queue_.dispatchLog();
}

std::vector<obs::JobSpan> Server::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<obs::JobSpan> out;
  out.reserve(spans_.size());
  for (const auto& [id, span] : spans_) out.push_back(span);
  return out;
}

std::uint64_t Server::spanCount(const std::string& tenant) const {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = span_counts_.find(tenant);
  return it != span_counts_.end() ? it->second : 0;
}

void Server::metricsLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait_for(lock,
                 std::chrono::duration<double>(opts_.metrics_every),
                 [this] { return stopped_; });
    if (stopped_) return;  // waitStopped writes the final snapshot
    sampleGaugesLocked();
    lock.unlock();  // exposition takes only the registry's own lock
    writeMetricsFiles();
    lock.lock();
  }
}

void Server::writeMetricsFiles() const {
  const std::string base = opts_.metrics_dir + "/METRICS_" + opts_.name;
  writeFile(base + ".prom", obs::Registry::global().text());
  writeFile(base + ".json", obs::Registry::global().json());
}

void Server::dumpFlight(const std::string& reason) const {
  if (opts_.flight_dir.empty()) return;
  const std::string path =
      opts_.flight_dir + "/FLIGHT_" + opts_.name + ".json";
  if (flight_.dump(path, reason)) {
    obs::logLine(obs::LogLevel::kInfo, "svc",
                 "flight recorder dumped to " + path + " (" + reason + ")");
  } else {
    obs::logLine(obs::LogLevel::kError, "svc", "cannot write " + path);
  }
}

}  // namespace bfvr::svc
