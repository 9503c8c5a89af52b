// The multi-tenant reachability server: accepts framed-protocol sessions
// on a Unix-domain or TCP endpoint, runs submitted jobs on a warm
// run::WorkerPool, and streams progress back to the owning session.
//
// Jobs: every job lives in one JobTable (jobs.hpp), fed by the same
// apply() live and at journal replay. admitLocked() puts a job into
// service, for a Submit and a replayed job alike; finishLocked() is every
// terminal transition (completion, cancel, drop, replay failure).
//
// Scheduling: submissions pass admission control (per-tenant budget clamps
// and queue caps) into the FairQueue; the server dispatches to the pool
// only when a worker slot is free — at most `workers` jobs are ever
// running in the pool, so the pool's FIFO never reorders the fair queue's
// smooth-WRR schedule.
//
// Eviction/migration: every admitted job checkpoints to a per-job spool
// file; an Evict request cancels the running job cooperatively, and its
// completion handler requeues the job at the front of its tenant's line
// steered AWAY from the worker it ran on, marked to resume from that file
// (run::JobSpec::resume) when it exists, and announces JobEvicted. A job
// replayed from the journal resumes the same way. The resumed run is
// bit-identical to an uninterrupted one (io checkpoint contract).
//
// Locking: mu_ guards all scheduling state and the job table; each
// session's write mutex is strictly inner to mu_ (frames may be sent while
// holding mu_, but mu_ is never taken while holding a write mutex).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.hpp"
#include "obs/report.hpp"
#include "run/run.hpp"
#include "svc/jobs.hpp"
#include "svc/journal.hpp"
#include "svc/protocol.hpp"
#include "svc/queue.hpp"
#include "svc/socket.hpp"
#include "util/stats.hpp"

namespace bfvr::svc {

class Server {
 public:
  struct Options {
    /// "unix:/path/to.sock" or "tcp:host:port".
    std::string endpoint = "unix:bfv_serve.sock";
    /// Worker threads; each keeps its manager warm across jobs
    /// (reset-not-destroy, run::ManagerCache).
    unsigned workers = 4;
    /// Tenant policies; unknown tenants get a default (weight-1) config.
    std::vector<TenantConfig> tenants;
    /// Directory for per-job eviction spool checkpoints.
    std::string spool_dir = ".";
    /// Checkpoint cadence imposed on jobs that do not set their own
    /// (iterations between snapshots; 0 = only jobs that opt in are
    /// evictable-with-resume).
    unsigned checkpoint_every = 1;
    /// Stream per-iteration updates to the owning session. Costs a
    /// live-node census per iteration (same as tracing).
    bool stream_iterations = true;
    /// Write the SVC_<name>.json report here at shutdown ("" = skip).
    std::string report_path;
    /// Server tag in HelloAck and the report.
    std::string name = "bfv_serve";
    /// Seconds between METRICS_<name>.{prom,json} snapshots written to
    /// `metrics_dir` (0 = never; a final snapshot is still written at
    /// shutdown when a cadence was set).
    double metrics_every = 0.0;
    std::string metrics_dir = ".";
    /// Directory for FLIGHT_<name>.json post-mortem dumps, written on job
    /// error, injected worker fault, and shutdown ("" = no dumps; the ring
    /// still records and stays queryable over the stats frame).
    std::string flight_dir;
    /// Finished span timelines retained for stats/report queries;
    /// in-flight spans are always kept. Per-tenant span counts survive
    /// the trim.
    std::size_t span_retain = 4096;
    /// Durability: directory of the append-only job journal ("" = no
    /// journal — crash forgets everything, exactly the pre-journal
    /// behaviour). With a journal, accepted jobs survive kill -9: on the
    /// next start the log is replayed, non-terminal jobs re-enqueue
    /// (resuming from their spool checkpoint when one exists) and a
    /// tenant's duplicate submissions keyed by Submit.idem are answered
    /// from the journal instead of executing twice.
    std::string journal_dir;
    /// When journal appends reach the disk (--fsync grammar).
    FsyncPolicy journal_fsync = FsyncPolicy::kBatch;
    /// Rewrite the journal at clean shutdown keeping only non-terminal
    /// jobs. Tests disable this to inspect the full log.
    bool journal_compact_on_shutdown = true;
    /// Reap sessions that send nothing for this long (seconds; 0 = never).
    double idle_timeout = 0.0;
    /// Cap the time between a frame's first and last byte (seconds;
    /// 0 = unlimited) — a slow-loris client cannot pin a session thread.
    double frame_timeout = 0.0;
    /// Cap how long a send may block on a full client socket (seconds;
    /// 0 = unlimited).
    double send_timeout = 0.0;
  };

  /// Binds and listens on the endpoint (throws svc::Error on failure); the
  /// socket is accepting by the time the constructor returns.
  explicit Server(const Options& opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Start the accept loop (non-blocking).
  void start();
  /// Ask the server to stop: drain (finish queued + running jobs) or
  /// immediate (cancel everything). Also triggered by a Shutdown frame.
  void requestShutdown(bool drain);
  /// Block until fully stopped: queue drained, workers idle, sessions
  /// closed, report written.
  void waitStopped();
  /// start() + waitStopped().
  void run() {
    start();
    waitStopped();
  }

  /// The SVC_<name>.json report, valid at any time: server meta, the
  /// totals across tenants ("jobs_done", "leaked_nodes", ... — the soak
  /// harness greps them, so their keys are part of the contract), the
  /// current queue depth and running count, and a `tenants` array; then
  /// the default sections (metrics + spans).
  std::string statsJson() const;
  /// Same report with an explicit StatsQuery section selection.
  std::string statsJson(std::uint32_t flags) const;
  /// Tenant name per dispatch, in dispatch order (fairness evidence).
  std::vector<std::string> dispatchLog() const;
  /// Aggregated warm-manager stats from the pool.
  run::ManagerCache::Stats warmStats() const noexcept {
    return pool_.warmStats();
  }
  /// Snapshot of the retained span timelines (in-flight + recent finished).
  std::vector<obs::JobSpan> spans() const;
  /// Spans ever opened per tenant (survives span_retain trimming).
  std::uint64_t spanCount(const std::string& tenant) const;
  /// The server's flight recorder (for tests and embedding).
  const obs::FlightRecorder& flight() const noexcept { return flight_; }
  /// The job journal, or nullptr when running without one.
  const Journal* journal() const noexcept { return journal_.get(); }
  /// Jobs re-enqueued from the journal at startup / duplicate submissions
  /// answered from it (test + drill evidence).
  std::uint64_t replayedJobs() const;
  std::uint64_t dedupHits() const;
  /// Sessions closed by the idle reaper.
  std::uint64_t sessionsReaped() const;
  /// Sessions dropped for stalling a started frame past frame_timeout.
  std::uint64_t frameTimeouts() const;

 private:
  struct Session {
    std::uint64_t id = 0;
    std::string tenant;
    Fd fd;
    std::mutex write_mu;
    std::atomic<bool> alive{true};
  };

  /// Per-tenant counters of the serving run: one `tenants` row each, and
  /// summed into the report's totals.
  struct TenantStats {
    std::string name;
    unsigned weight = 1;
    std::uint64_t submitted = 0;  ///< submissions received (admitted or not)
    std::uint64_t rejected = 0;   ///< refused by admission control
    StatusCounts finished;        ///< jobs that reached a terminal status
    std::uint64_t evictions = 0;  ///< suspend-to-checkpoint events
    std::uint64_t resumes = 0;    ///< jobs restarted from a spool snapshot
    double queue_seconds = 0.0;   ///< total time jobs waited for a worker
    double exec_seconds = 0.0;    ///< total execution wall-clock
  };

  /// A job the pool is currently executing.
  struct Running {
    QueuedJob job;  ///< full queued record, for requeue-after-eviction
    std::shared_ptr<run::CancelToken> cancel;
    bool evict_requested = false;  ///< an Evict frame caused the cancel
  };

  void acceptLoop();
  void sessionLoop(std::shared_ptr<Session> s);
  /// Handle one client frame; returns false when the session should end.
  bool handleFrame(const std::shared_ptr<Session>& s, const Frame& f);
  void handleSubmit(const std::shared_ptr<Session>& s, const Frame& f);
  /// The one admission path: parse the line, wire the spool checkpoint,
  /// admit to the fair queue for `session`, open the span. A fresh job
  /// writes `accepted` ahead and applies it; a `replayed` one is already in
  /// the table and resumes from its spool snapshot. Returns the refusal
  /// reason, or nullopt once queued. Caller holds mu_.
  std::optional<std::string> admitLocked(const JournalRecord& accepted,
                                         std::uint64_t session, bool replayed);
  /// The one terminal path: write the `done` record ahead, apply it, count
  /// it, close the span, remove the spool snapshot, send JobDone to
  /// session `owner` (0 = nobody). Caller holds mu_.
  void finishLocked(RunStatus status, JobDone done, const std::string& tenant,
                    const std::string& spool, std::uint64_t owner);
  /// finishLocked() as `cancelled` for a job taken off the queue; its
  /// owner hears JobDone only when `notify`. Caller holds mu_.
  void cancelQueuedLocked(const QueuedJob& job, const char* why, bool notify);
  /// Dispatch queued jobs while worker slots are free. Caller holds mu_.
  void pump();
  /// Worker-thread completion handler for job `id`.
  void onJobDone(std::uint64_t id, const run::JobResult& r);
  /// Send a frame to a session (nullptr: nobody), marking it dead on
  /// failure. Safe to call with or without mu_ held (takes only the
  /// session's write mutex).
  void sendTo(const std::shared_ptr<Session>& s, const Frame& f);
  /// sendTo for frames a client may miss (IterationUpdate): sends only when
  /// the session's socket polls writable, so a client that stopped reading
  /// cannot block the caller on a full buffer. Returns false when it
  /// dropped the frame for that reason.
  bool sendIfWritable(const std::shared_ptr<Session>& s, const Frame& f);
  /// The live session `id`, or nullptr. Caller holds mu_.
  std::shared_ptr<Session> sessionById(std::uint64_t id);
  TenantStats& statsFor(const std::string& tenant);
  std::string spoolPathFor(std::uint64_t job_id) const;
  /// Apply every recovered record, then re-admit the live jobs (retiring
  /// any that cannot be). Runs in the constructor, before any session.
  void replayJournal();
  /// Append to the journal, absorbing write failures into a log line and
  /// a counter (worker threads and frame handlers must not die on a full
  /// disk). Returns false when the record did not reach the journal.
  bool journalAppend(const JournalRecord& rec) noexcept;
  /// Compact the journal down to live jobs and write the
  /// JOURNAL_<name>.json summary. Caller holds mu_.
  void finishJournalLocked();
  std::string buildReportLocked(std::uint32_t flags) const;
  /// Stamp one event on job `id`'s span timeline. Caller holds mu_.
  void spanEventLocked(std::uint64_t id, const char* what,
                       std::string detail = "");
  /// Refresh the sampled gauges (queue depth, running, sessions, warm
  /// cache) from current scheduler state. Caller holds mu_.
  void sampleGaugesLocked() const;
  /// Periodic METRICS_<name>.{prom,json} writer (own thread).
  void metricsLoop();
  void writeMetricsFiles() const;
  /// Dump the flight ring to FLIGHT_<name>.json (no-op without flight_dir).
  void dumpFlight(const std::string& reason) const;

  Options opts_;
  Endpoint endpoint_;
  Fd listener_;
  Timer uptime_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  FairQueue queue_;
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  std::map<std::uint64_t, Running> running_;
  JobTable table_;
  std::uint64_t next_session_ = 1;
  bool draining_ = false;  ///< reject new submissions
  bool shutdown_requested_ = false;
  bool shutdown_drain_ = true;
  bool stopped_ = false;
  std::uint64_t sessions_accepted_ = 0;
  std::uint64_t dispatches_ = 0;
  std::vector<TenantStats> tenant_stats_;

  // Durability state (populated only when opts_.journal_dir is set).
  std::unique_ptr<Journal> journal_;
  std::uint64_t replayed_jobs_ = 0;
  std::uint64_t replayed_resumed_ = 0;
  std::uint64_t replayed_terminal_ = 0;
  std::uint64_t dedup_hits_ = 0;
  std::uint64_t journal_errors_ = 0;
  std::atomic<std::uint64_t> sessions_reaped_{0};
  std::atomic<std::uint64_t> frame_timeouts_{0};

  // Observability state. Spans are keyed by server job id; finished ones
  // are trimmed FIFO to opts_.span_retain while per-tenant counts persist.
  std::uint64_t next_trace_ = 1;
  std::map<std::uint64_t, obs::JobSpan> spans_;
  std::deque<std::uint64_t> finished_spans_;
  std::map<std::string, std::uint64_t> span_counts_;
  obs::FlightRecorder flight_;

  std::thread accept_thread_;
  std::thread metrics_thread_;
  std::vector<std::thread> session_threads_;

  // Declared last so it is destroyed first: its destructor joins the
  // workers, and a worker leaving onJobDone still touches flight_ and cv_
  // after dropping mu_ (waitStopped can return inside that window).
  run::WorkerPool pool_;
};

}  // namespace bfvr::svc
