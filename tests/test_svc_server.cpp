// End-to-end service tests (src/svc/server + client) over a real
// Unix-domain socket: handshake, submission and completion, admission
// rejections that name the offending manifest key, queued-job cancellation,
// eviction-via-checkpoint with bit-identical resume on a different worker,
// protocol abuse (garbage bytes, abrupt disconnects) leaving the server
// healthy, stats, and clean shutdown with zero leaked nodes.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "run/run.hpp"
#include "support/process_dir.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"

namespace bfvr::svc {
namespace {

/// Unique-per-process socket path, short enough for sun_path.
std::string sockPath(const char* tag) {
  return "/tmp/bfvr_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// bfvr_svc_jobs_finished_total for `tenant` (the registry is global, so
/// tests compare differences).
std::uint64_t jobsFinished(const std::string& tenant) {
  return obs::Registry::global()
      .counter("bfvr_svc_jobs_finished_total",
               obs::metricLabel("tenant", tenant))
      .value();
}

/// bfvr_svc_iteration_updates_dropped_total for `tenant`.
std::uint64_t updatesDropped(const std::string& tenant) {
  return obs::Registry::global()
      .counter("bfvr_svc_iteration_updates_dropped_total",
               obs::metricLabel("tenant", tenant))
      .value();
}

/// The retained span of job `id` (a default span when there is none).
obs::JobSpan spanOf(const Server& server, std::uint64_t id) {
  for (const obs::JobSpan& span : server.spans()) {
    if (span.job == id) return span;
  }
  return obs::JobSpan{};
}

Server::Options baseOptions(const std::string& sock) {
  Server::Options o;
  o.endpoint = "unix:" + sock;
  o.workers = 2;
  o.tenants = parseTenantsString("alpha:3\nbravo:2\ncarol:1\n");
  o.spool_dir = test::processDir();
  o.checkpoint_every = 1;
  o.name = "svc-test";
  return o;
}

TEST(SvcServer, HandshakeSubmitAndComplete) {
  const std::string sock = sockPath("basic");
  Server server(baseOptions(sock));
  server.start();
  {
    Client client("unix:" + sock, "alpha");
    EXPECT_EQ(client.serverName(), "svc-test");
    EXPECT_GT(client.session(), 0u);
    const std::uint64_t tag =
        client.submit("circuit=gen:counter:4:10 engine=bfv");
    std::optional<std::uint64_t> job = client.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    const JobDone done = client.awaitDone(*job);
    EXPECT_EQ(done.status, "done");
    EXPECT_DOUBLE_EQ(done.states, 10.0);  // mod-10 counter: 10 states
    EXPECT_GT(done.iterations, 0u);
    client.bye();
  }
  server.requestShutdown(true);
  server.waitStopped();
  EXPECT_EQ(server.warmStats().leaked_nodes, 0u);
  EXPECT_EQ(server.warmStats().resets_failed, 0u);
}

TEST(SvcServer, IterationUpdatesStream) {
  const std::string sock = sockPath("stream");
  Server server(baseOptions(sock));
  server.start();
  {
    Client client("unix:" + sock, "alpha");
    const std::uint64_t tag = client.submit("circuit=gen:counter:6:40");
    std::optional<std::uint64_t> job = client.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    unsigned updates = 0;
    std::uint64_t last_iteration = 0;
    for (;;) {
      std::optional<Event> ev = client.next();
      ASSERT_TRUE(ev.has_value());
      if (const auto* u = std::get_if<IterationUpdate>(&*ev)) {
        EXPECT_EQ(u->job, *job);
        EXPECT_GT(u->iteration, last_iteration);
        last_iteration = u->iteration;
        ++updates;
      } else if (const auto* d = std::get_if<JobDone>(&*ev)) {
        EXPECT_EQ(d->status, "done");
        break;
      }
    }
    // A mod-40 counter takes 40 frontier iterations; every one streams.
    EXPECT_GE(updates, 40u);
    client.bye();
  }
  server.requestShutdown(true);
  server.waitStopped();
}

TEST(SvcServer, StalledClientDoesNotStallTheEngine) {
  // A client that stops reading must not pin the worker streaming its
  // updates: the job still hits its deadline, another session's job still
  // runs, and the stalled client gets its JobDone once it reads again. A
  // blocking update send pins the worker once the socket buffer fills, so
  // every wait here is bounded (and ctest adds a timeout of its own).
  const std::string sock = sockPath("stall");
  Server::Options opts = baseOptions(sock);
  opts.checkpoint_every = 0;  // thousands of iterations a second
  Server server(opts);
  server.start();
  constexpr double kDeadline = 5.0;
  constexpr double kSlack = 5.0;
  const std::uint64_t dropped_before = updatesDropped("alpha");
  {
    Client stalled("unix:" + sock, "alpha");
    const std::uint64_t tag = stalled.submit(
        "circuit=gen:counter:24:16777216 engine=bfv deadline=5");
    const std::optional<std::uint64_t> job = stalled.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    for (unsigned updates = 0; updates < 2;) {
      const std::optional<Event> ev = stalled.next();
      ASSERT_TRUE(ev.has_value());
      if (std::holds_alternative<IterationUpdate>(*ev)) ++updates;
    }
    // `stalled` reads nothing from here on.
    {
      Client other("unix:" + sock, "bravo");
      const std::optional<std::uint64_t> quick =
          other.awaitAdmission(other.submit("circuit=gen:counter:4:10"));
      ASSERT_TRUE(quick.has_value());
      EXPECT_EQ(other.awaitDone(*quick).status, "done");
      other.bye();
    }
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::duration<double>(kDeadline + kSlack);
    while (spanOf(server, *job).status.empty() &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_EQ(spanOf(server, *job).status, "T.O.")
        << "the job did not end while its client was not reading";
    EXPECT_GT(updatesDropped("alpha"), dropped_before);

    for (;;) {
      const std::optional<Event> ev = stalled.next(kDeadline + kSlack);
      ASSERT_TRUE(ev.has_value()) << "no JobDone after reading again";
      if (const auto* d = std::get_if<JobDone>(&*ev)) {
        EXPECT_EQ(d->job, *job);
        EXPECT_EQ(d->status, "T.O.");
        EXPECT_LT(d->seconds, kDeadline + kSlack);
        break;
      }
    }
    stalled.bye();
  }
  server.requestShutdown(true);
  server.waitStopped();
}

TEST(SvcServer, RejectionsNameTheOffendingKey) {
  const std::string sock = sockPath("reject");
  Server server(baseOptions(sock));
  server.start();
  {
    Client client("unix:" + sock, "alpha");
    std::string reason;
    // Bad value: the reject must name the key and the bad value.
    std::uint64_t tag = client.submit("circuit=gen:counter:4:10 nodes=abc");
    EXPECT_FALSE(client.awaitAdmission(tag, &reason).has_value());
    EXPECT_NE(reason.find("key 'nodes'"), std::string::npos);
    EXPECT_NE(reason.find("'abc'"), std::string::npos);
    // Unknown key.
    tag = client.submit("circuit=gen:counter:4:10 frobnicate=1");
    EXPECT_FALSE(client.awaitAdmission(tag, &reason).has_value());
    EXPECT_NE(reason.find("unknown key 'frobnicate'"), std::string::npos);
    // Not a job line at all.
    tag = client.submit("this is not key=value");
    EXPECT_FALSE(client.awaitAdmission(tag, &reason).has_value());
    // The session survives rejections: a good job still runs.
    tag = client.submit("circuit=gen:counter:3:4");
    std::optional<std::uint64_t> job = client.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(client.awaitDone(*job).status, "done");
    client.bye();
  }
  server.requestShutdown(true);
  server.waitStopped();
}

TEST(SvcServer, CancelQueuedJob) {
  const std::string sock = sockPath("cancel");
  Server::Options opts = baseOptions(sock);
  opts.workers = 1;  // one worker: the second submission must queue
  opts.stream_iterations = false;
  Server server(opts);
  server.start();
  const std::uint64_t finished_before = jobsFinished("alpha");
  {
    Client client("unix:" + sock, "alpha");
    // Plug the single worker with a job far too big to finish before the
    // cancels below land.
    const std::uint64_t plug_tag =
        client.submit("circuit=gen:counter:20:1000000 deadline=10");
    std::optional<std::uint64_t> plug = client.awaitAdmission(plug_tag);
    ASSERT_TRUE(plug.has_value());
    const std::uint64_t tag = client.submit("circuit=gen:counter:4:10");
    std::optional<std::uint64_t> queued = client.awaitAdmission(tag);
    ASSERT_TRUE(queued.has_value());
    client.cancel(*queued);
    const JobDone done = client.awaitDone(*queued);
    EXPECT_EQ(done.status, "cancelled");
    EXPECT_NE(done.message.find("queued"), std::string::npos);
    // The cancelled job's span is closed like any finished one: terminal
    // status, a closing "done" stamp, and no worker (it never ran).
    const obs::JobSpan span = spanOf(server, *queued);
    EXPECT_EQ(span.status, "cancelled");
    ASSERT_FALSE(span.events.empty());
    EXPECT_EQ(span.events.back().what, "done");
    EXPECT_TRUE(span.workers.empty());
    client.cancel(*plug);  // running-job cancel: via the interrupt hook
    EXPECT_EQ(client.awaitDone(*plug).status, "cancelled");
    client.bye();
  }
  // Both cancels count as finished jobs.
  EXPECT_EQ(jobsFinished("alpha") - finished_before, 2u);
  server.requestShutdown(true);
  server.waitStopped();
}

TEST(SvcServer, QueuedJobsDroppedWithTheirSessionFinishCancelled) {
  const std::string sock = sockPath("dropq");
  Server::Options opts = baseOptions(sock);
  opts.workers = 1;  // one worker: the second submission must queue
  opts.stream_iterations = false;
  Server server(opts);
  server.start();
  const std::uint64_t finished_before = jobsFinished("bravo");
  std::uint64_t queued_id = 0;
  {
    Client client("unix:" + sock, "bravo");
    const std::uint64_t plug_tag =
        client.submit("circuit=gen:counter:20:1000000 deadline=10");
    ASSERT_TRUE(client.awaitAdmission(plug_tag).has_value());
    const std::uint64_t tag = client.submit("circuit=gen:counter:4:10");
    std::optional<std::uint64_t> queued = client.awaitAdmission(tag);
    ASSERT_TRUE(queued.has_value());
    queued_id = *queued;
    // Drop the connection: without a journal the queued job goes with it.
  }
  for (int i = 0; i < 500 && spanOf(server, queued_id).status.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const obs::JobSpan span = spanOf(server, queued_id);
  EXPECT_EQ(span.status, "cancelled");
  ASSERT_FALSE(span.events.empty());
  EXPECT_EQ(span.events.back().what, "done");
  server.requestShutdown(true);
  server.waitStopped();
  // The queued job and the cancelled plug both finished.
  EXPECT_EQ(jobsFinished("bravo") - finished_before, 2u);
}

TEST(SvcServer, EvictionMigratesAndResumesBitIdentical) {
  // Reference: the same job uninterrupted. Big enough (4000 frontier
  // iterations) that the evict below always lands mid-run.
  run::JobSpec ref;
  ref.circuit = "gen:counter:12:4000";
  const run::JobResult ref_result = run::executeJob(ref);
  ASSERT_EQ(ref_result.status, RunStatus::kDone);

  const std::string sock = sockPath("evict");
  Server server(baseOptions(sock));  // 2 workers: migration has a target
  server.start();
  {
    Client client("unix:" + sock, "alpha");
    const std::uint64_t tag = client.submit("circuit=gen:counter:12:4000");
    std::optional<std::uint64_t> job = client.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    bool evict_sent = false, evicted_seen = false;
    std::uint32_t evicted_from = 0;
    JobDone done;
    for (;;) {
      std::optional<Event> ev = client.next();
      ASSERT_TRUE(ev.has_value());
      if (const auto* u = std::get_if<IterationUpdate>(&*ev)) {
        // Evict once the first spool snapshot surely exists
        // (checkpoint_every=1, so any iteration >= 2 works).
        if (!evict_sent && u->iteration >= 5) {
          client.evict(*job);
          evict_sent = true;
        }
      } else if (const auto* e = std::get_if<JobEvicted>(&*ev)) {
        evicted_seen = true;
        evicted_from = e->worker;
        EXPECT_GE(e->iteration, 5u);
      } else if (const auto* d = std::get_if<JobDone>(&*ev)) {
        done = *d;
        break;
      }
    }
    ASSERT_TRUE(evict_sent) << "job finished before the evict could land";
    ASSERT_TRUE(evicted_seen);
    EXPECT_TRUE(done.resumed);
    EXPECT_EQ(done.evictions, 1u);
    // Migration: the resume ran on the other worker.
    EXPECT_NE(done.worker, evicted_from);
    // Bit-identical continuation: same fixpoint, same iteration count.
    EXPECT_EQ(done.status, "done");
    EXPECT_DOUBLE_EQ(done.states, ref_result.reach.states);
    EXPECT_EQ(done.iterations, ref_result.reach.iterations);
    client.bye();
  }
  server.requestShutdown(true);
  server.waitStopped();
  EXPECT_EQ(server.warmStats().leaked_nodes, 0u);
}

TEST(SvcServer, GarbageBytesGetWireErrorNotACrash) {
  const std::string sock = sockPath("garbage");
  Server server(baseOptions(sock));
  server.start();
  {
    // A raw connection spewing junk: the server must answer with a kError
    // frame (best-effort) and close only that session.
    Fd raw = connectTo(Endpoint::parse("unix:" + sock));
    std::vector<std::uint8_t> junk(128, 0x5A);
    ASSERT_EQ(::send(raw.get(), junk.data(), junk.size(), 0),
              static_cast<ssize_t>(junk.size()));
    std::optional<Frame> reply = recvFrame(raw);
    if (reply.has_value()) {  // reply can race the close; EOF is also fine
      EXPECT_EQ(reply->type, FrameType::kError);
    }
  }
  {
    // An abrupt mid-frame disconnect: header promises more than arrives.
    Fd raw = connectTo(Endpoint::parse("unix:" + sock));
    Submit s;
    s.tag = 1;
    s.line = "circuit=gen:counter:4:10";
    const std::vector<std::uint8_t> bytes = encodeFrame(encode(s));
    ASSERT_GT(bytes.size(), 10u);
    ASSERT_EQ(::send(raw.get(), bytes.data(), 10, 0), 10);
    raw.close();
  }
  // The server is still fully functional for a well-behaved client.
  {
    Client client("unix:" + sock, "bravo");
    const std::uint64_t tag = client.submit("circuit=gen:counter:3:4");
    std::optional<std::uint64_t> job = client.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(client.awaitDone(*job).status, "done");
    client.bye();
  }
  server.requestShutdown(true);
  server.waitStopped();
  EXPECT_EQ(server.warmStats().leaked_nodes, 0u);
}

TEST(SvcServer, DisconnectMidJobCancelsAndServerSurvives) {
  const std::string sock = sockPath("discon");
  Server server(baseOptions(sock));
  server.start();
  {
    Client client("unix:" + sock, "alpha");
    const std::uint64_t tag =
        client.submit("circuit=gen:counter:20:1000000 deadline=10");
    std::optional<std::uint64_t> job = client.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    // Drop the connection with the job still running — no Bye, no Cancel.
  }
  // The orphaned job is cancelled server-side; a new client gets service
  // immediately (both workers free once the cancel lands).
  {
    Client client("unix:" + sock, "bravo");
    const std::uint64_t tag = client.submit("circuit=gen:counter:4:10");
    std::optional<std::uint64_t> job = client.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(client.awaitDone(*job).status, "done");
    client.bye();
  }
  server.requestShutdown(true);
  server.waitStopped();
  EXPECT_EQ(server.warmStats().leaked_nodes, 0u);
}

TEST(SvcServer, StatsReportOverTheWire) {
  const std::string sock = sockPath("stats");
  Server server(baseOptions(sock));
  server.start();
  {
    Client client("unix:" + sock, "carol");
    const std::uint64_t tag = client.submit("circuit=gen:counter:3:4");
    std::optional<std::uint64_t> job = client.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    (void)client.awaitDone(*job);
    client.queryStats(StatsQuery::kAllSections);
    for (;;) {
      std::optional<Event> ev = client.next();
      ASSERT_TRUE(ev.has_value());
      if (const auto* reply = std::get_if<StatsReply>(&*ev)) {
        EXPECT_NE(reply->json.find("\"jobs_done\": 1"), std::string::npos);
        EXPECT_NE(reply->json.find("\"server\": \"svc-test\""),
                  std::string::npos);
        EXPECT_NE(reply->json.find("\"tenant\": \"carol\""),
                  std::string::npos);
        // Live scheduler state.
        EXPECT_NE(reply->json.find("\"queue_depth\": 0"), std::string::npos);
        EXPECT_NE(reply->json.find("\"running\": 0"), std::string::npos);
        // The embedded metrics document carries per-tenant counters and the
        // three serving-latency histograms, all live by now.
        EXPECT_NE(
            reply->json.find("bfvr_svc_admitted_total{tenant=\\\"carol\\\"}"),
            std::string::npos);
        for (const char* h :
             {"bfvr_pool_queue_wait_seconds", "bfvr_pool_exec_seconds",
              "bfvr_svc_dispatch_seconds"}) {
          EXPECT_NE(reply->json.find(h), std::string::npos) << h;
        }
        // The span timeline of the finished job, with its lifecycle steps.
        for (const char* step : {"\"received\"", "\"admitted\"", "\"queued\"",
                                 "\"dispatched\"", "\"done\""}) {
          EXPECT_NE(reply->json.find(step), std::string::npos) << step;
        }
        // The flight section arrives when asked for.
        EXPECT_NE(reply->json.find("\"flight\""), std::string::npos);
        EXPECT_NE(reply->json.find("stats-query"), std::string::npos);
        break;
      }
    }
    client.bye();
  }
  server.requestShutdown(true);
  server.waitStopped();
}

TEST(SvcServer, AcceptedTraceIdMatchesTheSpan) {
  const std::string sock = sockPath("trace");
  Server server(baseOptions(sock));
  server.start();
  std::uint64_t trace = 0, job_id = 0;
  {
    Client client("unix:" + sock, "alpha");
    const std::uint64_t tag = client.submit("circuit=gen:counter:3:4");
    for (;;) {
      std::optional<Event> ev = client.next();
      ASSERT_TRUE(ev.has_value());
      if (const auto* acc = std::get_if<Accepted>(&*ev)) {
        EXPECT_EQ(acc->tag, tag);
        trace = acc->trace;
        job_id = acc->job;
        break;
      }
    }
    EXPECT_GT(trace, 0u);
    (void)client.awaitDone(job_id);
    client.bye();
  }
  // The span the server retained carries the same trace id and a worker.
  bool found = false;
  for (const obs::JobSpan& span : server.spans()) {
    if (span.job != job_id) continue;
    found = true;
    EXPECT_EQ(span.trace_id, trace);
    EXPECT_EQ(span.tenant, "alpha");
    EXPECT_EQ(span.status, "done");
    ASSERT_EQ(span.workers.size(), 1u);
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(server.spanCount("alpha"), 1u);
  server.requestShutdown(true);
  server.waitStopped();
}

TEST(SvcServer, StatsSectionsAreSelectable) {
  const std::string sock = sockPath("sections");
  Server server(baseOptions(sock));
  server.start();
  // No sections: counters only, no metrics/spans/flight keys.
  const std::string lean = server.statsJson(0);
  EXPECT_EQ(lean.find("\"metrics\""), std::string::npos);
  EXPECT_EQ(lean.find("\"spans\""), std::string::npos);
  EXPECT_EQ(lean.find("\"flight\""), std::string::npos);
  EXPECT_NE(lean.find("\"queue_depth\""), std::string::npos);
  // Each flag brings exactly its own section.
  const std::string with_flight = server.statsJson(StatsQuery::kIncludeFlight);
  EXPECT_NE(with_flight.find("\"flight\""), std::string::npos);
  EXPECT_EQ(with_flight.find("\"metrics\""), std::string::npos);
  server.requestShutdown(true);
  server.waitStopped();
}

TEST(SvcServer, ShutdownViaProtocolDrains) {
  const std::string sock = sockPath("shut");
  Server server(baseOptions(sock));
  server.start();
  std::uint64_t job_id = 0;
  {
    Client client("unix:" + sock, "alpha");
    const std::uint64_t tag = client.submit("circuit=gen:counter:5:20");
    std::optional<std::uint64_t> job = client.awaitAdmission(tag);
    ASSERT_TRUE(job.has_value());
    job_id = *job;
    client.shutdownServer(true);  // drain: the in-flight job still finishes
    EXPECT_EQ(client.awaitDone(job_id).status, "done");
    client.bye();
  }
  server.waitStopped();
  EXPECT_EQ(server.warmStats().leaked_nodes, 0u);
  EXPECT_EQ(server.warmStats().resets_failed, 0u);
}

}  // namespace
}  // namespace bfvr::svc
