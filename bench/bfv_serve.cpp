// Reachability-as-a-service daemon: a long-lived multi-tenant job server
// over the framed binary protocol (src/svc). Clients connect with
// bfv_client (or the svc::Client library), submit manifest-format job
// lines, and stream back iteration progress and final results; the server
// schedules across tenants with smooth weighted round-robin under
// per-tenant budgets, keeps each worker's manager warm across jobs
// (reset-not-destroy), and evicts/migrates jobs via checkpoints.
//
//   bfv_serve [--listen SPEC] [--workers N] [--tenants FILE] [--spool DIR]
//             [--checkpoint-every K] [--no-stream]
//             [--report[=path]] [--name TAG] [--metrics-every S]
//             [--metrics-dir DIR] [--flight[=DIR]] [--log-level LEVEL]
//             [--journal DIR] [--fsync POLICY] [--no-compact]
//             [--idle-timeout S] [--frame-timeout S] [--send-timeout S]
//
//   --listen SPEC        unix:PATH (default unix:bfv_serve.sock) or
//                        tcp:HOST:PORT
//   --workers N          worker pool size (default 4)
//   --tenants FILE       tenant policy file, one
//                        name:weight[:max_running[:max_queued[:max_nodes
//                        [:max_seconds]]]] per line
//   --spool DIR          directory for eviction checkpoints (default .)
//   --checkpoint-every K snapshot cadence imposed on jobs for evictability
//                        (default 1; 0 = only jobs that opt in)
//   --no-stream          do not stream per-iteration updates
//   --report[=path]      write SVC_<name>.json at shutdown
//   --name TAG           server tag (default bfv_serve)
//   --metrics-every S    write METRICS_<name>.{prom,json} every S seconds
//                        (0 = never; a final snapshot lands at shutdown)
//   --metrics-dir DIR    where the metrics snapshots go (default .)
//   --flight[=DIR]       dump FLIGHT_<name>.json to DIR (default .) on job
//                        error, injected worker fault, and shutdown
//   --log-level LEVEL    stderr verbosity: error (default), info, debug
//   --journal DIR        durable job journal: accepted jobs survive kill -9
//                        and replay (with checkpoint resume) on restart
//   --fsync POLICY       journal durability: never|batch|always
//                        (default batch)
//   --no-compact         keep the full journal at clean shutdown (no
//                        compaction rewrite) — drill/debug aid
//   --idle-timeout S     reap sessions silent for S seconds (0 = never)
//   --frame-timeout S    cap seconds between a frame's first and last byte
//                        (0 = unlimited) — slow-loris defence
//   --send-timeout S     cap seconds a send may block on a full client
//                        socket (0 = unlimited)
//
// Runs until a client sends Shutdown (bfv_client --shutdown), SIGTERM or
// SIGINT arrives (first signal drains — finish queued + running jobs, stop
// accepting; a second signal escalates to immediate cancel), exiting 0 on
// a clean stop and 1 on a startup failure.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "obs/log.hpp"
#include "run/manifest.hpp"
#include "svc/server.hpp"

using namespace bfvr;

namespace {

struct Args {
  svc::Server::Options opts;
  bool ok = true;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  a.opts.endpoint = "unix:bfv_serve.sock";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        a.ok = false;
        return "";
      }
      return argv[++i];
    };
    try {
      if (arg == "--listen") {
        a.opts.endpoint = value("--listen");
      } else if (arg == "--workers") {
        a.opts.workers = run::parseU32(value("--workers"));
      } else if (arg == "--tenants") {
        a.opts.tenants = svc::parseTenantsFile(value("--tenants"));
      } else if (arg == "--spool") {
        a.opts.spool_dir = value("--spool");
      } else if (arg == "--checkpoint-every") {
        a.opts.checkpoint_every = run::parseU32(value("--checkpoint-every"));
      } else if (arg == "--no-stream") {
        a.opts.stream_iterations = false;
      } else if (arg == "--report") {
        a.opts.report_path = "<default>";
      } else if (arg.rfind("--report=", 0) == 0) {
        a.opts.report_path = arg.substr(9);
      } else if (arg == "--name") {
        a.opts.name = value("--name");
      } else if (arg == "--metrics-every") {
        a.opts.metrics_every = run::parseF64(value("--metrics-every"));
      } else if (arg == "--metrics-dir") {
        a.opts.metrics_dir = value("--metrics-dir");
      } else if (arg == "--flight") {
        a.opts.flight_dir = ".";
      } else if (arg.rfind("--flight=", 0) == 0) {
        a.opts.flight_dir = arg.substr(9);
      } else if (arg == "--journal") {
        a.opts.journal_dir = value("--journal");
      } else if (arg == "--fsync") {
        a.opts.journal_fsync = svc::parseFsyncPolicy(value("--fsync"));
      } else if (arg == "--no-compact") {
        a.opts.journal_compact_on_shutdown = false;
      } else if (arg == "--idle-timeout") {
        a.opts.idle_timeout = run::parseF64(value("--idle-timeout"));
      } else if (arg == "--frame-timeout") {
        a.opts.frame_timeout = run::parseF64(value("--frame-timeout"));
      } else if (arg == "--send-timeout") {
        a.opts.send_timeout = run::parseF64(value("--send-timeout"));
      } else if (arg == "--log-level") {
        const std::string level = value("--log-level");
        obs::LogLevel parsed;
        if (!obs::parseLogLevel(level, &parsed)) {
          std::fprintf(stderr, "--log-level: expected error|info|debug, got %s\n",
                       level.c_str());
          a.ok = false;
        } else {
          obs::setLogLevel(parsed);
        }
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
        a.ok = false;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", arg.c_str(), e.what());
      a.ok = false;
    }
    if (!a.ok) break;
  }
  if (a.opts.report_path == "<default>") {
    a.opts.report_path = "SVC_" + a.opts.name + ".json";
  }
  return a;
}

// SIGTERM/SIGINT → graceful drain, via the self-pipe trick: the handler
// only write()s one byte (async-signal-safe); a dedicated thread turns the
// bytes into requestShutdown calls. The first signal drains, a second
// escalates to immediate cancel (requestShutdown(drain=false) on a drain
// in progress escalates it).
int g_signal_pipe[2] = {-1, -1};

extern "C" void onShutdownSignal(int) {
  const char b = 1;
  [[maybe_unused]] const auto n = ::write(g_signal_pipe[1], &b, 1);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  if (!args.ok) {
    std::fprintf(stderr,
                 "usage: %s [--listen unix:PATH|tcp:HOST:PORT] [--workers N] "
                 "[--tenants FILE] [--spool DIR] [--checkpoint-every K] "
                 "[--no-stream] [--report[=path]] [--name TAG] "
                 "[--metrics-every S] [--metrics-dir DIR] [--flight[=DIR]] "
                 "[--log-level error|info|debug] [--journal DIR] "
                 "[--fsync never|batch|always] [--no-compact] "
                 "[--idle-timeout S] [--frame-timeout S] [--send-timeout S]\n",
                 argv[0]);
    return 1;
  }
  svc::ignoreSigpipe();
  if (::pipe(g_signal_pipe) != 0) {
    std::perror("bfv_serve: pipe");
    return 1;
  }
  try {
    svc::Server server(args.opts);
    std::signal(SIGTERM, onShutdownSignal);
    std::signal(SIGINT, onShutdownSignal);
    std::thread signal_thread([&server] {
      int signals_seen = 0;
      char b = 0;
      while (::read(g_signal_pipe[0], &b, 1) == 1) {
        if (b == 0) return;  // quit sentinel from main
        ++signals_seen;
        // First signal: drain (finish queued + running, stop accepting).
        // Second: escalate to immediate cancel.
        server.requestShutdown(signals_seen < 2);
      }
    });
    std::printf("%s listening on %s (%u workers, %zu tenants)\n",
                args.opts.name.c_str(), args.opts.endpoint.c_str(),
                args.opts.workers, args.opts.tenants.size());
    std::fflush(stdout);
    server.run();
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    const char quit = 0;
    [[maybe_unused]] const auto n = ::write(g_signal_pipe[1], &quit, 1);
    signal_thread.join();
    std::printf("%s stopped\n", args.opts.name.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bfv_serve: %s\n", e.what());
    return 1;
  }
}
