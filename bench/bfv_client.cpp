// Client CLI of the reachability service: push a manifest of jobs to a
// running bfv_serve as one tenant, stream results, and print the same
// per-job table and status roll-up as the batch runner.
//
//   bfv_client --connect SPEC --tenant NAME [manifest]
//              [--window N] [--stats] [--shutdown[=drain|now]] [--quiet]
//              [--strict] [--deadline S] [--retry N] [--idem PREFIX]
//
//   --connect SPEC    unix:PATH or tcp:HOST:PORT (required)
//   --tenant NAME     tenant to submit as (required)
//   manifest          manifest file of jobs to submit (omit with --stats /
//                     --shutdown for control-only invocations)
//   --window N        max submissions awaiting admission at once
//                     (default 8; bounds client-side memory, exercises the
//                     server's fair queue rather than its accept path)
//   --stats           fetch and print the live server snapshot (counters,
//                     queue depth, metrics, span timelines, flight ring)
//   --shutdown[=drain|now]  ask the server to stop (default drain)
//   --quiet           suppress per-job rows (roll-up still prints)
//   --strict          exit 1 also on memout/timeout jobs
//   --deadline S      overall wall-clock budget in seconds; exit 3 when it
//                     expires before every job finished
//   --retry N         survive up to N broken connections: reconnect with
//                     backoff and resubmit every unfinished line under its
//                     original idempotency key, so a journaling server
//                     reattaches the in-flight jobs instead of rerunning
//                     them (duplicate Accepted/JobDone frames are absorbed)
//   --idem PREFIX     idempotency-key prefix; per-line keys are
//                     PREFIX-<index>. Defaults to a fresh value per
//                     invocation (tenant-pid-nanos), so retries within one
//                     run dedup but separate runs do not. Pass an explicit
//                     PREFIX to make resubmission safe across client
//                     restarts too.
//
// Exit status: 0 when no job erred and none was rejected (with --strict,
// also none ran out of nodes or time or was cancelled; an inconclusive job
// fails neither); 1 otherwise, or on any connection/protocol failure; 2 on
// a usage error; 3 when --deadline expired.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "run/manifest.hpp"
#include "svc/client.hpp"
#include "util/stats.hpp"

using namespace bfvr;

namespace {

struct Args {
  std::string connect;
  std::string tenant;
  std::string manifest;
  unsigned window = 8;
  bool stats = false;
  bool do_shutdown = false;
  bool drain = true;
  bool quiet = false;
  bool strict = false;
  double deadline = 0.0;  ///< 0 = no deadline
  unsigned retry = 0;     ///< reconnect attempts after a broken connection
  std::string idem_prefix;
};

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Numbers go through the manifest's strict parsers.
    try {
      if (arg == "--connect" && i + 1 < argc) {
        a.connect = argv[++i];
      } else if (arg == "--tenant" && i + 1 < argc) {
        a.tenant = argv[++i];
      } else if (arg == "--window" && i + 1 < argc) {
        a.window = run::parseU32(argv[++i]);
      } else if (arg == "--deadline" && i + 1 < argc) {
        a.deadline = run::parseF64(argv[++i]);
      } else if (arg == "--retry" && i + 1 < argc) {
        a.retry = run::parseU32(argv[++i]);
      } else if (arg == "--idem" && i + 1 < argc) {
        a.idem_prefix = argv[++i];
      } else if (arg == "--stats") {
        a.stats = true;
      } else if (arg == "--shutdown" || arg == "--shutdown=drain") {
        a.do_shutdown = true;
      } else if (arg == "--shutdown=now") {
        a.do_shutdown = true;
        a.drain = false;
      } else if (arg == "--quiet") {
        a.quiet = true;
      } else if (arg == "--strict") {
        a.strict = true;
      } else if (!arg.empty() && arg[0] != '-' && a.manifest.empty()) {
        a.manifest = arg;
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
        return false;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", arg.c_str(), e.what());
      return false;
    }
  }
  if (a.connect.empty() || a.tenant.empty()) return false;
  return !a.manifest.empty() || a.stats || a.do_shutdown;
}

/// Raw manifest lines (comments/blanks stripped) — submitted verbatim, so
/// the server's parser is the one source of truth for the grammar.
std::vector<std::string> manifestLines(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) throw std::runtime_error("cannot open " + path);
  std::vector<std::string> out;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, f) != nullptr) {
    std::string line(buf);
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r' ||
                             line.back() == ' ' || line.back() == '\t')) {
      line.pop_back();
    }
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    out.push_back(std::move(line));
  }
  std::fclose(f);
  return out;
}

/// Everything the client remembers about one manifest line, surviving
/// reconnects (per-connection submission state lives elsewhere).
struct LineState {
  std::string line;
  std::string idem;
  bool finished = false;  ///< JobDone or Rejected seen
  bool rejected = false;
  svc::JobDone done;
};

/// Thrown when --deadline expires.
struct DeadlineExpired {};

using Clock = std::chrono::steady_clock;

class BatchRunner {
 public:
  BatchRunner(const Args& args, std::vector<LineState> lines,
              Clock::time_point deadline_at)
      : args_(args), lines_(std::move(lines)), deadline_at_(deadline_at) {}

  /// Run the whole batch over the supplied (fresh) connection. Throws
  /// svc::Error on a broken connection (the caller may reconnect and call
  /// again: finished lines are kept, unfinished ones resubmitted under
  /// their original idempotency keys) and DeadlineExpired on --deadline.
  void run(svc::Client& client) {
    // Per-connection state: what is in flight on *this* connection.
    std::map<std::uint64_t, std::size_t> pending;  // tag -> line index
    std::map<std::uint64_t, std::size_t> by_job;   // job id -> line index
    std::vector<bool> submitted(lines_.size(), false);
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      if (lines_[i].finished) submitted[i] = true;  // nothing to do
    }
    std::size_t next_submit = 0;
    const auto unfinished = [&] {
      std::size_t n = 0;
      for (const LineState& l : lines_) n += l.finished ? 0 : 1;
      return n;
    };
    while (unfinished() > 0) {
      // Keep up to `window` submissions awaiting admission.
      while (pending.size() < args_.window) {
        while (next_submit < lines_.size() && submitted[next_submit]) {
          ++next_submit;
        }
        if (next_submit >= lines_.size()) break;
        const std::size_t idx = next_submit;
        pending[client.submit(lines_[idx].line, lines_[idx].idem)] = idx;
        submitted[idx] = true;
        ++next_submit;
      }
      std::optional<svc::Event> ev = client.next(remainingSeconds());
      if (!ev.has_value()) {
        throw svc::Error("server closed the connection mid-batch");
      }
      handle(*ev, pending, by_job);
    }
  }

  /// Seconds left on --deadline (0 = none set ⇒ block forever); throws
  /// when already expired.
  double remainingSeconds() const {
    if (args_.deadline <= 0.0) return 0.0;
    const double left =
        std::chrono::duration<double>(deadline_at_ - Clock::now()).count();
    if (left <= 0.0) throw DeadlineExpired{};
    return left;
  }

  const std::vector<LineState>& lines() const noexcept { return lines_; }
  std::size_t evictions() const noexcept { return evictions_; }

 private:
  void handle(const svc::Event& ev,
              std::map<std::uint64_t, std::size_t>& pending,
              std::map<std::uint64_t, std::size_t>& by_job) {
    if (const auto* acc = std::get_if<svc::Accepted>(&ev)) {
      // A duplicated Submit frame (chaos proxy) can produce an Accepted
      // whose tag we never issued, or a second Accepted for a tag already
      // consumed: both are ignored, so counters never double.
      auto it = pending.find(acc->tag);
      if (it == pending.end()) return;
      by_job[acc->job] = it->second;
      pending.erase(it);
    } else if (const auto* rej = std::get_if<svc::Rejected>(&ev)) {
      auto it = pending.find(rej->tag);
      if (it == pending.end()) return;
      LineState& l = lines_[it->second];
      std::fprintf(stderr, "rejected: %s (%s)\n", l.line.c_str(),
                   rej->reason.c_str());
      l.finished = true;
      l.rejected = true;
      pending.erase(it);
    } else if (const auto* evd = std::get_if<svc::JobEvicted>(&ev)) {
      ++evictions_;
      if (!args_.quiet) {
        std::printf("job %llu evicted from w%u at iteration %llu\n",
                    static_cast<unsigned long long>(evd->job), evd->worker,
                    static_cast<unsigned long long>(evd->iteration));
      }
    } else if (const auto* jd = std::get_if<svc::JobDone>(&ev)) {
      auto it = by_job.find(jd->job);
      if (it == by_job.end() || lines_[it->second].finished) return;
      LineState& l = lines_[it->second];
      l.finished = true;
      l.done = *jd;
      if (!args_.quiet) {
        std::printf("%-40s %-9s %8.3fs %6llu iters  w%u%s%s\n",
                    l.line.substr(0, 40).c_str(), jd->status.c_str(),
                    jd->seconds,
                    static_cast<unsigned long long>(jd->iterations),
                    jd->worker, jd->resumed ? "  resumed" : "",
                    jd->evictions > 0 ? "  (evicted)" : "");
      }
    } else if (const auto* we = std::get_if<svc::WireError>(&ev)) {
      // The server reports a protocol error and then drops the session
      // (a torn or corrupted frame reached it — the chaos-proxy shapes).
      // Surface it as a broken connection so --retry reconnects and
      // resubmits under the same idempotency keys; without a retry budget
      // it propagates and fails the run, as before.
      throw svc::Error("server reported: " + we->message);
    }
    // JobStarted / IterationUpdate / StatsReply: progress noise here.
  }

  const Args& args_;
  std::vector<LineState> lines_;
  Clock::time_point deadline_at_;
  std::size_t evictions_ = 0;
};

std::string defaultIdemPrefix(const std::string& tenant) {
  const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
  return tenant + "-" + std::to_string(::getpid()) + "-" +
         std::to_string(nanos);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --connect unix:PATH|tcp:HOST:PORT --tenant NAME "
                 "[manifest] [--window N] [--stats] [--shutdown[=drain|now]] "
                 "[--quiet] [--strict] [--deadline S] [--retry N] "
                 "[--idem PREFIX]\n",
                 argv[0]);
    return 2;
  }
  svc::ignoreSigpipe();
  const Clock::time_point deadline_at =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(
              args.deadline > 0.0 ? args.deadline : 0.0));
  try {
    std::unique_ptr<svc::Client> client;
    const auto connect = [&] {
      client = std::make_unique<svc::Client>(args.connect, args.tenant);
    };
    // Initial connect participates in the --retry budget too (a restarting
    // server may not be listening yet).
    unsigned attempts_left = args.retry;
    const auto backoff = [&](unsigned attempt) {
      const double s = std::min(0.25 * static_cast<double>(1u << attempt), 2.0);
      std::this_thread::sleep_for(std::chrono::duration<double>(s));
    };
    for (unsigned attempt = 0;; ++attempt) {
      try {
        connect();
        break;
      } catch (const svc::Error& e) {
        if (attempts_left == 0) throw;
        --attempts_left;
        std::fprintf(stderr, "connect failed (%s), retrying...\n", e.what());
        backoff(attempt);
      }
    }

    StatusCounts counts;
    std::size_t rejected = 0;

    if (!args.manifest.empty()) {
      const std::vector<std::string> raw = manifestLines(args.manifest);
      const std::string prefix = args.idem_prefix.empty()
                                     ? defaultIdemPrefix(args.tenant)
                                     : args.idem_prefix;
      std::vector<LineState> lines(raw.size());
      for (std::size_t i = 0; i < raw.size(); ++i) {
        lines[i].line = raw[i];
        lines[i].idem = prefix + "-" + std::to_string(i);
      }
      BatchRunner runner(args, std::move(lines), deadline_at);
      for (unsigned attempt = 0;; ++attempt) {
        try {
          runner.run(*client);
          break;
        } catch (const svc::Timeout&) {
          throw DeadlineExpired{};
        } catch (const svc::Error& e) {
          if (attempts_left == 0) throw;
          --attempts_left;
          std::fprintf(stderr,
                       "connection lost (%s), reconnecting and resubmitting "
                       "%zu unfinished job(s) under idem prefix %s...\n",
                       e.what(),
                       [&] {
                         std::size_t n = 0;
                         for (const LineState& l : runner.lines()) {
                           n += l.finished ? 0 : 1;
                         }
                         return n;
                       }(),
                       prefix.c_str());
          backoff(attempt);
          // Reconnect may itself fail while the server restarts; each
          // failure burns one retry.
          for (;;) {
            try {
              runner.remainingSeconds();  // deadline check between attempts
              connect();
              break;
            } catch (const svc::Error& e2) {
              if (attempts_left == 0) throw;
              --attempts_left;
              std::fprintf(stderr, "reconnect failed (%s), retrying...\n",
                           e2.what());
              backoff(attempt);
            }
          }
        }
      }
      for (const LineState& l : runner.lines()) {
        if (l.rejected) {
          ++rejected;
          continue;
        }
        counts.add(
            parse_run_status(l.done.status).value_or(RunStatus::kError));
      }
      const std::size_t evictions = runner.evictions();
      std::printf("%zu jobs as tenant %s: %s, %zu rejected; %zu eviction%s\n",
                  raw.size(), args.tenant.c_str(), counts.summary().c_str(),
                  rejected, evictions, evictions == 1 ? "" : "s");
    }

    if (args.stats) {
      client->queryStats(svc::StatsQuery::kAllSections);
      for (;;) {
        double wait = 0.0;
        if (args.deadline > 0.0) {
          wait = std::chrono::duration<double>(deadline_at - Clock::now())
                     .count();
          if (wait <= 0.0) throw DeadlineExpired{};
        }
        std::optional<svc::Event> ev = client->next(wait);
        if (!ev.has_value()) throw svc::Error("connection closed on stats");
        if (const auto* reply = std::get_if<svc::StatsReply>(&*ev)) {
          std::printf("%s\n", reply->json.c_str());
          break;
        }
      }
    }

    if (args.do_shutdown) client->shutdownServer(args.drain);
    client->bye();

    // As in bfv_run, resource-model statuses are outcomes, not failures,
    // unless --strict; an inconclusive job fails neither run.
    const bool budget_trip = counts[RunStatus::kMemOut] > 0 ||
                             counts[RunStatus::kTimeOut] > 0 ||
                             counts[RunStatus::kCancelled] > 0;
    const bool ok = counts[RunStatus::kError] == 0 && rejected == 0 &&
                    !(args.strict && budget_trip);
    return ok ? 0 : 1;
  } catch (const DeadlineExpired&) {
    std::fprintf(stderr, "bfv_client: --deadline %.3gs expired\n",
                 args.deadline);
    return 3;
  } catch (const svc::Timeout&) {
    std::fprintf(stderr, "bfv_client: --deadline %.3gs expired\n",
                 args.deadline);
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bfv_client: %s\n", e.what());
    return 1;
  }
}
