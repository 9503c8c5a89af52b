// Batch-mode CLI over the job runner (src/run): consume a manifest (list
// of circuit files / generator specs with per-job options), schedule the
// jobs across a fixed worker pool, optionally race each circuit as an
// engine portfolio, and aggregate every job's stats (and obs trace, when
// traced) into one JOBS_<name>.json report.
//
//   bfv_run <manifest> [--workers N] [--portfolio e1,e2,...] [--deadline S]
//           [--trace] [--jobs[=path]] [--quiet] [--strict]
//   bfv_run --list-engines
//
//   --workers N        pool size (default 1: deterministic, bit-identical
//                      op counts to running the engines directly)
//   --portfolio LIST   race EVERY manifest line under these engines,
//                      overriding any per-line portfolio= key
//   --deadline S       default wall-clock deadline for jobs without one
//   --trace            force per-iteration obs traces on for every job
//   --jobs[=path]      write the aggregated JSON report (default path
//                      JOBS_<manifest-stem>.json)
//   --quiet            suppress the per-job table rows
//   --strict           also fail (exit 1) on memout / timeout jobs — for
//                      CI gates where a budget trip is a regression, not
//                      an expected outcome
//   --list-engines     print the known engine tags (one per line) and exit;
//                      the same list a bad engine= diagnostic cites
//
// Exit status: 0 when every job ended in a resource-model status (done /
// T.O. / M.O. / cancelled / inconclusive); 1 when any job errored (bad
// circuit spec, unreadable file), when --strict and any job ran out of
// nodes or time, or when the manifest could not be read or the report
// could not be written; 2 on a usage error (a flag's bad value prints
// "<flag>: <reason>" before the usage line).
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "run/manifest.hpp"
#include "run/run.hpp"
#include "util/file.hpp"
#include "util/stats.hpp"

using namespace bfvr;

namespace {

struct Args {
  std::string manifest;
  unsigned workers = 1;
  std::vector<reach::Engine> portfolio;  // empty = per-line setting
  double default_deadline = 0.0;
  bool force_trace = false;
  bool quiet = false;
  bool strict = false;
  std::string jobs_path;  // empty = no report
};

std::string manifestStem(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string stem = slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos && dot > 0) stem.erase(dot);
  return stem;
}

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Values go through the manifest's own parsers, so a flag takes what
    // the same manifest key takes; a bad one names the flag.
    try {
      if (arg == "--workers" && i + 1 < argc) {
        a.workers = run::parseU32(argv[++i]);
      } else if (arg.rfind("--workers=", 0) == 0) {
        a.workers = run::parseU32(arg.substr(10));
      } else if (arg == "--portfolio" && i + 1 < argc) {
        a.portfolio = run::parseEngineList(argv[++i]);
      } else if (arg == "--deadline" && i + 1 < argc) {
        a.default_deadline = run::parseF64(argv[++i]);
      } else if (arg.rfind("--deadline=", 0) == 0) {
        a.default_deadline = run::parseF64(arg.substr(11));
      } else if (arg == "--trace") {
        a.force_trace = true;
      } else if (arg == "--quiet") {
        a.quiet = true;
      } else if (arg == "--strict") {
        a.strict = true;
      } else if (arg == "--jobs") {
        a.jobs_path = "<default>";
      } else if (arg.rfind("--jobs=", 0) == 0) {
        a.jobs_path = arg.substr(7);
      } else if (!arg.empty() && arg[0] != '-' && a.manifest.empty()) {
        a.manifest = arg;
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
        return false;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", arg.substr(0, arg.find('=')).c_str(),
                   e.what());
      return false;
    }
  }
  if (a.manifest.empty()) return false;
  if (a.jobs_path == "<default>") {
    a.jobs_path = "JOBS_" + manifestStem(a.manifest) + ".json";
  }
  return true;
}

void printRow(const run::JobRow& row) {
  const run::JobResult& r = row.result;
  char states[32];
  if (r.status == RunStatus::kDone) {
    std::snprintf(states, sizeof states, "%.6g", r.reach.states);
  } else {
    std::snprintf(states, sizeof states, "-");
  }
  std::printf("%-28s %-8s %-9s %8.3f %6u %12s  w%u%s\n",
              row.spec.displayName().c_str(), reach::tag(row.spec.engine),
              to_string(r.status).c_str(), r.seconds, r.reach.iterations,
              states, r.worker, row.winner ? "  <- winner" : "");
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list-engines") == 0) {
      for (const reach::EngineInfo& e : reach::kEngines) {
        std::printf("%s\n", e.tag);
      }
      return 0;
    }
  }
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s <manifest> [--workers N] [--portfolio e1,e2,...] "
                 "[--deadline S] [--trace] [--jobs[=path]] [--quiet] "
                 "[--strict] | --list-engines\n",
                 argv[0]);
    return 2;
  }

  std::vector<run::ManifestEntry> entries;
  try {
    entries = run::parseManifestFile(args.manifest);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  for (run::ManifestEntry& e : entries) {
    if (!args.portfolio.empty()) e.portfolio = args.portfolio;
    if (e.spec.deadline_seconds == 0.0) {
      e.spec.deadline_seconds = args.default_deadline;
    }
    if (args.force_trace) e.spec.opts.trace = true;
  }

  const Timer total;
  run::WorkerPool pool(args.workers);
  std::vector<run::JobRow> rows;

  // Plain jobs go straight to the pool; each portfolio race gets a cheap
  // controller thread (runPortfolio blocks until its whole group returns),
  // so every variant of every manifest line is in the queue at once and
  // the pool stays saturated across lines.
  struct Race {
    const run::ManifestEntry* entry;
    run::PortfolioResult result;
  };
  std::vector<Race> races;
  std::vector<std::pair<const run::ManifestEntry*,
                        std::future<run::JobResult>>>
      singles;
  for (const run::ManifestEntry& e : entries) {
    if (e.portfolio.empty()) {
      singles.emplace_back(&e, pool.submit(e.spec));
    } else {
      races.push_back({&e, {}});
    }
  }
  std::vector<std::thread> controllers;
  controllers.reserve(races.size());
  for (Race& race : races) {
    controllers.emplace_back([&pool, &race] {
      race.result =
          run::runPortfolio(pool, race.entry->spec, race.entry->portfolio);
    });
  }
  for (auto& [entry, fut] : singles) {
    rows.push_back({entry->spec, fut.get(), "", false});
  }
  for (std::thread& t : controllers) t.join();
  for (Race& race : races) {
    for (std::size_t i = 0; i < race.result.jobs.size(); ++i) {
      run::JobSpec variant = race.entry->spec;
      variant.engine = race.entry->portfolio[i];
      variant.name = race.entry->spec.displayName() + "/" +
                     reach::tag(variant.engine);
      rows.push_back({std::move(variant), std::move(race.result.jobs[i]),
                      race.entry->spec.displayName(),
                      race.result.winner == static_cast<int>(i)});
    }
  }
  const double total_seconds = total.seconds();

  if (!args.quiet) {
    std::printf("%-28s %-8s %-9s %8s %6s %12s  %s\n", "job", "engine",
                "status", "time(s)", "iters", "states", "worker");
    for (const run::JobRow& row : rows) printRow(row);
  }

  // Per-status roll-up, printed even under --quiet: it's the one line a CI
  // log needs to judge a batch.
  StatusCounts counts;
  unsigned retries = 0;
  bool ok = true;
  for (const run::JobRow& row : rows) {
    const run::JobResult& r = row.result;
    counts.add(r.status);
    retries += r.retriesUsed();
    const std::string name = row.spec.displayName();
    if (r.status == RunStatus::kError) {
      std::fprintf(stderr, "job %s failed: %s\n", name.c_str(),
                   r.message.c_str());
      ok = false;
    } else if (args.strict && (r.status == RunStatus::kMemOut ||
                               r.status == RunStatus::kTimeOut)) {
      std::fprintf(stderr, "job %s exceeded its budget (%s): %s\n",
                   name.c_str(), to_string(r.status).c_str(),
                   r.message.c_str());
      ok = false;
    }
  }
  std::printf("%zu jobs on %u workers in %.3fs: %s; %u retr%s used\n",
              rows.size(), pool.workers(), total_seconds,
              counts.summary().c_str(), retries, retries == 1 ? "y" : "ies");

  if (!args.jobs_path.empty()) {
    std::string payload = run::jobsReport(
        manifestStem(args.manifest), pool.workers(), total_seconds, rows);
    payload += '\n';
    if (!util::writeFile(args.jobs_path, payload)) {
      std::fprintf(stderr, "cannot write %s\n", args.jobs_path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu jobs)\n", args.jobs_path.c_str(), rows.size());
  }
  return ok ? 0 : 1;
}
