// Measurement harness of the repository benchmark (see README.md). It drives
// the library through public functions only and times every layer from
// outside, with steady_clock, around the calls into it:
//
//   bdd      the bdd::Manager constructor, ReachResult::ops, GC events
//   circuit  run::resolveCircuit + circuit::makeOrder
//   sym      the sym::StateSpace constructor
//   reach    reach::reachBfv / reachTr / reachCbm, with ReachOptions::trace
//            for the phase split in traced runs
//   run/svc  traced runs only: an in-process svc::Server driven by one
//            svc::Client, read back through Server::spans(), warmStats()
//            and journal()->stats()
//
// Between the measured calls it runs the frozen host-speed probe of
// probe.hpp, by which run.py scales every timed metric.
//
// It prints raw measurements, one JSON object per line on stdout, and leaves
// every aggregate (medians, percentiles, answer checks) to run.py.
//
//   bfvr_bench reach  --seconds S --seed N --workdir DIR [--trace] [--smoke]
//                     JOB...
//   bfvr_bench expect JOB...
//   bfvr_bench probe  COUNT
//
// JOB is <engine>/<iters>/<circuit>: engine bfv, tr or cbm; iters the
// iteration cap (0 = to the fixpoint); circuit a generator spec such as
// gen:lfsr:12 or a .bench path.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <variant>
#include <vector>

#include "bdd/bdd.hpp"
#include "circuit/concrete_sim.hpp"
#include "circuit/orders.hpp"
#include "obs/obs.hpp"
#include "probe.hpp"
#include "reach/engine.hpp"
#include "run/run.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "sym/space.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

using namespace bfvr;

namespace {

/// Hard node cap of every job's BDD universe.
constexpr std::size_t kMaxNodes = 4'000'000;
/// Server workers of the traced service round. With the client's thread
/// the process keeps at most three threads busy.
constexpr unsigned kServeWorkers = 2;
/// How long the service round waits for an answer before it counts the
/// jobs still unanswered as missing.
constexpr double kDrainSeconds = 30.0;

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A JSON number with all its digits.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void emit(const util::JsonObject& o) { std::printf("%s\n", o.str().c_str()); }

struct Job {
  std::string spec;  ///< as given on the command line; the record key
  std::string engine;
  unsigned iters = 0;
  std::string circuit;

  /// The same job in the service's manifest-line grammar.
  std::string line() const {
    std::string l = "circuit=" + circuit + " engine=" + engine +
                    " order=topo max-nodes=" + std::to_string(kMaxNodes);
    if (iters != 0) l += " iters=" + std::to_string(iters);
    return l;
  }
};

Job parseJob(const std::string& spec) {
  const std::size_t a = spec.find('/');
  const std::size_t b = a == std::string::npos ? a : spec.find('/', a + 1);
  if (b == std::string::npos) throw std::invalid_argument("bad job: " + spec);
  Job j;
  j.spec = spec;
  j.engine = spec.substr(0, a);
  j.iters = static_cast<unsigned>(std::stoul(spec.substr(a + 1, b - a - 1)));
  j.circuit = spec.substr(b + 1);
  if (j.engine != "bfv" && j.engine != "tr" && j.engine != "cbm") {
    throw std::invalid_argument("bad engine in job: " + spec);
  }
  return j;
}

// ---- reach layers, called directly ------------------------------------------

/// One engine call on a fresh manager, with each layer timed on its own.
struct ReachRun {
  std::string status = "error";
  double states = 0.0;
  unsigned iterations = 0;
  std::size_t peak_live_nodes = 0;
  double manager_s = 0.0, circuit_s = 0.0, space_s = 0.0, engine_s = 0.0;
  double gc_s = 0.0;
  bdd::OpStats ops;
  std::optional<obs::PhaseSeconds> phases;  ///< traced runs only
};

reach::ReachResult callEngine(const std::string& engine, sym::StateSpace& s,
                              const reach::ReachOptions& o) {
  if (engine == "tr") return reach::reachTr(s, o);
  if (engine == "cbm") return reach::reachCbm(s, o);
  return reach::reachBfv(s, o);
}

ReachRun runReach(const Job& job, bool trace, bool record_gc) {
  ReachRun out;
  try {
    Clock::time_point t = Clock::now();
    bdd::Manager::Config cfg;
    cfg.max_nodes = kMaxNodes;
    bdd::Manager m(0, cfg);
    out.manager_s = since(t);
    t = Clock::now();
    const circuit::Netlist n = run::resolveCircuit(job.circuit);
    const std::vector<circuit::ObjRef> order =
        circuit::makeOrder(n, {circuit::OrderKind::kTopo, 0});
    out.circuit_s = since(t);
    t = Clock::now();
    sym::StateSpace s(m, n, order);
    out.space_s = since(t);
    std::vector<bdd::ManagerEvent> events;
    std::optional<obs::ScopedEventRecorder> recorder;
    if (record_gc) recorder.emplace(m, events);
    reach::ReachOptions o;
    o.max_iterations = job.iters;
    o.trace = trace;
    t = Clock::now();
    const reach::ReachResult r = callEngine(job.engine, s, o);
    out.engine_s = since(t);
    out.status = to_string(r.status);
    out.states = r.states;
    out.iterations = r.iterations;
    out.peak_live_nodes = r.peak_live_nodes;
    out.ops = r.ops;
    for (const bdd::ManagerEvent& e : events) {
      if (e.kind == bdd::ManagerEvent::Kind::kGc) out.gc_s += e.seconds;
    }
    if (r.trace.has_value()) out.phases = r.trace->phase_totals;
  } catch (const std::exception& e) {
    out.status = std::string("error: ") + e.what();
  }
  return out;
}

std::string opsJson(const bdd::OpStats& s) {
  util::JsonObject per_op;
  for (std::size_t i = 0; i < bdd::kNumOpTags; ++i) {
    const auto tag = static_cast<bdd::OpTag>(i);
    per_op.addRaw(to_string(tag), "[" + std::to_string(s.opHits(tag)) + ", " +
                                      std::to_string(s.opMisses(tag)) + "]");
  }
  util::JsonObject o;
  o.add("top_ops", s.top_ops)
      .add("recursive_steps", s.recursive_steps)
      .add("cache_lookups", s.cache_lookups)
      .add("cache_hits", s.cache_hits)
      .add("nodes_created", s.nodes_created)
      .add("gc_runs", s.gc_runs)
      .addRaw("op", per_op.str());
  return o.str();
}

void emitReach(int round, const Job& job, bool traced, const ReachRun& r) {
  util::JsonObject o;
  o.add("rec", "job")
      .add("round", round)
      .add("job", job.spec)
      .add("traced", traced)
      .add("status", r.status)
      .addRaw("states", num(r.states))
      .add("iterations", r.iterations)
      .add("peak_live_nodes", static_cast<std::uint64_t>(r.peak_live_nodes))
      .addRaw("manager_s", num(r.manager_s))
      .addRaw("circuit_s", num(r.circuit_s))
      .addRaw("space_s", num(r.space_s))
      .addRaw("engine_s", num(r.engine_s))
      .addRaw("gc_s", num(r.gc_s))
      .addRaw("ops", opsJson(r.ops));
  if (r.phases.has_value()) {
    util::JsonObject ph;
    for (std::size_t i = 0; i < obs::kNumPhases; ++i) {
      const auto p = static_cast<obs::Phase>(i);
      ph.addRaw(obs::to_string(p), num((*r.phases)[p]));
    }
    o.addRaw("phases", ph.str());
  }
  emit(o);
}

/// Untraced and traced twins of one job. The order alternates with `round`
/// so neither twin always runs first. The untraced twin records GC events.
void runTwins(int round, const Job& job) {
  const bool traced_first = round % 2 == 1;
  for (int k = 0; k < 2; ++k) {
    const bool traced = (k == 0) == traced_first;
    emitReach(round, job, traced, runReach(job, traced, !traced));
  }
}

// ---- service layers, driven over a socket -----------------------------------

/// One in-process server and its client session. Destruction closes the
/// session and stops the server (the Server destructor cancels whatever is
/// left).
class Service {
 public:
  Service(const std::string& workdir, const std::string& state_dir) {
    const std::string endpoint = "unix:" + workdir + "/s.sock";
    svc::Server::Options o;
    o.endpoint = endpoint;
    o.workers = kServeWorkers;
    o.journal_dir = state_dir;
    o.journal_fsync = svc::FsyncPolicy::kBatch;
    o.spool_dir = state_dir;
    o.span_retain = std::size_t{1} << 20;
    server_ = std::make_unique<svc::Server>(o);
    server_->start();
    client_ = std::make_unique<svc::Client>(endpoint, "bench");
  }

  svc::Server& server() { return *server_; }
  svc::Client& client() { return *client_; }

 private:
  std::unique_ptr<svc::Server> server_;  // declared first: outlives client_
  std::unique_ptr<svc::Client> client_;
};

/// What the client saw of one submitted job; times in seconds after the
/// round started, -1 when the event never arrived.
struct Served {
  double sent = 0.0, accepted = -1.0, done = -1.0;
  std::uint64_t id = 0;
  std::string status = "missing";
  double states = 0.0;
  std::uint64_t iterations = 0, peak_live_nodes = 0, frames = 0;
};

/// Submit every job at once, then read events until each is answered or
/// none is for kDrainSeconds; a job still unanswered then stays "missing".
std::vector<Served> serveRound(svc::Client& client,
                               const std::vector<Job>& jobs) {
  const Clock::time_point t0 = Clock::now();
  std::vector<Served> out(jobs.size());
  std::map<std::uint64_t, std::size_t> by_tag, by_id;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out[i].sent = since(t0);
    by_tag[client.submit(jobs[i].line())] = i;
  }
  std::map<std::uint64_t, std::uint64_t> frames;  // by job id
  std::size_t unanswered = jobs.size();
  double progress = since(t0);  // time of the last answer
  while (unanswered > 0 && since(t0) - progress < kDrainSeconds) {
    std::optional<svc::Event> ev;
    try {
      ev = client.next(0.5);
    } catch (const svc::Timeout&) {
      continue;
    }
    if (!ev.has_value()) break;  // the server closed the session
    const double at = since(t0);
    if (const auto* a = std::get_if<svc::Accepted>(&*ev)) {
      if (const auto it = by_tag.find(a->tag); it != by_tag.end()) {
        out[it->second].accepted = at;
        out[it->second].id = a->job;
        by_id[a->job] = it->second;
      }
    } else if (const auto* r = std::get_if<svc::Rejected>(&*ev)) {
      if (const auto it = by_tag.find(r->tag); it != by_tag.end()) {
        out[it->second].status = "rejected: " + r->reason;
        unanswered -= 1;
        progress = at;
      }
    } else if (const auto* u = std::get_if<svc::IterationUpdate>(&*ev)) {
      frames[u->job] += 1;
    } else if (const auto* d = std::get_if<svc::JobDone>(&*ev)) {
      const auto it = by_id.find(d->job);
      if (it == by_id.end() || out[it->second].done >= 0.0) continue;
      Served& s = out[it->second];
      s.done = at;
      s.status = d->status;
      s.states = d->states;
      s.iterations = d->iterations;
      s.peak_live_nodes = d->peak_live_nodes;
      unanswered -= 1;
      progress = at;
    }
  }
  for (Served& s : out) s.frames = frames[s.id];
  return out;
}

/// Seconds after its span opened at which job `id` passed `what` (the
/// last such stamp), or -1.
double spanTime(const obs::JobSpan& span, const char* what) {
  double t = -1.0;
  for (const obs::SpanEvent& e : span.events) {
    if (e.what == what) t = e.t;
  }
  return t;
}

/// One record per served job, with the server's span split beside the
/// client's view of it.
void emitServed(const std::vector<Job>& jobs, const std::vector<Served>& served,
                const svc::Server& server) {
  std::map<std::uint64_t, obs::JobSpan> spans;
  for (obs::JobSpan& s : server.spans()) spans[s.job] = std::move(s);
  for (std::size_t i = 0; i < served.size(); ++i) {
    const Served& s = served[i];
    double queued = -1.0, dispatched = -1.0, done = -1.0;
    if (const auto it = spans.find(s.id); s.id != 0 && it != spans.end()) {
      queued = spanTime(it->second, "queued");
      dispatched = spanTime(it->second, "dispatched");
      done = spanTime(it->second, "done");
    }
    util::JsonObject o;
    o.add("rec", "served")
        .add("job", jobs[i].spec)
        .add("status", s.status)
        .addRaw("states", num(s.states))
        .add("iterations", s.iterations)
        .add("peak_live_nodes", s.peak_live_nodes)
        .add("frames", s.frames)
        .addRaw("sent", num(s.sent))
        .addRaw("accepted", num(s.accepted))
        .addRaw("done", num(s.done))
        .addRaw("span_queued", num(queued))
        .addRaw("span_dispatched", num(dispatched))
        .addRaw("span_done", num(done));
    emit(o);
  }
}

/// Server-side counters over the service's whole life.
void emitServerStats(const svc::Server& server, std::size_t jobs) {
  const svc::JournalStats js = server.journal()->stats();
  const run::ManagerCache::Stats ws = server.warmStats();
  util::JsonObject o;
  o.add("rec", "server")
      .add("jobs", static_cast<std::uint64_t>(jobs))
      .add("journal_appends", js.appended)
      .add("journal_fsyncs", js.fsyncs)
      .add("warm_hits", ws.hits)
      .add("warm_misses", ws.misses);
  emit(o);
}

// ---- host-speed probe and process ------------------------------------------

/// `count` host-speed probes, one record each.
int cmdProbe(int count) {
  for (int k = 0; k < count; ++k) {
    const bench_probe::Sample s = bench_probe::run();
    util::JsonObject o;
    o.add("rec", "probe")
        .addRaw("bdd_s", num(s.bdd_s))
        .addRaw("chase_s", num(s.chase_s));
    emit(o);
  }
  return 0;
}

/// Path of this binary, for the probe child.
const char* g_self = nullptr;

/// One host-speed probe in a child process, which prints its record to
/// the same stdout. In a process of its own the probe leaves this one's
/// heap and peak RSS as the measured calls left them, and always starts
/// from the same fresh heap itself.
void runProbe() {
  std::fflush(stdout);
  std::string cmd = "probe";
  std::string count = "1";
  char* argv[] = {const_cast<char*>(g_self), cmd.data(), count.data(),
                  nullptr};
  pid_t pid = 0;
  if (posix_spawn(&pid, g_self, nullptr, nullptr, argv, environ) != 0) {
    throw std::runtime_error("cannot start the probe");
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("lost the probe");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("the probe failed");
  }
}

void emitProcess() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  util::JsonObject o;
  o.add("rec", "process")
      .addRaw("peak_rss_mb", num(static_cast<double>(ru.ru_maxrss) / 1024.0));
  emit(o);
}

// ---- commands ---------------------------------------------------------------

struct Args {
  std::string cmd;
  double seconds = 10.0;
  std::uint64_t seed = 1;
  bool trace = false;
  bool smoke = false;
  std::string workdir = ".";
  std::vector<Job> jobs;
};

/// Rounds of the job list until the next round would overrun the window:
/// the first in the order given, the rest shuffled. A host-speed probe runs
/// before every job and after the last. Traced runs add each job's traced
/// twin, then serve one round through the service to split its layers too.
int cmdReach(const Args& a) {
  Rng rng(a.seed);
  std::vector<std::size_t> order(a.jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const Clock::time_point start = Clock::now();
  double longest = 0.0;
  for (int round = 0;; ++round) {
    if (round > 0) rng.shuffle(order);
    const Clock::time_point t = Clock::now();
    for (const std::size_t i : order) {
      runProbe();
      if (a.trace) {
        runTwins(round, a.jobs[i]);
      } else {
        emitReach(round, a.jobs[i], false, runReach(a.jobs[i], false, false));
      }
    }
    longest = std::max(longest, since(t));
    // Peak RSS is read after the fixed-order round. How much freed heap
    // the allocator keeps, and so the peak, depends on the order in which
    // jobs ran, so a shuffled order would move it between seeds.
    if (round == 0) emitProcess();
    if (a.smoke || since(start) + longest > a.seconds) break;
  }
  runProbe();
  if (a.trace) {
    Service service(a.workdir, a.workdir + "/state");
    const std::vector<Served> served = serveRound(service.client(), a.jobs);
    emitServed(a.jobs, served, service.server());
    emitServerStats(service.server(), served.size());
  }
  return 0;
}

/// States reachable within `depth` steps (0 = unbounded) by explicit
/// breadth-first search over concrete simulation: every input vector from
/// every state. Independent of every BDD engine.
double bfsStates(const circuit::Netlist& n, unsigned depth) {
  const std::size_t nl = n.latches().size();
  const std::size_t ni = n.inputs().size();
  if (nl > 64 || ni > 24) {
    throw std::invalid_argument("explicit search: circuit too wide");
  }
  const circuit::ConcreteSim sim(n);
  const auto pack = [nl](const std::vector<bool>& s) {
    std::uint64_t x = 0;
    for (std::size_t i = 0; i < nl; ++i) {
      if (s[i]) x |= std::uint64_t{1} << i;
    }
    return x;
  };
  std::vector<bool> state(nl), in(ni);
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::uint64_t> frontier{pack(sim.initialState())};
  seen.insert(frontier[0]);
  for (unsigned level = 0; !frontier.empty() && (depth == 0 || level < depth);
       ++level) {
    std::vector<std::uint64_t> next;
    for (const std::uint64_t s : frontier) {
      for (std::size_t i = 0; i < nl; ++i) state[i] = ((s >> i) & 1U) != 0;
      for (std::uint64_t iv = 0; iv < (std::uint64_t{1} << ni); ++iv) {
        for (std::size_t j = 0; j < ni; ++j) in[j] = ((iv >> j) & 1U) != 0;
        const std::uint64_t t = pack(sim.step(state, in));
        if (seen.insert(t).second) next.push_back(t);
      }
    }
    frontier = std::move(next);
  }
  return static_cast<double>(seen.size());
}

/// Reference answer of each job by explicit search, cross-checked against
/// the TR engine run without a node cap.
int cmdExpect(const Args& a) {
  for (const Job& job : a.jobs) {
    const circuit::Netlist n = run::resolveCircuit(job.circuit);
    const double bfs = bfsStates(n, job.iters);
    bdd::Manager m(0);
    sym::StateSpace s(m, n,
                      circuit::makeOrder(n, {circuit::OrderKind::kTopo, 0}));
    reach::ReachOptions o;
    o.max_iterations = job.iters;
    const reach::ReachResult r = reach::reachTr(s, o);
    util::JsonObject out;
    out.add("rec", "expect")
        .add("job", job.spec)
        .addRaw("bfs_states", num(bfs))
        .add("tr_status", to_string(r.status))
        .addRaw("tr_states", num(r.states));
    emit(out);
    std::fflush(stdout);
  }
  return 0;
}

Args parseArgs(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing command");
  Args a;
  a.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--seconds") {
      a.seconds = std::stod(value());
    } else if (arg == "--seed") {
      a.seed = std::stoull(value());
    } else if (arg == "--workdir") {
      a.workdir = value();
    } else if (arg == "--trace") {
      a.trace = true;
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg.rfind("--", 0) == 0) {
      throw std::invalid_argument("unknown flag " + arg);
    } else {
      a.jobs.push_back(parseJob(arg));
    }
  }
  if (a.jobs.empty()) throw std::invalid_argument("no jobs given");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  g_self = argv[0];
  try {
    if (argc == 3 && std::string(argv[1]) == "probe") {
      return cmdProbe(std::stoi(argv[2]));
    }
    const Args a = parseArgs(argc, argv);
    if (a.cmd == "reach") return cmdReach(a);
    if (a.cmd == "expect") return cmdExpect(a);
    throw std::invalid_argument("unknown command " + a.cmd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bfvr_bench: %s\n", e.what());
    return 2;
  }
}
