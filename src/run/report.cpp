// The JOBS report (run::jobsReport, declared in run.hpp): one object per
// job row, written from its JobSpec and JobResult, under the batch's
// outcome tally.
#include "obs/report.hpp"
#include "reach/report.hpp"
#include "run/run.hpp"

namespace bfvr::run {

namespace {

using util::JsonObject;

std::string attemptJson(const AttemptRecord& a) {
  JsonObject o;
  o.add("status", to_string(a.status)).add("seconds", a.seconds);
  if (!a.message.empty()) o.add("message", a.message);
  if (!a.escalation.empty()) o.add("escalation", a.escalation);
  if (a.resumed) o.add("resumed", true);
  if (a.faults_injected != 0) o.add("faults_injected", a.faults_injected);
  return o.str();
}

std::string jobJson(const JobRow& row) {
  const JobSpec& spec = row.spec;
  const JobResult& r = row.result;
  const std::string order = spec.order.label();
  JsonObject o;
  o.add("name", spec.displayName())
      .add("circuit", spec.circuit)
      .add("order", order)
      .add("engine", reach::tag(spec.engine))
      .add("status", to_string(r.status))
      .add("worker", r.worker)
      .add("queue_seconds", r.queue_seconds)
      .add("seconds", r.seconds)
      .add("iterations", r.reach.iterations)
      .add("states", r.reach.states)
      .add("peak_live_nodes",
           static_cast<std::uint64_t>(r.reach.peak_live_nodes))
      .addRaw("ops", obs::opStatsJson(r.reach.ops))
      .add("cache_hit_rate", obs::cacheHitRate(r.reach.ops));
  if (!row.group.empty()) o.add("group", row.group).add("winner", row.winner);
  if (!r.message.empty()) o.add("message", r.message);
  if (r.retriesUsed() > 0) {
    o.add("retries", r.retriesUsed());
    std::vector<std::string> atts;
    atts.reserve(r.attempts.size());
    for (const AttemptRecord& a : r.attempts) atts.push_back(attemptJson(a));
    o.addRaw("attempts", util::jsonArray(atts));
  }
  if (r.reach.trace.has_value()) {
    o.addRaw("trace_report", reach::traceReport(spec.circuit, order,
                                                reach::tag(spec.engine),
                                                r.reach));
  }
  return o.str();
}

}  // namespace

std::string jobsReport(const std::string& batch, unsigned workers,
                       double total_seconds, std::span<const JobRow> rows) {
  std::vector<std::string> jobs;
  jobs.reserve(rows.size());
  StatusCounts counts;
  std::uint64_t retries = 0;
  for (const JobRow& row : rows) {
    jobs.push_back(jobJson(row));
    counts.add(row.result.status);
    retries += row.result.retriesUsed();
  }
  JsonObject o;
  o.add("batch", batch)
      .add("workers", workers)
      .add("total_seconds", total_seconds)
      .add("jobs_total", counts.total());
  obs::addStatusCounts(o, counts, "jobs_")
      .add("retries_used", retries)
      .addRaw("jobs", util::jsonArray(jobs));
  return o.str();
}

}  // namespace bfvr::run
