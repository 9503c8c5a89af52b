// Portfolio mode: race one circuit under several engines, first conclusive
// winner cancels the rest. The cancel propagates on the worker thread of
// the winning job (on_done fires before its future is fulfilled), so the
// losers' cancel latency is one interrupt-poll interval — an iteration
// boundary or kInterruptStride node allocations, whichever comes first —
// plus nothing else: no controller wake-up is on the path.
#include "run/run.hpp"
#include "util/stats.hpp"

namespace bfvr::run {

PortfolioResult runPortfolio(WorkerPool& pool, const JobSpec& base,
                             std::span<const reach::Engine> engines) {
  PortfolioResult out;
  if (engines.empty()) return out;
  const Timer timer;
  auto token = std::make_shared<CancelToken>();
  // Finish-order winner election: the first worker whose job concludes
  // kDone claims the slot and cancels everyone else. shared_ptr keeps the
  // flag alive for stragglers' callbacks even past this frame (belt and
  // braces; we block on every future below anyway).
  auto winner = std::make_shared<std::atomic<int>>(-1);

  std::vector<std::future<JobResult>> futures;
  futures.reserve(engines.size());
  for (std::size_t i = 0; i < engines.size(); ++i) {
    JobSpec spec = base;
    spec.engine = engines[i];
    spec.name = base.displayName() + "/" + reach::tag(engines[i]);
    const int index = static_cast<int>(i);
    futures.push_back(pool.submit(
        std::move(spec), token, [token, winner, index](const JobResult& r) {
          if (r.status != RunStatus::kDone) return;
          int expected = -1;
          if (winner->compare_exchange_strong(expected, index)) {
            token->cancel();
          }
        }));
  }
  out.jobs.reserve(futures.size());
  for (std::future<JobResult>& f : futures) out.jobs.push_back(f.get());
  out.winner = winner->load();
  out.seconds = timer.seconds();
  return out;
}

}  // namespace bfvr::run
