// The determinism guarantee of the parallel hot paths (DESIGN.md "Parallel
// execution model"): for a fixed seed, the exchange engine, the Monte-Carlo
// accountant, the walk step, and the spectral estimate are bit-identical at
// any thread count.

#include <vector>

#include "core/accounting.h"
#include "graph/generators.h"
#include "graph/spectral.h"
#include "graph/walk.h"
#include "shuffle/engine.h"
#include "shuffle/fault.h"
#include "tests/test_util.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace netshuffle;

namespace {

// Materializes the flat store as per-user id vectors for easy comparison
// (ids are total state: the payload columns are immutable and shared).
std::vector<std::vector<ReportId>> Flatten(const ReportStore& store) {
  std::vector<std::vector<ReportId>> out(store.num_users());
  for (NodeId u = 0; u < store.num_users(); ++u) {
    for (const ReportId id : store.reports(u)) out[u].push_back(id);
  }
  return out;
}

struct Snapshot {
  std::vector<std::vector<ReportId>> holdings;
  std::vector<std::vector<ReportId>> faulty_holdings;
  uint64_t max_traffic = 0;
  double mean_traffic = 0.0;
  size_t max_memory = 0;
  double mc_mean = 0.0;
  double mc_quantile = 0.0;
  double gap = 0.0;
  double lambda = 0.0;
  double residual = 0.0;
  size_t iterations = 0;
  bool converged = false;
  std::vector<double> walk_p;
  double walk_sum_squares = 0.0;
};

Snapshot RunAll(const Graph& g, size_t threads) {
  SetThreadCount(threads);
  Snapshot s;

  ExchangeOptions opts;
  opts.rounds = 12;
  opts.seed = 2022;
  ShuffleMetrics metrics(g.num_nodes());
  opts.metrics = &metrics;
  s.holdings = Flatten(RunExchange(g, opts).holdings);
  s.max_traffic = metrics.max_user_traffic();
  s.mean_traffic = metrics.mean_user_traffic();
  s.max_memory = metrics.max_user_memory();

  // Fault models draw from the same per-(round, user) streams.
  LazyFaultModel lazy(0.3);
  ExchangeOptions faulty = opts;
  faulty.metrics = nullptr;
  faulty.faults = &lazy;
  s.faulty_holdings = Flatten(RunExchange(g, faulty).holdings);

  const auto mc = MonteCarloEpsilonAll(g, /*rounds=*/8, /*epsilon0=*/1.0,
                                       /*delta_total=*/1e-6, /*trials=*/24,
                                       /*quantile=*/0.95, /*seed=*/7);
  s.mc_mean = mc.epsilon_mean;
  s.mc_quantile = mc.epsilon_quantile;

  const auto sg = EstimateSpectralGap(g);
  s.gap = sg.gap;
  s.lambda = sg.lambda;
  s.residual = sg.residual;
  s.iterations = sg.iterations;
  s.converged = sg.converged;

  PositionDistribution d(&g, 0);
  for (int i = 0; i < 6; ++i) d.LazyStep(i % 2 == 0 ? 0.0 : 0.25);
  s.walk_p = d.probabilities();
  s.walk_sum_squares = d.SumSquares();
  return s;
}

void CheckIdentical(const Snapshot& a, const Snapshot& b) {
  CHECK(a.holdings.size() == b.holdings.size());
  for (size_t u = 0; u < a.holdings.size(); ++u) {
    CHECK(a.holdings[u] == b.holdings[u]);
  }
  for (size_t u = 0; u < a.faulty_holdings.size(); ++u) {
    CHECK(a.faulty_holdings[u] == b.faulty_holdings[u]);
  }
  CHECK(a.max_traffic == b.max_traffic);
  CHECK(a.mean_traffic == b.mean_traffic);  // exact: integer-valued sums
  CHECK(a.max_memory == b.max_memory);
  // Bit-identical epsilons, not merely close.
  CHECK(a.mc_mean == b.mc_mean);
  CHECK(a.mc_quantile == b.mc_quantile);
  CHECK(a.gap == b.gap);
  CHECK(a.lambda == b.lambda);
  CHECK(a.residual == b.residual);
  CHECK(a.iterations == b.iterations);
  CHECK(a.converged == b.converged);
  CHECK(a.walk_sum_squares == b.walk_sum_squares);
  CHECK(a.walk_p.size() == b.walk_p.size());
  for (size_t v = 0; v < a.walk_p.size(); ++v) {
    CHECK(a.walk_p[v] == b.walk_p[v]);
  }
}

}  // namespace

int main() {
  Rng rng(5);
  Graph regular = MakeRandomRegular(3000, 8, &rng);
  Graph skewed = MakeBarabasiAlbert(2000, 4, &rng);
  // Slow mixers pin long Lanczos recurrences: C(401, {1, 2}) runs ~260
  // steps, and the 101 x 99 torus as long over several reduction blocks.
  Graph circulant = MakeCirculant(401, 4);
  Graph torus = MakeTorus(101, 99);

  for (const Graph* g : {&regular, &skewed, &circulant, &torus}) {
    const Snapshot t1 = RunAll(*g, 1);
    const Snapshot t2 = RunAll(*g, 2);
    const Snapshot t4 = RunAll(*g, 4);
    CheckIdentical(t1, t2);
    CheckIdentical(t1, t4);

    // Sanity besides equality: reports conserved, accountant finite.
    size_t total = 0;
    for (const auto& held : t4.holdings) total += held.size();
    CHECK(total == g->num_nodes());
    // The shard cap (routing-table memory bound) must not break identity
    // above it either.
    const Snapshot t64 = RunAll(*g, 64);
    CheckIdentical(t1, t64);
    CHECK(t4.converged);
    CHECK(t4.mc_mean > 0.0);
    CHECK(t4.mc_mean <= t4.mc_quantile + 1e-12);
  }

  SetThreadCount(0);
  return 0;
}
