// Ablation studies for the design choices called out in DESIGN.md:
//   (a) the session's certificate (Theorem 5.3 at the worst-origin
//       SumSquaresBound) vs Theorem 5.4 at the exactly tracked sum P^2 and
//       rho* of a report from node 0;
//   (b) lazy random walk (fault tolerance) — rounds needed to reach the
//       same epsilon as the fault-free walk;
//   (c) delta budget split between composition slack and report-size
//       concentration;
//   (d) the certificate vs the data-dependent Monte-Carlo analysis
//       (core/accounting.h) that composes per-slot epsilons from observed
//       report sizes, again for a report from node 0.
// (a) and (d) are origin-0 analyses, not certificates: they bound one
// report's privacy loss, not the worst-placed user's.

#include <cstdio>
#include <utility>

#include "core/accounting.h"
#include "core/session.h"
#include "dp/amplification.h"
#include "experiment_common.h"
#include "graph/generators.h"
#include "graph/walk.h"
#include "util/table.h"

using namespace netshuffle;

int main() {
  BenchRunner bench("ablation_bounds");
  const size_t n = 5000, k = 8;
  const double eps0 = 1.0;
  Rng rng(2022);

  SessionConfig config;
  config.SetGraph(MakeRandomRegular(n, k, &rng)).SetEpsilon0(eps0).SetSeed(99);
  Session session = Session::Create(std::move(config)).value();
  const Graph& g = session.graph();
  const double gap = session.spectral_gap();
  const StationaryMoments stationary = ComputeStationaryMoments(g);
  const auto certify = [&](size_t rounds) {
    return session.RawGuaranteeAt(rounds, eps0).epsilon;
  };

  // (a) Bound vs exact.
  std::printf("Ablation (a): certified bound vs exact sum P^2 of a report "
              "from node 0 (n=%zu, k=%zu, alpha=%.4f)\n\n", n, k, gap);
  Table a({"t", "exact sumP^2", "bound sumP^2", "eps exact", "eps bound",
           "bound/exact eps"});
  PositionDistribution d(&g, 0);
  for (size_t t : {1u, 2u, 4u, 8u, 16u, 32u}) {
    while (d.time() < t) d.Step();
    NetworkShufflingBoundInput exact;
    exact.epsilon0 = eps0;
    exact.n = n;
    exact.sum_p_squares = d.SumSquares();
    exact.rho_star = d.RhoStar();
    const double eps_exact = EpsilonAllSymmetric(exact);
    const double eps_bound = certify(t);
    a.NewRow()
        .AddInt(static_cast<long long>(t))
        .AddSci(d.SumSquares(), 3)
        .AddSci(SumSquaresBound(stationary, gap, t), 3)
        .AddDouble(eps_exact, 4)
        .AddDouble(eps_bound, 4)
        .AddDouble(eps_bound / eps_exact, 2);
  }
  a.Print();

  // (b) Lazy walk: effective rounds to reach the fault-free epsilon.
  std::printf("\nAblation (b): lazy walk (fault model) — rounds needed for "
              "sum P^2 <= 1.05/n\n\n");
  Table b({"laziness", "rounds needed", "overhead vs beta=0"});
  size_t base_rounds = 0;
  for (double beta : {0.0, 0.2, 0.4, 0.6}) {
    PositionDistribution lazy(&g, 0);
    size_t rounds = 0;
    while (lazy.SumSquares() > 1.05 / static_cast<double>(n) &&
           rounds < 100000) {
      lazy.LazyStep(beta);
      ++rounds;
    }
    if (beta == 0.0) base_rounds = rounds;
    b.NewRow()
        .AddDouble(beta, 1)
        .AddInt(static_cast<long long>(rounds))
        .AddDouble(static_cast<double>(rounds) /
                       static_cast<double>(base_rounds),
                   2);
  }
  b.Print();
  std::printf("(expected: overhead ~ 1/(1-beta))\n");

  // (c) Delta split.
  std::printf("\nAblation (c): splitting the delta budget (total 1e-6) "
              "between delta (composition) and delta2 (report sizes)\n\n");
  Table c({"delta share", "delta", "delta2", "eps (Thm 5.3)"});
  for (double share : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    NetworkShufflingBoundInput in;
    in.epsilon0 = eps0;
    in.n = n;
    in.sum_p_squares = 1.0 / static_cast<double>(n);
    in.delta = share * 1e-6;
    in.delta2 = (1.0 - share) * 1e-6;
    c.NewRow()
        .AddDouble(share, 1)
        .AddSci(in.delta, 1)
        .AddSci(in.delta2, 1)
        .AddDouble(EpsilonAllStationary(in), 4);
  }
  c.Print();
  std::printf("(expected: a flat optimum — the split matters little, "
              "justifying the 50/50 default)\n");

  // (d) Closed form vs data-dependent Monte-Carlo accounting.
  std::printf("\nAblation (d): Theorem 5.3 closed form vs Monte-Carlo "
              "per-slot composition of a report from node 0 (40 trials, "
              "95th pct)\n\n");
  bench.SetAccountant("monte_carlo");
  Table m({"t", "eps closed form", "eps MC p95", "closed/p95"});
  for (size_t t : {4u, 8u, 16u, 32u}) {
    const double closed = certify(t);
    const double mc =
        MonteCarloEpsilonAll(g, t, eps0, /*delta_total=*/1e-6, /*trials=*/40,
                             /*quantile=*/0.95, /*seed=*/99)
            .epsilon_quantile;
    bench.SetHeadline("mc_p95_eps_t32", mc);
    m.NewRow()
        .AddInt(static_cast<long long>(t))
        .AddDouble(closed, 4)
        .AddDouble(mc, 4)
        .AddDouble(closed / mc, 2);
  }
  m.Print();
  std::printf("(expected: the data-dependent origin-0 analysis gives a "
              "noticeably smaller epsilon —\nthe paper's 'accounting may be "
              "further tightened' direction; it is not a certificate for "
              "the worst-placed user)\n");
  return 0;
}
