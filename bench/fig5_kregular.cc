// Figure 5 — epsilon vs round for k-regular graphs (symmetric distribution,
// Theorem 5.4, exact position tracking).
//
// Larger k mixes faster, so epsilon converges to the asymptote sooner.  The
// exact walk oscillates at early times (the report "bounces" among
// neighbors before spreading), reproducing the paper's non-monotone early
// behavior, in contrast to the monotone Figure-4 upper bound.

#include <cstdio>
#include <optional>
#include <vector>

#include "dp/amplification.h"
#include "experiment_common.h"
#include "graph/generators.h"
#include "graph/walk.h"
#include "util/table.h"

using namespace netshuffle;

int main() {
  BenchRunner bench("fig5_kregular");
  const size_t n = 10000;
  const double eps0 = 0.25;
  const double delta = 0.5e-6, delta2 = 0.5e-6;
  const std::vector<size_t> ks{4, 8, 16, 64};

  std::printf(
      "Figure 5 reproduction: central eps (A_all, symmetric exact, Theorem "
      "5.4) vs rounds on random k-regular graphs\n(n=%zu, eps0=%.2f)\n\n",
      n, eps0);

  std::vector<Graph> graphs;
  std::vector<PositionDistribution> dists;
  Rng rng(2022);
  for (size_t k : ks) {
    graphs.push_back(MakeRandomRegular(n, k, &rng));
  }
  for (auto& g : graphs) {
    const std::optional<double> gap = ConvergedGap(g, &bench);
    if (!gap) return 1;
    std::printf("k=%-3zu alpha=%.4f  t_mix=%zu\n",
                g.degree(0), *gap, MixingTime(*gap, n));
    dists.emplace_back(&g, static_cast<NodeId>(0));
  }
  std::printf("\n");

  Table t({"t", "k=4", "k=8", "k=16", "k=64"});
  const size_t kMaxT = 48;
  for (size_t step = 1; step <= kMaxT; ++step) {
    for (auto& d : dists) d.Step();
    if (step > 16 && step % 4 != 0) continue;  // thin the tail rows
    t.NewRow().AddInt(static_cast<long long>(step));
    for (auto& d : dists) {
      NetworkShufflingBoundInput in;
      in.epsilon0 = eps0;
      in.n = n;
      in.sum_p_squares = d.SumSquares();
      in.delta = delta;
      in.delta2 = delta2;
      in.rho_star = d.RhoStar();
      t.AddDouble(EpsilonAllSymmetric(in), 4);
    }
  }
  t.Print();

  // Asymptote: stationary (uniform) distribution, rho* = 1.
  NetworkShufflingBoundInput in;
  in.epsilon0 = eps0;
  in.n = n;
  in.sum_p_squares = 1.0 / static_cast<double>(n);
  in.delta = delta;
  in.delta2 = delta2;
  const double asymptote = EpsilonAllSymmetric(in);
  bench.SetHeadline("asymptotic_eps", asymptote);
  std::printf("\nasymptotic eps (uniform, rho*=1): %.4f\n", asymptote);
  std::printf(
      "\nExpected shape: larger k converges to the asymptote in fewer "
      "rounds; early rounds show\nnon-monotone oscillation (exact tracking), "
      "unlike the monotone Figure-4 bound.\n");
  return 0;
}
