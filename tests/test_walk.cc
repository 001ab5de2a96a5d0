// Satellite-task coverage: the random-walk position distribution converges
// to the degree-proportional stationary distribution; on a k-regular graph
// the irregularity Gamma(t) = n sum P^2 tends to 1.

#include "graph/walk.h"

#include <cmath>

#include "graph/generators.h"
#include "graph/spectral.h"
#include "tests/test_util.h"
#include "util/rng.h"

using namespace netshuffle;

int main() {
  const size_t n = 2000, k = 8;
  Rng rng(2022);
  Graph g = MakeRandomRegular(n, k, &rng);

  // Stationary summaries of a regular graph.
  CHECK_NEAR(StationaryGamma(g), 1.0, 1e-9);
  CHECK_NEAR(StationarySumSquares(g), 1.0 / static_cast<double>(n), 1e-12);

  PositionDistribution d(&g, 0);
  CHECK(d.time() == 0);
  CHECK_NEAR(d.SumSquares(), 1.0, 1e-12);  // point mass

  // Mass conservation and monotone-ish spreading.
  const double gap = EstimateSpectralGap(g).gap;
  const size_t t_mix = MixingTime(gap, n);
  for (size_t t = 0; t < t_mix; ++t) {
    d.Step();
    double total = 0.0;
    for (double p : d.probabilities()) total += p;
    CHECK_NEAR(total, 1.0, 1e-9);
  }
  CHECK(d.time() == t_mix);

  // Convergence: Gamma(t_mix) = n sum P^2 -> 1 on a regular graph, and the
  // stationarity overshoot rho* -> 1.
  const double gamma_at_tmix =
      static_cast<double>(n) * d.SumSquares();
  CHECK_NEAR(gamma_at_tmix, 1.0, 0.05);
  CHECK_NEAR(d.RhoStar(), 1.0, 0.1);

  // The bound dominates the exact collision mass at every checked t, and
  // on a regular graph it is Eq. 7 with the tail scaled by (1 - 1/n).
  const StationaryMoments pi = ComputeStationaryMoments(g);
  CHECK(pi.sigma == 0.0);
  CHECK_NEAR(pi.pi_min, 1.0 / static_cast<double>(n), 1e-18);
  CHECK_NEAR(pi.pi_max, 1.0 / static_cast<double>(n), 1e-18);
  PositionDistribution fresh(&g, 0);
  for (size_t t = 1; t <= 32; ++t) {
    fresh.Step();
    const double bound = SumSquaresBound(pi, gap, t);
    CHECK(fresh.SumSquares() <= bound + 1e-9);
    const double tail = std::pow(1.0 - gap, 2.0 * static_cast<double>(t));
    CHECK_NEAR(bound,
               pi.sum_squares + (1.0 - 1.0 / static_cast<double>(n)) * tail,
               1e-12 * bound);
  }

  // Lazy steps slow spreading but also conserve mass.
  PositionDistribution lazy(&g, 0);
  for (size_t t = 0; t < 10; ++t) lazy.LazyStep(0.5);
  double total = 0.0;
  for (double p : lazy.probabilities()) total += p;
  CHECK_NEAR(total, 1.0, 1e-9);
  PositionDistribution eager(&g, 0);
  for (size_t t = 0; t < 10; ++t) eager.Step();
  CHECK(lazy.SumSquares() > eager.SumSquares());

  // MixingTime sanity: decreasing in the gap, increasing in n.
  CHECK(MixingTime(0.1, 1000) > MixingTime(0.5, 1000));
  CHECK(MixingTime(0.3, 100000) > MixingTime(0.3, 1000));
  return 0;
}
