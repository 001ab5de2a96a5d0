#include "graph/spectral.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "data/datasets.h"
#include "graph/generators.h"
#include "graph/walk.h"
#include "tests/test_util.h"
#include "util/rng.h"

using namespace netshuffle;

namespace {

constexpr double kPi = 3.14159265358979323846;

// Absolute gap of the circulant MakeCirculant(n, k) in closed form: its
// walk eigenvalues are mean_{h=1..k/2} cos(2 pi j h / n), j = 1..n-1.
double CirculantGap(size_t n, size_t k) {
  double worst = 0.0;
  for (size_t j = 1; j < n; ++j) {
    double sum = 0.0;
    for (size_t h = 1; h <= k / 2; ++h) {
      sum += std::cos(2.0 * kPi * static_cast<double>(j * h) /
                      static_cast<double>(n));
    }
    worst = std::max(worst, std::fabs(sum / static_cast<double>(k / 2)));
  }
  return 1.0 - worst;
}

// Absolute gap of the w x h torus: eigenvalues
// (cos(2 pi a / w) + cos(2 pi b / h)) / 2 over (a, b) != (0, 0).
double TorusGap(size_t w, size_t h) {
  double worst = 0.0;
  for (size_t a = 0; a < w; ++a) {
    for (size_t b = 0; b < h; ++b) {
      if (a == 0 && b == 0) continue;
      const double lambda =
          0.5 * (std::cos(2.0 * kPi * static_cast<double>(a) /
                          static_cast<double>(w)) +
                 std::cos(2.0 * kPi * static_cast<double>(b) /
                          static_cast<double>(h)));
      worst = std::max(worst, std::fabs(lambda));
    }
  }
  return 1.0 - worst;
}

// Friedman's theorem: the nontrivial adjacency eigenvalues of a random
// k-regular graph lie within 2 sqrt(k - 1) + o(1) of 0 with high
// probability, and Alon-Boppana keeps the largest from falling much below
// that, so the walk's absolute gap is 1 - 2 sqrt(k - 1) / k up to
// finite-n corrections.
double FriedmanGap(size_t k) {
  return 1.0 - 2.0 * std::sqrt(static_cast<double>(k - 1)) /
                   static_cast<double>(k);
}

// The estimate converges, never exceeds the true gap, and stays within 1%
// of it; its residual meets the relative tolerance it stopped on.
SpectralGapEstimate CheckSound(const Graph& g, double true_gap) {
  const SpectralGapEstimate est = EstimateSpectralGap(g);
  CHECK(est.converged);
  CHECK(est.gap <= true_gap);
  CHECK(est.gap >= 0.99 * true_gap);
  CHECK(est.residual <= 1e-3 * est.gap);
  return est;
}

enum class Origins { kNodeZero, kAll };

// SumSquaresBound must dominate the exact collision mass of the worst-placed
// report, the largest over origins, at every round up to the mixing time
// the estimate implies.  kNodeZero is for vertex-transitive graphs, whose
// origins are all alike.
void CheckBoundDominates(const Graph& g, double gap, Origins origins) {
  const size_t t_mix = MixingTime(gap, g.num_nodes());
  const size_t last = origins == Origins::kAll ? g.num_nodes() : 1;
  std::vector<double> worst(t_mix + 1, 0.0);
  for (NodeId origin = 0; origin < last; ++origin) {
    PositionDistribution d(&g, origin);
    for (size_t t = 0; t <= t_mix; ++t) {
      worst[t] = std::max(worst[t], d.SumSquares());
      d.Step();
    }
  }
  const StationaryMoments pi = ComputeStationaryMoments(g);
  for (size_t t = 0; t <= t_mix; ++t) {
    CHECK(SumSquaresBound(pi, gap, t) >= worst[t]);
  }
}

// Checks an irregular (or not vertex-transitive) graph: a converged gap
// estimate, then the bound against every origin.
void CheckIrregular(const Graph& g) {
  const SpectralGapEstimate est = EstimateSpectralGap(g);
  CHECK(est.converged);
  CHECK(est.gap > 0.0);
  CheckBoundDominates(g, est.gap, Origins::kAll);
}

// Two cliques K_k joined by a path through `path` degree-2 nodes: cliques
// on nodes [0, k) and [k + path, 2k + path), the path in between.
Graph MakeBarbell(size_t k, size_t path) {
  std::vector<Edge> edges;
  for (const size_t base : {size_t{0}, k + path}) {
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = i + 1; j < k; ++j) {
        edges.emplace_back(static_cast<NodeId>(base + i),
                           static_cast<NodeId>(base + j));
      }
    }
  }
  for (size_t v = k - 1; v < k + path; ++v) {
    edges.emplace_back(static_cast<NodeId>(v), static_cast<NodeId>(v + 1));
  }
  return Graph::FromEdges(2 * k + path, std::move(edges));
}

// `arms` odd cycles of length `len` sharing node 0: a hub of degree
// 2 * arms among degree-2 nodes.
Graph MakeStarOfCycles(size_t arms, size_t len) {
  std::vector<Edge> edges;
  NodeId next = 1;
  for (size_t a = 0; a < arms; ++a) {
    NodeId prev = 0;
    for (size_t i = 1; i < len; ++i) {
      edges.emplace_back(prev, next);
      prev = next++;
    }
    edges.emplace_back(prev, 0);
  }
  return Graph::FromEdges(next, std::move(edges));
}

}  // namespace

int main() {
  // ---- Soundness oracle on closed-form families ---------------------------
  // The odd cycle's dominant eigenvalue is -cos(pi / n), the near -1 end
  // that the *absolute* gap must capture; C(n, {1, 2}) and the odd torus
  // mix slowly enough that a sweep approaching |lambda| from below
  // overstates their gaps.
  const Graph cycle = MakeCirculant(101, 2);
  const Graph circulant = MakeCirculant(401, 4);
  const Graph torus = MakeTorus(101, 99);
  const SpectralGapEstimate cycle_est =
      CheckSound(cycle, 1.0 - std::cos(kPi / 101.0));
  CHECK_NEAR(cycle_est.lambda, std::cos(kPi / 101.0), 1e-6);
  const SpectralGapEstimate circulant_est =
      CheckSound(circulant, CirculantGap(401, 4));
  const SpectralGapEstimate torus_est = CheckSound(torus, TorusGap(101, 99));
  // Complete graph K_65: every non-trivial eigenvalue is -1/64, so the
  // Krylov space closes after one step.
  const SpectralGapEstimate complete =
      CheckSound(MakeCirculant(65, 64), 1.0 - 1.0 / 64.0);
  CHECK(complete.iterations <= 2);

  CheckBoundDominates(cycle, cycle_est.gap, Origins::kNodeZero);
  CheckBoundDominates(circulant, circulant_est.gap, Origins::kNodeZero);
  CheckBoundDominates(torus, torus_est.gap, Origins::kNodeZero);

  // ---- Expanders ----------------------------------------------------------
  Graph dense = MakeCirculant(64, 62);
  CHECK(EstimateSpectralGap(dense).gap > 0.9);

  // Random regular graphs sit at Friedman's gap.  No closed form bounds
  // their gap from above, so the estimate gets a 0.01 window around it and
  // the bound must still dominate the exact collision mass.  These graphs
  // are not vertex-transitive, but on a regular graph sum_v P_u(t)_v^2 =
  // P^{2t}_uu <= 1/n + lambda^{2t} (1 - 1/n) for every u by the spectral
  // decomposition, so node 0 stands in for all origins here; the sweep
  // over every origin runs on the smaller random regular graph below.
  Rng friedman(20221017);
  for (size_t k : {size_t{3}, size_t{4}, size_t{8}, size_t{20}}) {
    const Graph g = MakeRandomRegular(4000, k, &friedman);
    const SpectralGapEstimate est = EstimateSpectralGap(g);
    CHECK(est.converged);
    CHECK_NEAR(est.gap, FriedmanGap(k), 0.01);
    CheckBoundDominates(g, est.gap, Origins::kNodeZero);
  }

  // ---- Worst origin on irregular graphs ------------------------------------
  // Eq. 7, sum pi^2 + lambda^{2t}, falls below the worst origin's exact
  // sum P^2 at 4-19 of the rounds before mixing on the Barabasi-Albert
  // graph, each stand-in and the star of cycles; the l2(pi) bound must
  // never.  The barbell is the slow-mixing case.
  CheckIrregular(MakeRandomRegular(400, 3, &friedman));
  Rng ba(400);
  CheckIrregular(MakeBarabasiAlbert(400, 3, &ba));
  for (const RealWorldSpec& spec : RealWorldSpecs()) {
    CheckIrregular(MakeDatasetByName(spec.name, 2022,
                                     700.0 / static_cast<double>(spec.n))
                       .graph);
  }
  CheckIrregular(MakeBarbell(8, 5));
  CheckIrregular(MakeStarOfCycles(6, 15));

  // A random 8-regular expander reaches that gap in far fewer steps than
  // the slow families.
  Rng rng(3);
  Graph reg = MakeRandomRegular(4000, 8, &rng);
  const auto reg_est = EstimateSpectralGap(reg);
  CHECK(reg_est.converged);
  CHECK_NEAR(reg_est.gap, FriedmanGap(8), 0.01);
  CHECK(reg_est.iterations < 300);

  // The estimated gap actually predicts mixing: after MixingTime rounds the
  // exact collision mass is within a constant of stationary.
  const size_t t_mix = MixingTime(reg_est.gap, reg.num_nodes());
  PositionDistribution d(&reg, 0);
  for (size_t t = 0; t < t_mix; ++t) d.Step();
  CHECK(d.SumSquares() <
        2.0 / static_cast<double>(reg.num_nodes()));

  // A tighter relative tolerance costs steps and buys a smaller residual.
  // The looser estimate was conservative: its Ritz value plus residual
  // bounds every later Ritz value.
  const auto tight = EstimateSpectralGap(reg, 3000, 1e-6);
  CHECK(tight.converged);
  CHECK(tight.iterations > reg_est.iterations);
  CHECK(tight.residual <= 1e-6 * tight.gap);
  CHECK(tight.gap + tight.residual >= reg_est.gap);

  // ---- Gap 0 and the iteration cap ----------------------------------------
  // Bipartite: a Ritz value reaches -1.  Disconnected: one reaches +1.
  const auto bipartite = EstimateSpectralGap(MakeTorus(8, 8));
  CHECK(bipartite.converged);
  CHECK(bipartite.gap == 0.0);
  const auto split = EstimateSpectralGap(
      Graph::FromEdges(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}));
  CHECK(split.converged);
  CHECK(split.gap == 0.0);

  // An isolated node carries no weight: a triangle beside one keeps the
  // triangle's gap, 1 - 1/2.
  const auto lone =
      EstimateSpectralGap(Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 0}}));
  CHECK(lone.converged);
  CHECK_NEAR(lone.gap, 0.5, 1e-12);

  // A capped run reports that it did not converge.
  const auto capped = EstimateSpectralGap(MakeCirculant(2001, 4), 50);
  CHECK(!capped.converged);
  CHECK(capped.iterations == 50);
  CHECK(capped.residual > 1e-3 * capped.gap);
  return 0;
}
