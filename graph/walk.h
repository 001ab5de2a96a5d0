// Random-walk machinery: exact position-distribution tracking for a report
// injected at one node, plus the stationary-distribution summaries the
// amplification theorems consume.
//
// For a simple random walk on an undirected graph the stationary distribution
// is pi_v = deg(v) / 2m; Gamma_G = n * sum_v pi_v^2 is the paper's
// irregularity measure (1 for regular graphs).

#ifndef NETSHUFFLE_GRAPH_WALK_H_
#define NETSHUFFLE_GRAPH_WALK_H_

#include <cstddef>
#include <vector>

#include "graph/graph.h"

namespace netshuffle {

/// Dense distribution of a single report's position after t walk steps,
/// advanced one round at a time.  Memory O(n), step O(m).
class PositionDistribution {
 public:
  /// The graph must outlive this object.
  PositionDistribution(const Graph* graph, NodeId origin);

  /// One synchronous walk step: p <- p P, where P uv = 1/deg(u).
  /// Mass on isolated nodes stays put.
  void Step();

  /// Lazy step: with probability `laziness` the report stays put.
  /// p <- laziness * p + (1 - laziness) * p P.
  void LazyStep(double laziness);

  size_t time() const { return time_; }
  const std::vector<double>& probabilities() const { return p_; }

  /// sum_v p_v^2 — the collision mass driving the amplification bounds.
  double SumSquares() const;

  /// rho* = max_v p_v / pi_v, the worst-case overshoot over stationarity
  /// (1 at perfect mixing).  Nodes with pi_v = 0 are skipped.
  double RhoStar() const;

 private:
  const Graph* graph_;
  std::vector<double> p_;
  std::vector<double> next_;
  std::vector<double> share_;  // p_[u]/deg(u) scratch for the pull-form step
  size_t time_ = 0;
};

/// The summaries of the stationary distribution pi_v = deg(v)/2m that
/// SumSquaresBound consumes.
struct StationaryMoments {
  /// sum_v pi_v^2 (= Gamma_G / n).
  double sum_squares = 0.0;
  /// sigma_pi: the pi-weighted standard deviation of v -> pi_v, i.e.
  /// sqrt(sum_v pi_v (pi_v - sum_w pi_w^2)^2).  Exactly 0 on a regular
  /// graph.
  double sigma = 0.0;
  /// min_v pi_v and max_v pi_v.  pi_min is 0 when some node is isolated
  /// (or the graph has no edges): a report there never moves.
  double pi_min = 0.0;
  double pi_max = 0.0;
};

/// All of StationaryMoments in one pass over the degrees.
StationaryMoments ComputeStationaryMoments(const Graph& g);

/// sum_v pi_v^2 for the stationary distribution pi_v = deg(v)/2m.
double StationarySumSquares(const Graph& g);

/// Gamma_G = n * StationarySumSquares — 1 for regular graphs, larger the more
/// irregular the degrees.
double StationaryGamma(const Graph& g);

/// Bound on sum_v P_u(t)^2 that holds for EVERY origin u of a walk with
/// absolute spectral gap `spectral_gap` (lambda = 1 - gap):
///
///   sum pi^2 + 2 sigma_pi lambda^t sqrt(1/pi_min - 1)
///            + pi_max lambda^{2t} (1/pi_min - 1),
///
/// from the l2(pi) contraction ||P_u(t)/pi - 1||_pi <= lambda^t
/// sqrt(1/pi_u - 1) of a reversible walk (Levin, Peres & Wilmer, "Markov
/// Chains and Mixing Times", ch. 12).  On a regular graph it is the paper's
/// Eq. 7, sum pi^2 + lambda^{2t}, with the tail scaled by (1 - 1/n).
/// Capped at 1, the mass of a point; exactly 1 at t = 0 and when pi_min is 0.
double SumSquaresBound(const StationaryMoments& pi, double spectral_gap,
                       size_t t);

/// t* = ceil(log(n) / gap) — the operating point used throughout the paper.
size_t MixingTime(double spectral_gap, size_t n);

}  // namespace netshuffle

#endif  // NETSHUFFLE_GRAPH_WALK_H_
