#include "graph/walk.h"

#include <algorithm>
#include <cmath>

#include "util/parallel.h"

namespace netshuffle {

PositionDistribution::PositionDistribution(const Graph* graph, NodeId origin)
    : graph_(graph),
      p_(graph->num_nodes(), 0.0),
      next_(graph->num_nodes(), 0.0) {
  p_[origin] = 1.0;
}

void PositionDistribution::Step() {
  const size_t n = graph_->num_nodes();
  // Pull form: next[v] sums its neighbors' shares in (sorted) adjacency
  // order, making every entry independently computable — the parallel result
  // is bit-identical for any thread count, and matches the serial push
  // schedule (contributions arrive in ascending sender id either way).
  share_.resize(n);
  ParallelFor(n, 4096, [&](size_t begin, size_t end) {
    for (size_t u = begin; u < end; ++u) {
      const size_t deg = graph_->degree(static_cast<NodeId>(u));
      share_[u] = deg == 0 ? 0.0 : p_[u] / static_cast<double>(deg);
    }
  });
  ParallelFor(n, 1024, [&](size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      const NodeId node = static_cast<NodeId>(v);
      if (graph_->degree(node) == 0) {
        next_[v] = p_[v];  // isolated mass stays put
        continue;
      }
      double acc = 0.0;
      for (const NodeId* u = graph_->neighbors_begin(node);
           u != graph_->neighbors_end(node); ++u) {
        acc += share_[*u];
      }
      next_[v] = acc;
    }
  });
  p_.swap(next_);
  ++time_;
}

void PositionDistribution::LazyStep(double laziness) {
  if (laziness <= 0.0) {
    Step();
    return;
  }
  std::vector<double> before = p_;
  Step();
  ParallelFor(p_.size(), 4096, [&](size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      p_[v] = laziness * before[v] + (1.0 - laziness) * p_[v];
    }
  });
}

double PositionDistribution::SumSquares() const {
  return ParallelBlockSum(p_.size(), [&](size_t begin, size_t end) {
    double s = 0.0;
    for (size_t i = begin; i < end; ++i) s += p_[i] * p_[i];
    return s;
  });
}

double PositionDistribution::RhoStar() const {
  const double two_m = 2.0 * static_cast<double>(graph_->num_edges());
  if (two_m == 0.0) return 1.0;
  double worst = 0.0;
  for (NodeId v = 0; v < graph_->num_nodes(); ++v) {
    const size_t deg = graph_->degree(v);
    if (deg == 0) continue;
    const double pi = static_cast<double>(deg) / two_m;
    worst = std::max(worst, p_[v] / pi);
  }
  return std::max(worst, 1.0);
}

StationaryMoments ComputeStationaryMoments(const Graph& g) {
  StationaryMoments out;
  const double two_m = 2.0 * static_cast<double>(g.num_edges());
  if (two_m == 0.0) {
    out.sum_squares = g.num_nodes() > 0 ? 1.0 : 0.0;
    return out;
  }
  // Degrees are integers, so their power sums are exact in a double (below
  // 2^53) and the variance below cancels to exactly 0 on a regular graph.
  double s = 0.0, d2 = 0.0, d3 = 0.0;
  size_t d_min = g.degree(0), d_max = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const size_t deg = g.degree(v);
    const double d = static_cast<double>(deg);
    const double pi = d / two_m;
    s += pi * pi;
    d2 += d * d;
    d3 += d * d * d;
    d_min = std::min(d_min, deg);
    d_max = std::max(d_max, deg);
  }
  out.sum_squares = s;
  // sigma_pi^2 = sum pi^3 - (sum pi^2)^2 = (2m sum d^3 - (sum d^2)^2) / (2m)^4.
  out.sigma = std::sqrt(std::max(0.0, two_m * d3 - d2 * d2)) / (two_m * two_m);
  out.pi_min = static_cast<double>(d_min) / two_m;
  out.pi_max = static_cast<double>(d_max) / two_m;
  return out;
}

double StationarySumSquares(const Graph& g) {
  return ComputeStationaryMoments(g).sum_squares;
}

double StationaryGamma(const Graph& g) {
  return static_cast<double>(g.num_nodes()) * StationarySumSquares(g);
}

double SumSquaresBound(const StationaryMoments& pi, double spectral_gap,
                       size_t t) {
  // A point mass has sum P^2 = 1 exactly; the formula reaches 1 at t = 0
  // only up to rounding.
  if (t == 0 || !(pi.pi_min > 0.0)) return 1.0;
  const double lambda = std::max(0.0, 1.0 - spectral_gap);
  // ||P_u(t)/pi - 1||_pi at the worst origin, pi_u = pi_min.
  const double chi = std::pow(lambda, static_cast<double>(t)) *
                     std::sqrt(1.0 / pi.pi_min - 1.0);
  return std::min(1.0, pi.sum_squares + 2.0 * pi.sigma * chi +
                           pi.pi_max * chi * chi);
}

size_t MixingTime(double spectral_gap, size_t n) {
  // A vanishing gap (disconnected / bipartite / degenerate graph) means the
  // walk never mixes; cap the round count so callers that drive a protocol
  // loop with this value terminate instead of hanging, and let the
  // amplification bounds report the (lack of) privacy honestly.
  constexpr double kMaxRounds = 1e6;
  const double gap = std::max(spectral_gap, 1e-12);
  const double t =
      std::ceil(std::log(static_cast<double>(std::max<size_t>(n, 2))) / gap);
  return static_cast<size_t>(std::min(kMaxRounds, std::max(1.0, t)));
}

}  // namespace netshuffle
