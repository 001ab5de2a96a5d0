#include "graph/spectral.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/parallel.h"
#include "util/rng.h"

namespace netshuffle {
namespace {

// Pivots smaller than this are replaced by it (LAPACK's pivmin convention),
// so a shift that lands on an eigenvalue cannot divide by zero.
constexpr double kPivMin = 1e-100;

// A Ritz value this close to +-1 is treated as +-1: gap 0.  MixingTime
// already floors the gap here, so no round count can tell them apart.
constexpr double kUnitRitz = 1e-12;

// The Lanczos tridiagonal T_k: diagonal `alpha`, off-diagonal `beta`
// (beta[j] couples rows j and j + 1; the last beta, which couples T_k to
// the next Lanczos vector, is not part of T_k).  Every sweep is O(k).
class Tridiagonal {
 public:
  void Push(double alpha, double beta) {
    alpha_.push_back(alpha);
    beta_.push_back(beta);
  }
  size_t size() const { return alpha_.size(); }

  /// Brackets the smallest and the largest eigenvalue by Sturm bisection
  /// down to floating-point resolution: lo[0] <= theta_min < hi[0] and
  /// lo[1] <= theta_max < hi[1].  The two bisections share one Sturm sweep
  /// per step, but each keeps its own midpoints and its own stop test, so
  /// each bracket is exactly the one bisecting its end alone would give.
  void BisectExtremes(double lo[2], double hi[2]) const {
    // Gershgorin discs, padded so every eigenvalue lies strictly inside.
    double a = alpha_[0], b = alpha_[0];
    for (size_t j = 0; j < alpha_.size(); ++j) {
      const double radius = Coupling(j) + (j > 0 ? Coupling(j - 1) : 0.0);
      a = std::min(a, alpha_[j] - radius);
      b = std::max(b, alpha_[j] + radius);
    }
    const double pad = 1e-12 * (1.0 + std::max(std::fabs(a), std::fabs(b)));
    const size_t index[2] = {0, alpha_.size() - 1};
    bool live[2] = {true, true};
    lo[0] = lo[1] = a - pad;
    hi[0] = hi[1] = b + pad;
    for (;;) {
      double mid[2];
      for (int e = 0; e < 2; ++e) {
        mid[e] = 0.5 * (lo[e] + hi[e]);
        if (mid[e] <= lo[e] || mid[e] >= hi[e]) live[e] = false;
      }
      if (!live[0] && !live[1]) break;
      size_t below[2];
      CountBelow(mid, below);
      for (int e = 0; e < 2; ++e) {
        if (!live[e]) continue;
        if (below[e] > index[e]) {
          hi[e] = mid[e];
        } else {
          lo[e] = mid[e];
        }
      }
    }
  }

  /// |last component| of the unit eigenvector whose eigenvalue lies next to
  /// `shift`, a bracket end just outside the spectrum: T - shift I is then
  /// definite, so LDL^T without pivoting is stable, and three inverse
  /// iterations from the all-ones vector converge.
  double LastComponent(double shift) {
    const size_t k = alpha_.size();
    d_.resize(k);
    l_.resize(k);
    y_.assign(k, 1.0);
    d_[0] = Pivot(alpha_[0] - shift);
    for (size_t j = 1; j < k; ++j) {
      l_[j - 1] = beta_[j - 1] / d_[j - 1];
      d_[j] = Pivot(alpha_[j] - shift - l_[j - 1] * beta_[j - 1]);
    }
    double last = 1.0;
    for (int sweep = 0; sweep < 3; ++sweep) {
      for (size_t j = 1; j < k; ++j) y_[j] -= l_[j - 1] * y_[j - 1];
      for (size_t j = 0; j < k; ++j) y_[j] /= d_[j];
      for (size_t j = k - 1; j-- > 0;) y_[j] -= l_[j] * y_[j + 1];
      double norm = 0.0;
      for (const double v : y_) norm = std::max(norm, std::fabs(v));
      for (double& v : y_) v /= norm;
      double sum_sq = 0.0;
      for (const double v : y_) sum_sq += v * v;
      last = std::fabs(y_[k - 1]) / std::sqrt(sum_sq);
    }
    return last;
  }

 private:
  double Coupling(size_t j) const {
    return j + 1 < alpha_.size() ? std::fabs(beta_[j]) : 0.0;
  }

  static double Pivot(double d) {
    return std::fabs(d) < kPivMin ? std::copysign(kPivMin, d) : d;
  }

  /// Eigenvalues of T below x[0] and below x[1]: the negative pivots of
  /// T - x I, both recurrences in one pass.
  void CountBelow(const double x[2], size_t count[2]) const {
    size_t c0 = 0, c1 = 0;
    double q0 = 1.0, q1 = 1.0;
    for (size_t j = 0; j < alpha_.size(); ++j) {
      q0 = alpha_[j] - x[0] -
           (j > 0 ? beta_[j - 1] * beta_[j - 1] / q0 : 0.0);
      q1 = alpha_[j] - x[1] -
           (j > 0 ? beta_[j - 1] * beta_[j - 1] / q1 : 0.0);
      if (std::fabs(q0) < kPivMin) q0 = -kPivMin;
      if (std::fabs(q1) < kPivMin) q1 = -kPivMin;
      if (q0 < 0.0) ++c0;
      if (q1 < 0.0) ++c1;
    }
    count[0] = c0;
    count[1] = c1;
  }

  std::vector<double> alpha_, beta_;
  std::vector<double> d_, l_, y_;  // LastComponent scratch
};

}  // namespace

SpectralGapEstimate EstimateSpectralGap(const Graph& g, size_t max_iterations,
                                        double tolerance) {
  SpectralGapEstimate out;
  const size_t n = g.num_nodes();
  if (n < 2 || g.num_edges() == 0) {
    out.converged = true;  // nothing moves: gap 0 is exact
    return out;
  }
  const double volume = 2.0 * static_cast<double>(g.num_edges());
  const auto degree = [&](size_t v) {
    return static_cast<double>(g.degree(static_cast<NodeId>(v)));
  };

  // Two n-vectors: `cur` holds r_{k-1} = beta q_k (normalized lazily, in the
  // pass after the gather that reads it) and `prev` holds q_{k-1}, which the
  // gather overwrites in place with the next residual.  Isolated nodes carry
  // no weight, so their entries are held at 0 rather than left to drift
  // outside the norm.
  std::vector<double> cur(n), prev(n, 0.0);
  Rng rng(0x5eed5eedULL + n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.UniformDouble() - 0.5;
    cur[i] = degree(i) > 0.0 ? x : 0.0;
  }
  // Removes `mean` times the constant vector (on the non-isolated nodes)
  // from v and returns ||v||_D.
  const auto deflate = [&](std::vector<double>* v, double mean) {
    return std::sqrt(ParallelBlockSum(n, [&](size_t begin, size_t end) {
      double s = 0.0;
      for (size_t i = begin; i < end; ++i) {
        const double d = degree(i);
        if (d > 0.0) (*v)[i] -= mean;
        s += d * (*v)[i] * (*v)[i];
      }
      return s;
    }));
  };
  double beta = deflate(
      &cur, ParallelBlockSum(n, [&](size_t begin, size_t end) {
        double s = 0.0;
        for (size_t i = begin; i < end; ++i) s += degree(i) * cur[i];
        return s;
      }) / volume);

  // A check is ~53 bisection steps per end of the spectrum, each an O(k)
  // Sturm sweep (the two ends share one), then three O(k) inverse
  // iterations per end, against a step's O(n + m): run it every step on
  // large graphs; on small ones, space checks so that they cost about what
  // the steps between them do, but never more than k/8 steps apart.
  const double step_cost = static_cast<double>(n + 2 * g.num_edges());
  size_t last_check = 0;
  Tridiagonal t;
  for (size_t k = 1; k <= max_iterations && beta > 0.0; ++k) {
    // w = P q_k - beta q_{k-1} into prev; alpha = <w, q_k>_D.
    const double inv_beta = 1.0 / beta;
    const double alpha =
        inv_beta * ParallelBlockSum(n, [&](size_t begin, size_t end) {
          double s = 0.0;
          for (size_t i = begin; i < end; ++i) {
            const NodeId v = static_cast<NodeId>(i);
            double gathered = 0.0;
            for (const NodeId* u = g.neighbors_begin(v);
                 u != g.neighbors_end(v); ++u) {
              gathered += cur[*u];
            }
            const double d = degree(i);
            const double w =
                d > 0.0 ? gathered * inv_beta / d - beta * prev[i] : 0.0;
            prev[i] = w;
            s += d * w * cur[i];
          }
          return s;
        });
    // q_k = cur / beta; w -= alpha q_k; then remove the constant vector.
    const double mean = ParallelBlockSum(n, [&](size_t begin, size_t end) {
      double s = 0.0;
      for (size_t i = begin; i < end; ++i) {
        cur[i] *= inv_beta;
        prev[i] -= alpha * cur[i];
        s += degree(i) * prev[i];
      }
      return s;
    }) / volume;
    beta = deflate(&prev, mean);
    cur.swap(prev);
    t.Push(alpha, beta);
    out.iterations = k;

    const bool last = k == max_iterations || beta == 0.0;
    const size_t spacing = std::min(
        k / 8, static_cast<size_t>(128.0 * static_cast<double>(k) / step_cost));
    if (!last && k - last_check < spacing) continue;
    last_check = k;
    // Extreme Ritz values, each taken at the outer end of its bracket, plus
    // the larger residual bound beta_k |s_k| of the two Ritz pairs.
    double lo[2], hi[2];
    t.BisectExtremes(lo, hi);
    out.residual = beta * std::max(t.LastComponent(lo[0]),
                                   t.LastComponent(hi[1]));
    const double ritz = std::max(std::fabs(lo[0]), std::fabs(hi[1]));
    out.lambda = std::min(1.0, ritz + out.residual);
    out.gap = 1.0 - out.lambda;
    if (ritz >= 1.0 - kUnitRitz) {
      out.lambda = 1.0;
      out.gap = 0.0;
      out.converged = true;
      break;
    }
    if (out.residual <= tolerance * out.gap) {
      out.converged = true;
      break;
    }
  }
  return out;
}

}  // namespace netshuffle
