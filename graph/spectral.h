// Spectral-gap estimation for the walk transition matrix P = D^-1 A by
// Lanczos with a residual bound, covering both ends of the spectrum.

#ifndef NETSHUFFLE_GRAPH_SPECTRAL_H_
#define NETSHUFFLE_GRAPH_SPECTRAL_H_

#include <cstddef>

#include "graph/graph.h"
#include "graph/walk.h"  // MixingTime pairs with the estimated gap

namespace netshuffle {

struct SpectralGapEstimate {
  /// alpha = 1 - lambda: a lower estimate of the absolute spectral gap
  /// 1 - max(|lambda_2|, |lambda_n|) governing (1-alpha)^t mixing.  0 for
  /// disconnected or bipartite graphs.
  double gap = 0.0;
  /// min(1, max(|theta_min|, |theta_max|) + residual): the dominating
  /// extreme Ritz value plus its residual bound.
  double lambda = 1.0;
  /// The larger residual bound beta_k |s_k| of the two extreme Ritz pairs.
  double residual = 0.0;
  size_t iterations = 0;
  /// False when the iteration cap was hit before the stopping test; the
  /// gap is then a rough value that Session refuses to certify with.
  bool converged = false;
};

/// Lanczos on P under the degree-weighted inner product, with the trivial
/// (constant) eigenvector removed every step.  Stops, converged, when the
/// residual is at most `tolerance` * gap, when a Ritz value reaches +-1
/// (gap 0: disconnected or bipartite), or when the Krylov space closes.
/// Deterministic (internally seeded) and bit-identical at any pool width.
/// O(iterations * m) time, two n-vectors of memory.
SpectralGapEstimate EstimateSpectralGap(const Graph& g,
                                        size_t max_iterations = 3000,
                                        double tolerance = 1e-3);

}  // namespace netshuffle

#endif  // NETSHUFFLE_GRAPH_SPECTRAL_H_
