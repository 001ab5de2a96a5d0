// Data-dependent Monte-Carlo privacy analysis: instead of the worst-case
// collision-mass bound, simulate the exchange and account with (a) the exact
// position distribution of the victim's report and (b) the within-slot
// shuffling credit implied by the observed slot (per-holder report batch)
// sizes.  Reports an epsilon at the requested quantile over exchange
// randomness — the paper's "accounting may be further tightened" direction.
//
// An analysis, not a certificate: the victim is the report from node 0, not
// the worst-placed user, and the exchanges above the quantile are charged
// to no delta.  Session certifies with graph/walk.h SumSquaresBound instead;
// bench/ablation_bounds.cc (d) compares the two.

#ifndef NETSHUFFLE_CORE_ACCOUNTING_H_
#define NETSHUFFLE_CORE_ACCOUNTING_H_

#include <cstddef>
#include <cstdint>

#include "graph/graph.h"

namespace netshuffle {

struct MonteCarloAccountingResult {
  double epsilon_mean = 0.0;
  /// The `quantile`-level epsilon across trials (e.g. 0.95 -> p95).
  double epsilon_quantile = 0.0;
  double quantile = 0.95;
  size_t trials = 0;
};

/// A_all accounting for a report originating at node 0, walking `rounds`
/// steps.  `delta_total` is split evenly across the composition and
/// concentration slacks of the underlying symmetric theorem.
MonteCarloAccountingResult MonteCarloEpsilonAll(const Graph& g, size_t rounds,
                                                double epsilon0,
                                                double delta_total,
                                                size_t trials, double quantile,
                                                uint64_t seed);

}  // namespace netshuffle

#endif  // NETSHUFFLE_CORE_ACCOUNTING_H_
