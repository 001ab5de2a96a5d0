// Private real summation in the central and local models — the motivating
// sqrt(n) utility gap of the paper's Section 1.

#ifndef NETSHUFFLE_ESTIMATION_SUMMATION_H_
#define NETSHUFFLE_ESTIMATION_SUMMATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/session.h"
#include "core/status.h"
#include "dp/amplification.h"  // the inverse accountant pairs with this API
#include "util/rng.h"

namespace netshuffle {

/// RMSE (over `trials` runs) of privately summing values in [0, 1] at budget
/// eps.  central=true: one Laplace(1/eps) draw on the exact sum.
/// central=false: every user perturbs locally with Laplace(1/eps).
double SummationRmse(const std::vector<double>& values, double epsilon,
                     bool central, size_t trials, Rng* rng);

struct NetworkSummationResult {
  /// Curator-side sum of the delivered Laplace-perturbed scalars.
  double estimate = 0.0;
  double true_sum = 0.0;
  size_t delivered_reports = 0;
  /// session.Guarantee() after the estimator's epoch: the certificate of
  /// the run that produced the estimate.
  PrivacyParams guarantee;
};

/// End-to-end private summation over exactly one epoch of `session`: user
/// u's value in [lo, hi] is Laplace-randomized at session.epsilon0() into
/// an 8-byte scalar payload (local coins from `seed`), walked
/// target_rounds() rounds, and summed at the curator straight from the
/// arena slices of FinalizeEpoch()'s delivered ids.  The estimate is
/// unbiased with variance n * 2 ((hi-lo)/eps0)^2 only if every report
/// arrives, so a kSingle session is refused with kInvalidArgument, as is a
/// `values` whose size is not num_users().  Pending reports and seal
/// failures as for RunMeanEstimation (estimation/mean_estimation.h).
Expected<NetworkSummationResult> SummationOverNetwork(
    Session& session, const std::vector<double>& values, double lo, double hi,
    uint64_t seed);

}  // namespace netshuffle

#endif  // NETSHUFFLE_ESTIMATION_SUMMATION_H_
