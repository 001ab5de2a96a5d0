// Private mean estimation of d-dimensional unit vectors over network
// shuffling (the paper's Figure-9 workload): PrivUnit randomization, one
// epoch of the caller's Session, server-side averaging.

#ifndef NETSHUFFLE_ESTIMATION_MEAN_ESTIMATION_H_
#define NETSHUFFLE_ESTIMATION_MEAN_ESTIMATION_H_

#include <cstddef>
#include <cstdint>

#include "core/session.h"
#include "core/status.h"

namespace netshuffle {

struct MeanEstimationConfig {
  size_t dim = 200;
  /// Drives the users' data and their local PrivUnit coins (and, under
  /// kSingle, the curator-side dummies); the exchange coins are the
  /// session's.
  uint64_t seed = 1;
};

struct MeanEstimationResult {
  /// || estimate - true mean ||_2^2.
  double squared_error = 0.0;
  size_t genuine_reports = 0;
  size_t dummy_reports = 0;
  size_t dropped_reports = 0;
  /// session.Guarantee() after the estimator's epoch: the certificate of
  /// the run that produced the estimate.
  PrivacyParams guarantee;
};

/// The paper's synthetic workload: users hold unit vectors drawn per
/// coordinate from N(1,1) (first half) or N(10,1) (second half), then
/// normalized; dummies submit uniformly random directions.
///
/// Runs exactly one epoch of `session`: each user's PrivUnit output at
/// session.epsilon0() goes into the pending arena as 8d payload bytes, the
/// epoch is sealed and stepped to target_rounds(), and the curator averages
/// the arena slices of FinalizeEpoch()'s delivered ids.  kInvalidArgument
/// if the session has pending reports (nothing is appended); a failed seal
/// returns BeginEpoch's status with the reports still pending, for the
/// caller to DiscardPending().
///
/// Under kAll every genuine report reaches the curator and dummy slots are
/// identifiable padding, so the estimate averages the n genuine reports.
/// Under kSingle dummies are indistinguishable by design, so they (and the
/// dropped surplus reports) bias the estimate — the utility cost the paper
/// quantifies.
Expected<MeanEstimationResult> RunMeanEstimation(
    Session& session, const MeanEstimationConfig& config);

/// Trusted-shuffler baseline: the same data and randomization at
/// `epsilon0`, all n reports delivered, no exchange.
MeanEstimationResult RunMeanEstimationUniformShuffle(
    size_t n, double epsilon0, const MeanEstimationConfig& config);

}  // namespace netshuffle

#endif  // NETSHUFFLE_ESTIMATION_MEAN_ESTIMATION_H_
