// Private frequency estimation (histogram release) over network shuffling:
// k-RR randomization into 4-byte bucket payloads, one epoch of the caller's
// Session, curator-side counting straight from the PayloadArena slices, and
// k-RR debiasing — the second end-to-end estimation scenario next to the
// Figure-9 mean workload (ROADMAP: scenario diversity).

#ifndef NETSHUFFLE_ESTIMATION_FREQUENCY_ESTIMATION_H_
#define NETSHUFFLE_ESTIMATION_FREQUENCY_ESTIMATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/session.h"
#include "core/status.h"

namespace netshuffle {

struct FrequencyEstimationConfig {
  size_t categories = 16;
  /// Zipf-ish skew of the true category distribution (weight of category c
  /// is proportional to 1 / (c + 1)^skew).
  double skew = 1.0;
  /// Drives the users' categories and their local k-RR coins (and, under
  /// kSingle, the curator-side dummies); the exchange coins are the
  /// session's.
  uint64_t seed = 1;
};

struct FrequencyEstimationResult {
  /// Debiased category proportion estimates (sums to ~1).
  std::vector<double> estimate;
  /// The sampled ground-truth proportions.
  std::vector<double> true_frequency;
  /// sum_c |estimate[c] - true_frequency[c]| (total variation x 2).
  double l1_error = 0.0;
  size_t genuine_reports = 0;
  size_t dummy_reports = 0;
  size_t dropped_reports = 0;
  /// session.Guarantee() after the estimator's epoch: the certificate of
  /// the run that produced the estimate.
  PrivacyParams guarantee;
};

/// Samples a skewed category per user, k-RR randomizes it at
/// session.epsilon0() into a 4-byte bucket payload in the session's pending
/// arena, runs exactly one epoch of `session` to target_rounds(), counts
/// the buckets of FinalizeEpoch()'s delivered ids (out-of-range buckets are
/// ignored) and debiases the counts.  Under kSingle, dummy submitters draw
/// a uniform category and k-RR it (indistinguishable), and dropped surplus
/// reports are simply absent — both bias the estimate, the same utility
/// cost Figure 9 measures for the mean workload.  Zero categories is
/// kInvalidArgument; pending reports and seal failures as for
/// RunMeanEstimation (estimation/mean_estimation.h).
Expected<FrequencyEstimationResult> RunFrequencyEstimation(
    Session& session, const FrequencyEstimationConfig& config);

}  // namespace netshuffle

#endif  // NETSHUFFLE_ESTIMATION_FREQUENCY_ESTIMATION_H_
