#include "estimation/frequency_estimation.h"

#include <cmath>
#include <vector>

#include "dp/ldp.h"
#include "shuffle/payload.h"
#include "util/rng.h"

namespace netshuffle {

Expected<FrequencyEstimationResult> RunFrequencyEstimation(
    Session& session, const FrequencyEstimationConfig& config) {
  if (session.pending_reports() > 0) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "RunFrequencyEstimation: the session's pending "
                         "reports would join the estimator's epoch");
  }
  if (config.categories == 0) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "RunFrequencyEstimation: zero categories");
  }
  const size_t n = session.num_users();
  const size_t k = config.categories;
  Rng rng(config.seed);
  const KRandomizedResponse rr(k, session.epsilon0());

  // Ground truth: skewed category weights, one draw per user, k-RR bytes
  // into the arena.
  std::vector<double> weights(k);
  for (size_t c = 0; c < k; ++c) {
    weights[c] = 1.0 / std::pow(static_cast<double>(c + 1), config.skew);
  }
  FrequencyEstimationResult result;
  result.true_frequency.assign(k, 0.0);
  PayloadArena* arena = session.pending_arena();
  arena->Reserve(n, n * rr.payload_size());
  for (size_t u = 0; u < n; ++u) {
    // ns-lint: allow(narrow32): Discrete returns an index < k categories.
    const uint32_t truth = static_cast<uint32_t>(rng.Discrete(weights));
    result.true_frequency[truth] += 1.0;
    rr.EmitReport(static_cast<NodeId>(u), truth, &rng, arena);
  }
  for (double& f : result.true_frequency) f /= static_cast<double>(n);
  Status status = session.BeginEpoch();
  if (!status.ok()) return status;
  status = session.StepToTarget();
  if (!status.ok()) return status;
  const ProtocolResult pr = session.FinalizeEpoch();
  result.genuine_reports = pr.server_inbox.size();
  result.dummy_reports = pr.dummy_reports;
  result.dropped_reports = pr.dropped_reports;
  result.guarantee = session.Guarantee();

  // Curator-side: count the buckets straight from the arena slices.
  std::vector<uint64_t> counts(k, 0);
  size_t contributions = 0;
  for (const FinalReport& fr : pr.server_inbox) {
    const uint32_t bucket = pr.payloads->BucketAt(fr.id);
    if (bucket < k) ++counts[bucket];
    ++contributions;
  }
  if (session.protocol() == ReportingProtocol::kSingle) {
    // Indistinguishable dummies: a uniform category through the same k-RR.
    for (size_t d = 0; d < pr.dummy_reports; ++d) {
      // ns-lint: allow(narrow32): uniform dummy category, < k.
      const uint32_t uniform = static_cast<uint32_t>(rng.UniformInt(k));
      ++counts[rr.Randomize(uniform, &rng)];
      ++contributions;
    }
  }
  result.estimate = rr.DebiasCounts(counts, contributions);
  for (size_t c = 0; c < k; ++c) {
    result.l1_error += std::fabs(result.estimate[c] - result.true_frequency[c]);
  }
  return result;
}

}  // namespace netshuffle
