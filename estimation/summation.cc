#include "estimation/summation.h"

#include <cmath>
#include <string>

#include "dp/ldp.h"
#include "shuffle/payload.h"

namespace netshuffle {

double SummationRmse(const std::vector<double>& values, double epsilon,
                     bool central, size_t trials, Rng* rng) {
  // The estimator error is pure noise (the values cancel), so only the noise
  // needs simulating.
  const double scale = 1.0 / epsilon;
  double sum_sq_err = 0.0;
  for (size_t t = 0; t < trials; ++t) {
    double err = 0.0;
    if (central) {
      err = rng->Laplace(scale);
    } else {
      for (size_t i = 0; i < values.size(); ++i) err += rng->Laplace(scale);
    }
    sum_sq_err += err * err;
  }
  return std::sqrt(sum_sq_err / static_cast<double>(trials));
}

Expected<NetworkSummationResult> SummationOverNetwork(
    Session& session, const std::vector<double>& values, double lo, double hi,
    uint64_t seed) {
  const size_t n = session.num_users();
  if (session.pending_reports() > 0) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "SummationOverNetwork: the session's pending reports "
                         "would join the estimator's epoch");
  }
  if (session.protocol() != ReportingProtocol::kAll) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "SummationOverNetwork: the sum is unbiased only if "
                         "every report arrives, which needs a kAll session");
  }
  if (values.size() != n) {
    return Status::Error(
        StatusCode::kInvalidArgument,
        "SummationOverNetwork: " + std::to_string(values.size()) +
            " values for a " + std::to_string(n) + "-user session");
  }
  Rng rng(seed);
  const LaplaceMechanism lap(lo, hi, session.epsilon0());

  NetworkSummationResult result;
  PayloadArena* arena = session.pending_arena();
  arena->Reserve(n, n * lap.payload_size());
  for (size_t u = 0; u < n; ++u) {
    result.true_sum += values[u];
    lap.EmitReport(static_cast<NodeId>(u), values[u], &rng, arena);
  }
  Status status = session.BeginEpoch();
  if (!status.ok()) return status;
  status = session.StepToTarget();
  if (!status.ok()) return status;
  const ProtocolResult pr = session.FinalizeEpoch();

  // Curator-side aggregation straight from the arena slices.
  for (const FinalReport& fr : pr.server_inbox) {
    result.estimate += pr.payloads->ScalarAt(fr.id);
  }
  result.delivered_reports = pr.server_inbox.size();
  result.guarantee = session.Guarantee();
  return result;
}

}  // namespace netshuffle
