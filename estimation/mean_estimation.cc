#include "estimation/mean_estimation.h"

#include <cmath>
#include <vector>

#include "dp/privunit.h"
#include "shuffle/payload.h"
#include "util/rng.h"

namespace netshuffle {
namespace {

std::vector<double> NormalizedGaussian(size_t dim, double mean, Rng* rng) {
  std::vector<double> v(dim);
  double norm_sq = 0.0;
  for (double& x : v) {
    x = mean + rng->Gaussian();
    norm_sq += x * x;
  }
  const double inv = norm_sq > 0.0 ? 1.0 / std::sqrt(norm_sq) : 0.0;
  for (double& x : v) x *= inv;
  return v;
}

/// Emits every user's PrivUnit output as an 8d-byte vector payload into
/// `arena` and returns the true mean.
std::vector<double> EmitWorkload(size_t n, size_t dim, const PrivUnit& pu,
                                 Rng* rng, PayloadArena* arena) {
  std::vector<double> true_mean(dim, 0.0);
  arena->Reserve(n, n * pu.payload_size());
  for (size_t u = 0; u < n; ++u) {
    const double mu = u < n / 2 ? 1.0 : 10.0;
    const auto truth = NormalizedGaussian(dim, mu, rng);
    for (size_t i = 0; i < dim; ++i) true_mean[i] += truth[i];
    pu.EmitReport(static_cast<NodeId>(u), truth, rng, arena);
  }
  for (double& x : true_mean) x /= static_cast<double>(n);
  return true_mean;
}

double SquaredError(const std::vector<double>& est,
                    const std::vector<double>& truth) {
  double err = 0.0;
  for (size_t i = 0; i < est.size(); ++i) {
    const double d = est[i] - truth[i];
    err += d * d;
  }
  return err;
}

}  // namespace

Expected<MeanEstimationResult> RunMeanEstimation(
    Session& session, const MeanEstimationConfig& config) {
  if (session.pending_reports() > 0) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "RunMeanEstimation: the session's pending reports "
                         "would join the estimator's epoch");
  }
  Rng rng(config.seed);
  const PrivUnit pu(config.dim, session.epsilon0());
  const std::vector<double> true_mean = EmitWorkload(
      session.num_users(), config.dim, pu, &rng, session.pending_arena());
  Status status = session.BeginEpoch();
  if (!status.ok()) return status;
  status = session.StepToTarget();
  if (!status.ok()) return status;
  const ProtocolResult pr = session.FinalizeEpoch();

  MeanEstimationResult result;
  result.genuine_reports = pr.server_inbox.size();
  result.dummy_reports = pr.dummy_reports;
  result.dropped_reports = pr.dropped_reports;
  result.guarantee = session.Guarantee();

  // Curator-side aggregation straight from the arena slices the delivered
  // ids index into.
  std::vector<double> est(config.dim, 0.0);
  size_t contributions = 0;
  for (const FinalReport& fr : pr.server_inbox) {
    const std::vector<double> v = pr.payloads->VectorAt(fr.id);
    for (size_t i = 0; i < config.dim; ++i) est[i] += v[i];
    ++contributions;
  }
  if (session.protocol() == ReportingProtocol::kSingle) {
    // Indistinguishable dummies: a dummy submitter knows nothing about the
    // data distribution, so it PrivUnit-randomizes a uniformly random
    // direction — same ciphertext norm as every genuine report.
    for (size_t d = 0; d < pr.dummy_reports; ++d) {
      const auto dummy = pu.Randomize(
          NormalizedGaussian(config.dim, 0.0, &rng), &rng);
      for (size_t i = 0; i < config.dim; ++i) est[i] += dummy[i];
      ++contributions;
    }
  }
  if (contributions > 0) {
    for (double& x : est) x /= static_cast<double>(contributions);
  }
  result.squared_error = SquaredError(est, true_mean);
  return result;
}

MeanEstimationResult RunMeanEstimationUniformShuffle(
    size_t n, double epsilon0, const MeanEstimationConfig& config) {
  Rng rng(config.seed);
  PayloadArena arena;
  const std::vector<double> true_mean = EmitWorkload(
      n, config.dim, PrivUnit(config.dim, epsilon0), &rng, &arena);
  std::vector<double> est(config.dim, 0.0);
  for (ReportId r = 0; r < static_cast<ReportId>(n); ++r) {
    const std::vector<double> v = arena.VectorAt(r);
    for (size_t i = 0; i < config.dim; ++i) est[i] += v[i];
  }
  for (double& x : est) x /= static_cast<double>(n);

  MeanEstimationResult result;
  result.genuine_reports = n;
  result.squared_error = SquaredError(est, true_mean);
  return result;
}

}  // namespace netshuffle
