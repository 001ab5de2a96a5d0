// Federated mean estimation (the paper's Figure-9 workload): users hold
// d-dimensional unit vectors (e.g. model updates), randomize them with
// PrivUnit, and deliver them via network shuffling.  Compares the A_all and
// A_single protocols at equal local budget: each estimate is one epoch of a
// validated Session per protocol (PrivUnit plugs in as the session's
// Mechanism), printed beside that session's certificate.
//
//   ./examples/federated_mean [epsilon0] [dim]

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "core/session.h"
#include "dp/privunit.h"
#include "estimation/mean_estimation.h"
#include "graph/generators.h"
#include "util/rng.h"

using namespace netshuffle;

int main(int argc, char** argv) {
  const double epsilon0 = argc > 1 ? std::strtod(argv[1], nullptr) : 2.0;
  const size_t dim = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 64;
  const size_t n = 3000, k = 8;

  std::printf("Federated private mean estimation (n=%zu, d=%zu, eps0=%.2f)\n\n",
              n, dim, epsilon0);

  Rng rng(5);
  Graph graph = MakeRandomRegular(n, k, &rng);
  const PrivUnit mechanism(dim, epsilon0);

  MeanEstimationConfig config;
  config.dim = dim;
  config.seed = 17;
  for (ReportingProtocol protocol :
       {ReportingProtocol::kAll, ReportingProtocol::kSingle}) {
    SessionConfig session_config;
    session_config.SetGraph(Graph(graph))
        .SetProtocol(protocol)
        .SetMechanism(mechanism);
    Expected<Session> created = Session::Create(std::move(session_config));
    if (!created.ok()) {
      std::fprintf(stderr, "session rejected: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    // One epoch of the session: the error and the certificate printed
    // beside it come from the same run.
    const auto result = RunMeanEstimation(created.value(), config);
    if (!result.ok()) {
      std::fprintf(stderr, "estimation failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const MeanEstimationResult& r = result.value();
    std::printf("%-8s  central eps=%.4f  l2^2 error=%.5f  genuine=%zu  "
                "dummies=%zu  dropped=%zu\n",
                protocol == ReportingProtocol::kAll ? "A_all" : "A_single",
                r.guarantee.epsilon, r.squared_error, r.genuine_reports,
                r.dummy_reports, r.dropped_reports);
  }

  // Non-private and central-shuffler baselines for context.
  const auto uniform = RunMeanEstimationUniformShuffle(n, epsilon0, config);
  std::printf("%-8s  (trusted shuffler)  l2^2 error=%.5f\n", "uniform",
              uniform.squared_error);
  return 0;
}
