// IoT / wireless-sensor deployment: devices on a 2-D torus grid (radio
// range = grid neighbors) privately report scalar readings with the Laplace
// mechanism.  Demonstrates fault tolerance: a fraction of devices sleeps
// each round (lazy random walk), which slows mixing but loses nothing — the
// Session runs lazy-adjusted rounds with the fault model plugged in.
//
//   ./examples/iot_sensors [grid_side] [laziness]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/session.h"
#include "dp/ldp.h"
#include "graph/generators.h"
#include "shuffle/engine.h"
#include "shuffle/fault.h"
#include "util/rng.h"
#include "util/stats.h"

using namespace netshuffle;

int main(int argc, char** argv) {
  // An even-sided torus is bipartite (no ergodic walk) — Session::Create
  // would reject it with kNonErgodicGraph — so force odd.
  const size_t side =
      (argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 41) | 1;
  const double laziness = argc > 2 ? std::strtod(argv[2], nullptr) : 0.2;
  const size_t n = side * side;
  const double epsilon0 = 1.5;

  std::printf("IoT sensor mesh: %zux%zu torus (n=%zu), laziness=%.2f\n\n",
              side, side, n, laziness);

  Graph graph = MakeTorus(side, side);

  // Sensor readings in [0, 40] degrees; Laplace-randomized locally into
  // 8-byte scalar payloads the exchange routes by id.
  Rng rng(31);
  LaplaceMechanism lap(0.0, 40.0, epsilon0);
  PayloadArena payloads;
  payloads.Reserve(n, n * lap.payload_size());
  double true_mean = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double reading = 15.0 + 10.0 * rng.UniformDouble();
    true_mean += reading;
    lap.EmitReport(static_cast<NodeId>(i), reading, &rng, &payloads);
  }
  true_mean /= static_cast<double>(n);

  // One session owns the whole pipeline: graph, mechanism, payloads, fault
  // model, and metrics.  Rounds are set after probing the mixing time below.
  LazyFaultModel faults(laziness);
  ShuffleMetrics metrics(n);
  SessionConfig config;
  config.SetGraph(std::move(graph))
      .SetMechanism(lap)
      .SetPayloads(std::move(payloads))
      .SetProtocol(ReportingProtocol::kAll)
      .SetSeed(77)
      .SetFaults(&faults)
      .SetMetrics(&metrics);
  Expected<Session> created = Session::Create(std::move(config));
  if (!created.ok()) {
    std::fprintf(stderr, "session rejected: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  Session session = std::move(created).value();

  // Lazy devices need ~1/(1-beta) more rounds to mix as well as the
  // fault-free mixing time the session certifies at.
  const size_t t_mix = session.mixing_rounds();
  const size_t rounds = static_cast<size_t>(
      static_cast<double>(t_mix) / (1.0 - laziness)) + 1;
  const Status stepped = session.Step(rounds);
  if (!stepped.ok()) {
    std::fprintf(stderr, "exchange failed: %s\n", stepped.ToString().c_str());
    return 1;
  }
  const auto delivered = session.Finalize();

  // Curator-side aggregation straight from the arena slices the delivered
  // report ids index into.
  double est = 0.0;
  for (const auto& fr : delivered.server_inbox) {
    est += delivered.payloads->ScalarAt(fr.id);
  }
  est /= static_cast<double>(delivered.server_inbox.size());

  // The lazy-adjusted run mixes at least as well as t_mix fault-free rounds,
  // which is the operating point the guarantee is quoted at.
  const PrivacyParams central = session.GuaranteeAt(t_mix, epsilon0);
  std::printf("rounds (lazy-adjusted) : %zu\n", rounds);
  std::printf("reports delivered      : %zu / %zu\n",
              delivered.server_inbox.size(), n);
  std::printf("messages per device    : %.1f (mean)\n",
              metrics.mean_user_traffic());
  std::printf("central guarantee      : (%.4f, %.1e)-DP\n", central.epsilon,
              central.delta);
  std::printf("true mean %.3f  |  estimate %.3f  |  error %.3f\n", true_mean,
              est, est - true_mean);
  return 0;
}
