// Quickstart: build a communication graph, validate it into a Session, step
// the exchange incrementally while watching the certified central epsilon
// tighten, and deliver the reports to the untrusted curator.
//
//   ./examples/quickstart [n] [k] [epsilon0]

#include <cstdio>
#include <cstdlib>

#include "core/session.h"
#include "graph/generators.h"
#include "shuffle/server.h"
#include "util/rng.h"

using namespace netshuffle;

int main(int argc, char** argv) {
  const size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 10000;
  const size_t k = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 8;
  const double epsilon0 = argc > 3 ? std::strtod(argv[3], nullptr) : 1.0;

  std::printf("netshuffle quickstart: n=%zu, k=%zu, epsilon0=%.2f\n\n", n, k,
              epsilon0);

  // 1. The communication network: a random k-regular graph, as produced by
  //    a peer-discovery protocol where everyone keeps k contacts.
  Rng rng(2022);
  Graph graph = MakeRandomRegular(n, k, &rng);

  // 2. Configure and validate the session.  SetRounds(0) (the default)
  //    selects the mixing time alpha^-1 log n; bad configs come back as
  //    typed Status errors instead of NaN results.
  SessionConfig config;
  config.SetGraph(std::move(graph))
      .SetProtocol(ReportingProtocol::kAll)
      .SetEpsilon0(epsilon0);
  Expected<Session> created = Session::Create(std::move(config));
  if (!created.ok()) {
    std::fprintf(stderr, "invalid session config: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  Session session = std::move(created).value();

  std::printf("spectral gap alpha      : %.5f\n", session.spectral_gap());
  std::printf("exchange rounds t*      : %zu  (mixing time)\n",
              session.target_rounds());
  std::printf("irregularity Gamma(t*)  : %.4f\n", session.Gamma());

  // 3. Run the exchange incrementally: after each chunk of rounds, ask the
  //    session what the eps0-LDP reports amount to in the central model
  //    so far.  The guarantee starts at the (eps0, 0) LDP floor and tightens
  //    as the walk mixes.
  std::printf("\nround   central eps  (capped at the eps0 floor)\n");
  while (session.current_round() < session.target_rounds()) {
    const size_t chunk = (session.target_rounds() + 3) / 4;
    const size_t remaining = session.target_rounds() - session.current_round();
    const Status stepped = session.Step(chunk < remaining ? chunk : remaining);
    if (!stepped.ok()) {
      std::fprintf(stderr, "exchange failed: %s\n", stepped.ToString().c_str());
      return 1;
    }
    const PrivacyParams sofar = session.Guarantee();
    std::printf("%5zu   (%.4f, %.2e)-DP\n", session.current_round(),
                sofar.epsilon, sofar.delta);
  }

  const PrivacyParams central = session.Guarantee();
  std::printf("\ncentral guarantee       : (%.4f, %.2e)-DP  (local eps0=%.2f)\n",
              central.epsilon, central.delta, epsilon0);
  std::printf("amplification factor    : %.2fx\n\n",
              epsilon0 / central.epsilon);

  // 4. Deliver to the untrusted curator.  Finalize does not consume the
  //    session — stepping could continue for an even tighter epsilon.
  Server server(n);
  server.ReceiveAll(session.Finalize().server_inbox);
  std::printf("reports at curator      : %zu (coverage %.1f%%)\n",
              server.num_received(), 100.0 * server.PayloadCoverage());

  size_t moved = 0;
  for (const auto& fr : server.inbox()) {
    moved += (fr.final_holder != fr.origin);
  }
  if (server.num_received() > 0) {
    std::printf("reports that moved      : %.1f%% (final holder != origin)\n",
                100.0 * static_cast<double>(moved) /
                    static_cast<double>(server.num_received()));
  } else {
    std::printf("reports that moved      : n/a (empty inbox)\n");
  }
  return 0;
}
