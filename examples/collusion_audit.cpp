// Collusion audit: how much anonymity does a victim's report keep when a
// fraction of a social network colludes with the curator?  (Relaxes the
// paper's non-collusion assumption, Section 4.5.)  The clean guarantee comes
// from a validated Session; the collusion-degraded one evaluates the same
// theorem at the session's collision-mass bound times the inflation.
//
//   ./examples/collusion_audit [fraction] [epsilon0]

#include <cstdio>
#include <cstdlib>

#include "core/session.h"
#include "data/datasets.h"
#include "dp/amplification.h"
#include "graph/anonymity.h"
#include "graph/walk.h"
#include "shuffle/adversary.h"
#include "util/rng.h"

using namespace netshuffle;

int main(int argc, char** argv) {
  const double fraction = argc > 1 ? std::strtod(argv[1], nullptr) : 0.05;
  const double epsilon0 = argc > 2 ? std::strtod(argv[2], nullptr) : 1.0;

  auto ds = MakeDatasetByName("facebook", 5, /*scale=*/0.15);
  const size_t n = ds.graph.num_nodes();

  SessionConfig config;
  config.SetGraph(Graph(ds.graph)).SetEpsilon0(epsilon0);
  Expected<Session> created = Session::Create(std::move(config));
  if (!created.ok()) {
    std::fprintf(stderr, "session rejected: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  Session session = std::move(created).value();
  const size_t rounds = session.target_rounds();

  std::printf("Collusion audit on a facebook-like graph\n");
  std::printf("n=%zu, Gamma=%.3f, t=t_mix=%zu, colluder fraction=%.1f%%\n\n",
              n, ds.actual_gamma, rounds, 100.0 * fraction);

  Rng rng(11);
  const size_t count = static_cast<size_t>(fraction * n);
  const auto colluders = SampleColluders(ds.graph, count, /*victim=*/0, &rng);
  const auto audit = AnalyzeCollusion(ds.graph, colluders, /*origin=*/0,
                                      rounds);

  std::printf("P[report sighted by a colluder]  : %.4f\n",
              audit.sighting_probability);
  std::printf("anonymity of unsighted report    : %.1f users (of %zu)\n",
              audit.sighting_probability < 1.0
                  ? EffectiveAnonymitySetSize(audit.unseen_position)
                  : 1.0,
              n);
  std::printf("sum P^2 inflation                : %.3f\n\n",
              audit.sum_squares_inflation);

  // Amplification with and without the collusion penalty on unsighted
  // reports: Theorem 5.3, the second time at the inflated collision mass.
  const double eps_clean = session.RawGuaranteeAt(rounds, epsilon0).epsilon;
  NetworkShufflingBoundInput penalized;
  penalized.epsilon0 = epsilon0;
  penalized.n = n;
  penalized.sum_p_squares =
      SumSquaresBound(ComputeStationaryMoments(ds.graph),
                      session.spectral_gap(), rounds) *
      audit.sum_squares_inflation;
  const double eps_collusion = EpsilonAllStationary(penalized);
  std::printf("central eps (no collusion)       : %.4f\n", eps_clean);
  std::printf("central eps (unsighted reports)  : %.4f\n", eps_collusion);
  std::printf("sighted reports fall back to     : eps0 = %.4f (LDP floor)\n",
              epsilon0);
  return 0;
}
