// Figure 4 — privacy / communication trade-off on the three similar-size
// social graphs (Facebook, Twitch, Deezer; n ~ 1-3 x 10^4).
//
// Plots central epsilon of A_all (stationary-distribution bound,
// Theorem 5.3) against the number of communication rounds t; epsilon should
// decrease monotonically and converge at around t ~ alpha^-1 log n (~10^3
// for these graphs in the paper).  Each dataset is validated into a Session
// once and the curve is the session's hypothetical-round accounting query
// (no exchange is executed — RawGuaranteeAt is an O(1) bound evaluation).

#include <cmath>
#include <cstdio>
#include <utility>

#include "core/session.h"
#include "experiment_common.h"
#include "util/table.h"

using namespace netshuffle;

int main() {
  BenchRunner bench("fig4_privacy_rounds");
  const double scale = EnvScale();
  const double eps0 = 2.0;
  const double delta = 0.5e-6, delta2 = 0.5e-6;
  std::printf(
      "Figure 4 reproduction: central eps (A_all, stationary bound) vs "
      "communication rounds\n(eps0=%.1f, delta=delta2=%.1e, scale=%.2f)\n\n",
      eps0, delta, scale);

  const char* names[] = {"facebook", "twitch", "deezer"};
  Table t({"t", "facebook eps", "twitch eps", "deezer eps"});

  std::vector<Session> sessions;
  for (const char* name : names) {
    auto ds = LoadOrMakeDataset(name, 2022, scale);
    SessionConfig config;
    config.SetGraph(std::move(ds.graph))
        .SetEpsilon0(eps0)
        .SetDeltaSplit(delta, delta2);
    Expected<Session> created = Session::Create(std::move(config));
    if (!created.ok()) {
      std::fprintf(stderr, "%s rejected: %s\n", name,
                   created.status().ToString().c_str());
      bench.MarkFailed();
      return 1;
    }
    sessions.push_back(std::move(created).value());
    const Session& s = sessions.back();
    std::printf("%-9s n=%-7zu alpha=%.5f  t_mix=alpha^-1 log n=%zu\n", name,
                s.graph().num_nodes(), s.spectral_gap(), s.mixing_rounds());
  }
  std::printf("\n");

  double eps_facebook_final = 0.0;
  for (size_t tstep = 1; tstep <= 1 << 14; tstep *= 2) {
    t.NewRow().AddInt(static_cast<long long>(tstep));
    for (size_t d = 0; d < sessions.size(); ++d) {
      const double eps = sessions[d].RawGuaranteeAt(tstep, eps0).epsilon;
      if (d == 0) eps_facebook_final = eps;
      t.AddDouble(eps, 4);
    }
  }
  t.Print();
  bench.SetHeadline("facebook_eps_t16384", eps_facebook_final);
  bench.SetAccountant("stationary_bound");
  for (size_t d = 0; d < sessions.size(); ++d) {
    bench.AddMetric(std::string(names[d]) + "_t_mix",
                    static_cast<double>(sessions[d].mixing_rounds()));
  }

  std::printf(
      "\nExpected shape: all three curves decrease monotonically in t and "
      "flatten near their t_mix\n(the paper's ~10^3 at full scale); the "
      "asymptote ordering follows Gamma and n.\n");
  return 0;
}
