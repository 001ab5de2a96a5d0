// Extension study (paper Section 4.5, "Fault tolerance"): random walks on
// dynamic graphs.  Compares the mixing of network shuffling when a fraction
// of links is down each round (edge churn) and when users are lazy, against
// the static fault-free walk — in terms of the rounds needed to reach the
// near-stationary operating point and the resulting central epsilon.

#include <cstdio>
#include <optional>
#include <utility>

#include "core/session.h"
#include "dp/amplification.h"
#include "experiment_common.h"
#include "graph/dynamic.h"
#include "graph/generators.h"
#include "graph/walk.h"
#include "util/table.h"

using namespace netshuffle;

int main() {
  BenchRunner bench("extension_dynamic");
  const size_t n = 5000, k = 8;
  const double eps0 = 0.5;
  Rng rng(2022);
  Graph base = MakeRandomRegular(n, k, &rng);
  const std::optional<double> gap = ConvergedGap(base, &bench);
  if (!gap) return 1;
  const size_t t_mix = MixingTime(*gap, n);
  const double threshold = 1.05 / static_cast<double>(n);

  std::printf(
      "Dynamic-graph extension: mixing under edge churn and laziness "
      "(n=%zu, k=%zu, static t_mix=%zu)\n\n",
      n, k, t_mix);

  Table t({"scenario", "rounds to sumP^2<=1.05/n", "overhead",
           "eps at that t"});

  // Theorem 5.3 at a realized collision mass.
  bench.SetAccountant("stationary_bound");
  auto eps_at = [&](double sum_p_sq) {
    NetworkShufflingBoundInput in;
    in.epsilon0 = eps0;
    in.n = n;
    in.sum_p_squares = sum_p_sq;
    return EpsilonAllStationary(in);
  };

  size_t base_rounds = 0;
  // Static baseline.
  {
    PositionDistribution d(&base, 0);
    size_t rounds = 0;
    while (d.SumSquares() > threshold && rounds < 100000) {
      d.Step();
      ++rounds;
    }
    base_rounds = rounds;
    bench.SetHeadline("static_rounds_to_mix", static_cast<double>(rounds));
    t.NewRow()
        .Add("static")
        .AddInt(static_cast<long long>(rounds))
        .AddDouble(1.0, 2)
        .AddDouble(eps_at(d.SumSquares()), 4);
  }

  // Edge churn at several uptimes.
  for (double up : {0.8, 0.6, 0.4}) {
    EdgeChurnSchedule sched(Graph(base), up, 7);
    DynamicPositionDistribution d(&sched, 0);
    size_t rounds = 0;
    while (d.SumSquares() > threshold && rounds < 100000) {
      d.Step();
      ++rounds;
    }
    char label[32];
    std::snprintf(label, sizeof(label), "churn up=%.1f", up);
    t.NewRow()
        .Add(label)
        .AddInt(static_cast<long long>(rounds))
        .AddDouble(static_cast<double>(rounds) /
                       static_cast<double>(base_rounds),
                   2)
        .AddDouble(eps_at(d.SumSquares()), 4);
  }

  // Lazy walk (user-level unavailability).
  for (double beta : {0.2, 0.5}) {
    PositionDistribution d(&base, 0);
    size_t rounds = 0;
    while (d.SumSquares() > threshold && rounds < 100000) {
      d.LazyStep(beta);
      ++rounds;
    }
    char label[32];
    std::snprintf(label, sizeof(label), "lazy beta=%.1f", beta);
    t.NewRow()
        .Add(label)
        .AddInt(static_cast<long long>(rounds))
        .AddDouble(static_cast<double>(rounds) /
                       static_cast<double>(base_rounds),
                   2)
        .AddDouble(eps_at(d.SumSquares()), 4);
  }
  t.Print();

  // Session-level rewiring: run half the rounds on the base topology, swap
  // in an independently generated k-regular graph mid-run (peers re-joined
  // with fresh contact lists), finish, and check nothing was lost.
  {
    SessionConfig config;
    config.SetGraph(Graph(base)).SetEpsilon0(eps0).SetSeed(9);
    Session session = Session::Create(std::move(config)).value();
    const size_t pre_rewire_rounds = session.target_rounds() / 2;
    const Status stepped = session.Step(pre_rewire_rounds);
    if (!stepped.ok()) {
      NETSHUFFLE_FATAL("extension_dynamic: " + stepped.ToString());
    }
    Rng rewire_rng(77);
    const Status rewired =
        session.Rewire(MakeRandomRegular(n, k, &rewire_rng));
    const Status finished = session.StepToTarget();
    if (!finished.ok()) {
      NETSHUFFLE_FATAL("extension_dynamic: " + finished.ToString());
    }
    const auto result = session.Finalize();
    std::printf(
        "\nMid-run rewiring: %s after %zu of %zu rounds; %zu/%zu reports "
        "delivered, central eps=%.4f\n",
        rewired.ok() ? "swapped topology" : rewired.ToString().c_str(),
        pre_rewire_rounds, session.current_round(),
        result.server_inbox.size(), n, session.Guarantee().epsilon);
  }

  std::printf(
      "\nReading: faults cost extra rounds (~1/up for churn, ~1/(1-beta) for "
      "laziness) but the\nasymptotic privacy is unchanged — supporting the "
      "paper's lazy-walk fault-tolerance argument.\n");
  return 0;
}
