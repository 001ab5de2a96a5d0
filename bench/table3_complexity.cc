// Table 3 — complexity comparison: Prochlo vs mix-nets vs network shuffling.
//
//   entity space complexity : O(n) / O(1) / O(1)
//   user traffic complexity : O(1) / O(n) / O(log n) (or O(1))
//
// Measured empirically from the three simulators over a sweep of n; the
// reproduced result is the *scaling* of each measured column.

#include <cmath>
#include <cstdio>
#include <optional>

#include "baselines/mixnet.h"
#include "baselines/prochlo.h"
#include "experiment_common.h"
#include "graph/generators.h"
#include "shuffle/engine.h"
#include "util/table.h"

using namespace netshuffle;

int main() {
  BenchRunner bench("table3_complexity");
  std::printf(
      "Table 3 reproduction: measured entity memory (reports buffered) and "
      "per-user traffic (reports sent).\nNetwork shuffling runs t* = "
      "alpha^-1 log n rounds on a random 8-regular graph; per-round user "
      "traffic is O(1).\n\n");

  Table t({"n", "prochlo mem", "prochlo traffic", "mixnet mem",
           "mixnet traffic", "network mem", "network traffic",
           "network rounds"});

  size_t prev_net_traffic = 0;
  for (size_t n : {size_t{1000}, size_t{2000}, size_t{4000}, size_t{8000},
                   size_t{16000}}) {
    // Prochlo.
    ShuffleMetrics pm(n);
    RunProchlo(n, ProchloOptions{}, &pm);

    // Mix-net with cover traffic.
    ShuffleMetrics mm(n);
    RunMixnet(n, MixnetOptions{}, &mm);

    // Network shuffling at mixing time.
    Rng rng(7);
    Graph g = MakeRandomRegular(n, 8, &rng);
    const std::optional<double> gap = ConvergedGap(g, &bench);
    if (!gap) return 1;
    const size_t rounds = MixingTime(*gap, n);
    ShuffleMetrics nm(n);
    ExchangeOptions opts;
    opts.rounds = rounds;
    RunCountedExchange(g, opts, &nm);

    t.NewRow()
        .AddInt(static_cast<long long>(n))
        .AddInt(static_cast<long long>(pm.peak_entity_memory()))
        .AddInt(static_cast<long long>(pm.max_user_traffic()))
        .AddInt(static_cast<long long>(mm.peak_entity_memory()))
        .AddInt(static_cast<long long>(mm.max_user_traffic()))
        .AddInt(static_cast<long long>(nm.max_user_memory()))
        .AddDouble(nm.mean_user_traffic(), 1)
        .AddInt(static_cast<long long>(rounds));
    prev_net_traffic = static_cast<size_t>(nm.mean_user_traffic());
    bench.SetHeadline("network_mean_traffic_n16000", nm.mean_user_traffic());
  }
  (void)prev_net_traffic;
  t.Print();

  std::printf(
      "\nExpected shape: prochlo memory grows linearly in n (O(n)); mixnet "
      "traffic grows linearly in n (O(n));\nnetwork shuffling keeps O(1)-ish "
      "per-user memory while its total traffic per user grows only with the "
      "round count\n(t* ~ alpha^-1 log n; per-round traffic is O(1)).\n");
  return 0;
}
