// Figure 9 — privacy-utility trade-off of private mean estimation on the
// Twitch-like graph: expected squared l2 error vs the central epsilon, for
// A_all and A_single (PrivUnit, d = 200, N(1,1)/N(10,1) halves,
// uniform-direction dummies).
//
// Reproduced finding: for a fixed central epsilon, A_all's error stays below
// A_single's in the studied region.

#include <cstdio>
#include <utility>

#include "core/session.h"
#include "dp/privunit.h"
#include "estimation/mean_estimation.h"
#include "experiment_common.h"
#include "util/stats.h"
#include "util/table.h"

using namespace netshuffle;

int main() {
  BenchRunner bench("fig9_mean_estimation");
  const double scale = EnvScale();
  auto ds = LoadOrMakeDataset("twitch", 2022, scale);
  const size_t n = ds.graph.num_nodes();
  const size_t dim = 200;
  const int kTrials = 3;

  std::printf(
      "Figure 9 reproduction: mean-estimation utility vs central eps on the "
      "twitch graph\n(n=%zu, d=%zu, PrivUnit, %d trials per point, "
      "scale=%.2f)\n\n",
      n, dim, kTrials, scale);

  // One session per (eps0, protocol): PrivUnit goes in as its mechanism,
  // each trial is one of its epochs, and each column prints the capped
  // certificate of the session that produced the error beside it.
  // Rejections return from main (not std::exit, which would skip
  // BenchRunner's destructor and drop this harness's JSON off the perf
  // trajectory).
  bench.SetAccountant("stationary_bound");
  Table t({"eps0", "A_all central eps", "A_all sq err", "A_single central eps",
           "A_single sq err", "dummies"});
  bool printed_operating_point = false;
  for (double eps0 : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0}) {
    RunningStats err[2];
    PrivacyParams central[2];
    size_t dummies = 0;
    for (ReportingProtocol protocol :
         {ReportingProtocol::kAll, ReportingProtocol::kSingle}) {
      const int column = protocol == ReportingProtocol::kAll ? 0 : 1;
      SessionConfig config;
      config.SetGraph(Graph(ds.graph))
          .SetProtocol(protocol)
          .SetMechanism(PrivUnit(dim, eps0));
      Expected<Session> created = Session::Create(std::move(config));
      if (!created.ok()) {
        std::fprintf(stderr, "session rejected: %s\n",
                     created.status().ToString().c_str());
        bench.MarkFailed();
        return 1;
      }
      Session& session = created.value();
      if (!printed_operating_point) {
        std::printf("operating point: t = %zu rounds (alpha = %.5f)\n\n",
                    session.target_rounds(), session.spectral_gap());
        printed_operating_point = true;
      }
      for (int trial = 0; trial < kTrials; ++trial) {
        MeanEstimationConfig mean;
        mean.dim = dim;
        mean.seed = 1000 + static_cast<uint64_t>(trial);
        const auto r = RunMeanEstimation(session, mean);
        if (!r.ok()) {
          std::fprintf(stderr, "estimation failed: %s\n",
                       r.status().ToString().c_str());
          bench.MarkFailed();
          return 1;
        }
        err[column].Add(r.value().squared_error);
        central[column] = r.value().guarantee;
        if (protocol == ReportingProtocol::kSingle) {
          dummies = r.value().dummy_reports;
        }
      }
    }
    bench.SetHeadline("a_all_sq_err_eps0_4", err[0].mean());
    t.NewRow()
        .AddDouble(eps0, 2)
        .AddDouble(central[0].epsilon, 4)
        .AddSci(err[0].mean(), 3)
        .AddDouble(central[1].epsilon, 4)
        .AddSci(err[1].mean(), 3)
        .AddInt(static_cast<long long>(dummies));
  }
  t.Print();

  std::printf(
      "\nExpected shape: at any eps0, A_all's squared error is below "
      "A_single's (dummies + dropped\nreports hurt utility), even though "
      "A_single certifies a smaller central eps at large eps0 —\nmatching "
      "the paper's counter-example discussion.  The dummy count reflects "
      "the degree-skewed\nstationary placement of reports (paper: 7080 of "
      "9498 users; low-degree users rarely hold a\nreport), well above the "
      "1/e of a regular graph.\n");
  return 0;
}
