#include "shuffle/engine.h"

#include <cmath>
#include <cstdio>
#include <vector>

#include "graph/generators.h"
#include "graph/walk.h"
#include "shuffle/fault.h"
#include "shuffle/server.h"
#include "tests/test_util.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace netshuffle;

namespace {

// Upper 1e-6 point of the chi-square law with `df` degrees of freedom, by
// the Wilson-Hilferty cube approximation (within 1% for df >= 3, and above
// the exact point at df 1-2, where it only makes the test more lenient).
double ChiSquareCritical(size_t df) {
  const double k = static_cast<double>(df);
  const double z = 4.753424;  // upper 1e-6 quantile of N(0, 1)
  const double c = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
  return k * c * c * c;
}

// Chi-square goodness of fit of `holders` (one final holder per trial)
// against the exact position law `p`.  Users the law gives zero mass must
// never be seen; users with expected count < 5 are pooled into one bin.
void CheckWalkLaw(const std::vector<NodeId>& holders,
                  const std::vector<double>& p, const char* label) {
  const double trials = static_cast<double>(holders.size());
  std::vector<double> seen(p.size(), 0.0);
  for (NodeId v : holders) seen[v] += 1.0;
  double stat = 0.0, pooled_seen = 0.0, pooled_expected = 0.0;
  size_t bins = 0;
  for (size_t v = 0; v < p.size(); ++v) {
    if (p[v] == 0.0) {
      CHECK(seen[v] == 0.0);
      continue;
    }
    const double expected = trials * p[v];
    if (expected < 5.0) {
      pooled_seen += seen[v];
      pooled_expected += expected;
      continue;
    }
    stat += (seen[v] - expected) * (seen[v] - expected) / expected;
    ++bins;
  }
  if (pooled_expected > 0.0) {
    stat += (pooled_seen - pooled_expected) * (pooled_seen - pooled_expected) /
            pooled_expected;
    ++bins;
  }
  CHECK(bins >= 2);
  const double critical = ChiSquareCritical(bins - 1);
  std::printf("walk law %-14s chi2 = %7.2f, df = %2zu, 1e-6 point = %6.2f\n",
              label, stat, bins - 1, critical);
  CHECK(stat < critical);
}

// Report 0's holder after 1, 2 and 5 rounds must follow the walk from user
// 0 (the lazy walk under `faults`), over `trials` fixed seeds.  The
// differential tests pin the engine to its own reference schedule; this
// pins the schedule to the law it must realize.  Trials run in parallel,
// each stepping its own exchange (nested engine dispatch runs inline).
void CheckReportZeroLaw(const Graph& g, const LazyFaultModel* faults,
                        size_t trials) {
  const size_t checkpoints[] = {1, 2, 5};
  std::vector<std::vector<NodeId>> holders(3, std::vector<NodeId>(trials));
  ParallelFor(trials, 64, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ExchangeResult ex = StartExchange(g);
      size_t done = 0;
      for (size_t k = 0; k < 3; ++k) {
        ExchangeOptions opts;
        opts.rounds = checkpoints[k] - done;
        opts.seed = 0x5eed0000 + i;
        opts.faults = faults;
        ex = ResumeExchange(g, std::move(ex), opts);
        done = checkpoints[k];
        holders[k][i] = ex.holders[0];
      }
    }
  });
  PositionDistribution law(&g, 0);
  size_t t = 0;
  for (size_t k = 0; k < 3; ++k) {
    for (; t < checkpoints[k]; ++t) {
      if (faults != nullptr) {
        law.LazyStep(faults->laziness());
      } else {
        law.Step();
      }
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%s t=%zu",
                  faults != nullptr ? "lazy" : "simple", t);
    CheckWalkLaw(holders[k], law.probabilities(), label);
  }
}

}  // namespace

int main() {
  const size_t n = 3000, k = 8, rounds = 20;
  Rng rng(5);
  Graph g = MakeRandomRegular(n, k, &rng);

  // Report conservation through the exchange.
  ExchangeOptions opts;
  opts.rounds = rounds;
  opts.seed = 99;
  ShuffleMetrics metrics(n);
  opts.metrics = &metrics;
  ExchangeResult ex = RunExchange(g, opts);
  CHECK(ex.rounds == rounds);
  size_t total = 0;
  std::vector<bool> seen(n, false);
  CHECK(ex.holdings.num_users() == n);
  for (NodeId u = 0; u < n; ++u) {
    for (const ReportId id : ex.holdings.reports(u)) {
      ++total;
      const NodeId origin = ex.payloads->origin(id);
      CHECK(!seen[origin]);
      seen[origin] = true;
    }
  }
  CHECK(total == n);
  CHECK(ex.holdings.num_reports() == n);

  // Every user forwards each held report once per round: mean traffic ==
  // rounds exactly (no faults), and holdings stay O(1)-ish.
  CHECK_NEAR(metrics.mean_user_traffic(), static_cast<double>(rounds), 1e-9);
  CHECK(metrics.max_user_memory() >= 1);
  CHECK(metrics.max_user_memory() < 30);
  CHECK(metrics.peak_entity_memory() == 0);  // no central entity

  // Report conservation through FinalizeProtocol, for EVERY protocol: each
  // of the n injected reports is either delivered exactly once or counted
  // as dropped, and dummies account for the empty-handed users.
  for (ReportingProtocol protocol :
       {ReportingProtocol::kAll, ReportingProtocol::kSingle}) {
    const ProtocolResult fin = FinalizeProtocol(ex, protocol, 1);
    std::vector<bool> delivered(n, false);
    for (const FinalReport& fr : fin.server_inbox) {
      CHECK(!delivered[fr.origin]);  // no duplication, ever
      CHECK(fin.payloads->origin(fr.id) == fr.origin);  // denormalization
      delivered[fr.origin] = true;
    }
    CHECK(fin.server_inbox.size() + fin.dropped_reports == n);
    size_t holders = 0;
    for (NodeId u = 0; u < n; ++u) holders += ex.holdings.count(u) > 0;
    CHECK(fin.dummy_reports == n - holders);
    if (protocol == ReportingProtocol::kAll) {
      CHECK(fin.dropped_reports == 0);  // kAll submits everything held
    } else {
      CHECK(fin.server_inbox.size() == holders);  // one per holding user
    }
  }

  // kAll delivers all n reports; the server sees full coverage.
  ProtocolResult all = FinalizeProtocol(ex, ReportingProtocol::kAll, 1);
  CHECK(all.server_inbox.size() == n);
  CHECK(all.dropped_reports == 0);
  Server server(n);
  server.ReceiveAll(all.server_inbox);
  CHECK(server.num_received() == n);
  CHECK_NEAR(server.PayloadCoverage(), 1.0, 1e-12);

  // After 20 rounds on an expander nearly every report moved.
  size_t moved = 0;
  for (const auto& fr : server.inbox()) {
    moved += fr.final_holder != fr.origin;
  }
  CHECK(moved > n / 2);

  // kSingle: one submission per holding user; genuine + dummies == n users;
  // dropped = surplus.
  ProtocolResult single = FinalizeProtocol(
      RunExchange(g, opts), ReportingProtocol::kSingle, opts.seed);
  CHECK(single.server_inbox.size() + single.dummy_reports == n);
  CHECK(single.server_inbox.size() + single.dropped_reports == n);
  CHECK(single.dummy_reports > 0);  // Poisson(1)-ish occupancy: empties exist
  Server sserver(n);
  sserver.ReceiveAll(single.server_inbox);
  CHECK(sserver.PayloadCoverage() < 1.0);

  // Fault model: lazy users forward less, but reports are still conserved.
  LazyFaultModel lazy(0.5);
  ShuffleMetrics lazy_metrics(n);
  ExchangeOptions lazy_opts;
  lazy_opts.rounds = rounds;
  lazy_opts.seed = 123;
  lazy_opts.faults = &lazy;
  lazy_opts.metrics = &lazy_metrics;
  ExchangeResult lex = RunExchange(g, lazy_opts);
  size_t lazy_total = 0;
  for (NodeId u = 0; u < n; ++u) lazy_total += lex.holdings.count(u);
  CHECK(lazy_total == n);
  CHECK(lazy_metrics.mean_user_traffic() < 0.7 * rounds);
  CHECK(lazy_metrics.mean_user_traffic() > 0.3 * rounds);

  // Determinism: same seed, same final holdings.
  ExchangeResult ex2 = RunExchange(g, opts);
  for (NodeId u = 0; u < n; ++u) {
    CHECK(ex2.holdings.count(u) == ex.holdings.count(u));
  }

  // Walk law on a small irregular, non-bipartite graph, for the simple walk
  // and the lazy walk of LazyFaultModel(0.5).
  Rng ba_rng(60);
  const Graph ba = MakeBarabasiAlbert(60, 2, &ba_rng);
  const size_t kLawTrials = 20000;
  CheckReportZeroLaw(ba, nullptr, kLawTrials);
  const LazyFaultModel half(0.5);
  CheckReportZeroLaw(ba, &half, kLawTrials);
  return 0;
}
