#include "shuffle/engine.h"

#include <vector>

#include "graph/generators.h"
#include "shuffle/fault.h"
#include "shuffle/server.h"
#include "tests/test_util.h"
#include "util/rng.h"

using namespace netshuffle;

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
  return 0;
}
