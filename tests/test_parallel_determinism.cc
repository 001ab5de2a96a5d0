// The determinism guarantee of the parallel hot paths (DESIGN.md "Parallel
// execution model"): for a fixed seed, the exchange engine, the Monte-Carlo
// accountant, the walk step, and the spectral estimate are bit-identical at
// any thread count.  The sharded passes between ingest and certificate —
// the seal check and injection, finalize, the curator's coverage count and
// the ergodicity check — match serial references at widths 1, 3 and 4.

#include <vector>

#include "core/accounting.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/spectral.h"
#include "graph/walk.h"
#include "shuffle/engine.h"
#include "shuffle/fault.h"
#include "shuffle/server.h"
#include "tests/test_util.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace netshuffle;

namespace {

// Materializes the flat store as per-user id vectors for easy comparison
// (ids are total state: the payload columns are immutable and shared).
std::vector<std::vector<ReportId>> Flatten(const ReportStore& store) {
  std::vector<std::vector<ReportId>> out(store.num_users());
  for (NodeId u = 0; u < store.num_users(); ++u) {
    for (const ReportId id : store.reports(u)) out[u].push_back(id);
  }
  return out;
}

struct Snapshot {
  std::vector<std::vector<ReportId>> holdings;
  std::vector<std::vector<ReportId>> faulty_holdings;
  uint64_t max_traffic = 0;
  double mean_traffic = 0.0;
  size_t max_memory = 0;
  double mc_mean = 0.0;
  double mc_quantile = 0.0;
  double gap = 0.0;
  double lambda = 0.0;
  double residual = 0.0;
  size_t iterations = 0;
  bool converged = false;
  std::vector<double> walk_p;
  double walk_sum_squares = 0.0;
};

Snapshot RunAll(const Graph& g, size_t threads) {
  SetThreadCount(threads);
  Snapshot s;

  ExchangeOptions opts;
  opts.rounds = 12;
  opts.seed = 2022;
  ShuffleMetrics metrics(g.num_nodes());
  opts.metrics = &metrics;
  s.holdings = Flatten(RunExchange(g, opts).holdings);
  s.max_traffic = metrics.max_user_traffic();
  s.mean_traffic = metrics.mean_user_traffic();
  s.max_memory = metrics.max_user_memory();

  // Fault models draw from the same per-(round, user) streams.
  LazyFaultModel lazy(0.3);
  ExchangeOptions faulty = opts;
  faulty.metrics = nullptr;
  faulty.faults = &lazy;
  s.faulty_holdings = Flatten(RunExchange(g, faulty).holdings);

  const auto mc = MonteCarloEpsilonAll(g, /*rounds=*/8, /*epsilon0=*/1.0,
                                       /*delta_total=*/1e-6, /*trials=*/24,
                                       /*quantile=*/0.95, /*seed=*/7);
  s.mc_mean = mc.epsilon_mean;
  s.mc_quantile = mc.epsilon_quantile;

  const auto sg = EstimateSpectralGap(g);
  s.gap = sg.gap;
  s.lambda = sg.lambda;
  s.residual = sg.residual;
  s.iterations = sg.iterations;
  s.converged = sg.converged;

  PositionDistribution d(&g, 0);
  for (int i = 0; i < 6; ++i) d.LazyStep(i % 2 == 0 ? 0.0 : 0.25);
  s.walk_p = d.probabilities();
  s.walk_sum_squares = d.SumSquares();
  return s;
}

void CheckIdentical(const Snapshot& a, const Snapshot& b) {
  CHECK(a.holdings.size() == b.holdings.size());
  for (size_t u = 0; u < a.holdings.size(); ++u) {
    CHECK(a.holdings[u] == b.holdings[u]);
  }
  for (size_t u = 0; u < a.faulty_holdings.size(); ++u) {
    CHECK(a.faulty_holdings[u] == b.faulty_holdings[u]);
  }
  CHECK(a.max_traffic == b.max_traffic);
  CHECK(a.mean_traffic == b.mean_traffic);  // exact: integer-valued sums
  CHECK(a.max_memory == b.max_memory);
  // Bit-identical epsilons, not merely close.
  CHECK(a.mc_mean == b.mc_mean);
  CHECK(a.mc_quantile == b.mc_quantile);
  CHECK(a.gap == b.gap);
  CHECK(a.lambda == b.lambda);
  CHECK(a.residual == b.residual);
  CHECK(a.iterations == b.iterations);
  CHECK(a.converged == b.converged);
  CHECK(a.walk_sum_squares == b.walk_sum_squares);
  CHECK(a.walk_p.size() == b.walk_p.size());
  for (size_t v = 0; v < a.walk_p.size(); ++v) {
    CHECK(a.walk_p[v] == b.walk_p[v]);
  }
}

constexpr size_t kWidths[] = {1, 3, 4};

// The verdict from the serial traversals ConnectedComponents and
// IsBipartite.
WalkErgodicity ReferenceVerdict(const Graph& g) {
  if (g.num_nodes() == 0) return WalkErgodicity::kDisconnected;
  for (const int c : ConnectedComponents(g)) {
    if (c != 0) return WalkErgodicity::kDisconnected;
  }
  return IsBipartite(g) ? WalkErgodicity::kBipartite : WalkErgodicity::kErgodic;
}

Graph Path(size_t n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return Graph::FromEdges(n, std::move(edges));
}

// Bipartite, with frontiers as wide as binomial coefficients.
Graph Hypercube(size_t dims) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v < (NodeId{1} << dims); ++v) {
    for (size_t b = 0; b < dims; ++b) {
      const NodeId u = v ^ (NodeId{1} << b);
      if (v < u) edges.push_back({v, u});
    }
  }
  return Graph::FromEdges(size_t{1} << dims, std::move(edges));
}

// g's edges plus `extra` isolated nodes, or, with `copy`, a disjoint copy
// of g.
Graph Widen(const Graph& g, size_t extra, bool copy) {
  const size_t n = g.num_nodes();
  std::vector<Edge> edges = g.EdgeList();
  if (copy) {
    const auto base = static_cast<NodeId>(n);
    for (const Edge& e : g.EdgeList()) {
      edges.push_back({e.first + base, e.second + base});
    }
  }
  return Graph::FromEdges(copy ? 2 * n : n + extra, std::move(edges));
}

void CheckClassifyWalk() {
  Rng rng(11);
  const Graph regular20 = MakeRandomRegular(50000, 20, &rng);
  std::vector<std::pair<Graph, WalkErgodicity>> cases;
  // The tests/test_graph.cc families.
  cases.push_back({MakeRandomRegular(2000, 8, &rng), WalkErgodicity::kErgodic});
  cases.push_back({MakeTorus(9, 9), WalkErgodicity::kErgodic});
  cases.push_back({MakeTorus(8, 8), WalkErgodicity::kBipartite});
  cases.push_back({MakeCirculant(101, 8), WalkErgodicity::kErgodic});
  cases.push_back(
      {MakeBarabasiAlbert(3000, 4, &rng), WalkErgodicity::kErgodic});
  cases.push_back({Graph::FromEdges(
                       6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}),
                   WalkErgodicity::kDisconnected});
  cases.push_back({Graph::FromEdges(4, {{0, 1}, {2, 3}}),
                   WalkErgodicity::kDisconnected});
  cases.push_back({Graph::FromEdges(1, {}), WalkErgodicity::kBipartite});
  // Narrow frontiers: 10^5-node cycles and a path, two nodes a level.
  cases.push_back({MakeCirculant(100001, 2), WalkErgodicity::kErgodic});
  cases.push_back({MakeCirculant(100000, 2), WalkErgodicity::kBipartite});
  cases.push_back({Path(100000), WalkErgodicity::kBipartite});
  // Wide frontiers go bottom-up: ergodic, and bipartite (2^16 nodes).
  cases.push_back({regular20, WalkErgodicity::kErgodic});
  cases.push_back({Hypercube(16), WalkErgodicity::kBipartite});
  // Isolated nodes, and two components, each wide.
  cases.push_back({Widen(regular20, 3, false), WalkErgodicity::kDisconnected});
  cases.push_back({Widen(regular20, 0, true), WalkErgodicity::kDisconnected});
  for (const auto& [g, expected] : cases) {
    CHECK(ReferenceVerdict(g) == expected);
    for (const size_t threads : kWidths) {
      SetThreadCount(threads);
      CHECK(ClassifyWalk(g) == expected);
    }
  }
}

// FinalizeProtocol against the per-user loop it shards.
void CheckFinalize() {
  Rng rng(12);
  const Graph g = MakeRandomRegular(30000, 8, &rng);
  std::vector<ProtocolResult> singles;
  for (const size_t threads : kWidths) {
    SetThreadCount(threads);
    ExchangeOptions opts;
    opts.rounds = 5;
    opts.seed = 99;
    const ExchangeResult state = RunExchange(g, opts);
    const ReportStore& store = state.holdings;

    std::vector<FinalReport> expected;
    size_t empty = 0;
    for (NodeId u = 0; u < store.num_users(); ++u) {
      empty += store.reports(u).empty() ? 1 : 0;
      for (const ReportId id : store.reports(u)) {
        expected.push_back(FinalReport{id, state.payloads->origin(id), u});
      }
    }
    const ProtocolResult all =
        FinalizeProtocol(state, ReportingProtocol::kAll, 7);
    CHECK(empty > 0);  // some users hold nothing after a few rounds
    CHECK(all.dummy_reports == empty);
    CHECK(all.dropped_reports == 0);
    CHECK(all.server_inbox.size() == expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      CHECK(all.server_inbox[i].id == expected[i].id);
      CHECK(all.server_inbox[i].origin == expected[i].origin);
      CHECK(all.server_inbox[i].final_holder == expected[i].final_holder);
    }
    singles.push_back(FinalizeProtocol(state, ReportingProtocol::kSingle, 7));
  }
  for (const ProtocolResult& single : singles) {
    CHECK(single.dummy_reports == singles[0].dummy_reports);
    CHECK(single.dropped_reports == singles[0].dropped_reports);
    CHECK(single.server_inbox.size() == singles[0].server_inbox.size());
    for (size_t i = 0; i < single.server_inbox.size(); ++i) {
      CHECK(single.server_inbox[i].id == singles[0].server_inbox[i].id);
    }
  }
}

// An arena of `reports` rows: report r originates at perm[r], except the
// last, which originates at `last`.
PayloadArena Arena(const std::vector<NodeId>& perm, size_t reports,
                   NodeId last) {
  PayloadArena arena;
  for (size_t r = 0; r + 1 < reports; ++r) {
    arena.AppendBucket(perm[r], static_cast<uint32_t>(r % 7));
  }
  arena.AppendBucket(last, 1);
  return arena;
}

// The one-report-per-user check, both where PayloadArena::Seal runs it and
// where SealAndInject folds it into the injection sort: the same typed
// code, and an arena left unfrozen and appendable, at every width.
void CheckSeal() {
  constexpr size_t kN = 70000;  // several shards of either check at width 4
  std::vector<NodeId> perm(kN);
  for (size_t r = 0; r < kN; ++r) perm[r] = static_cast<NodeId>(r);
  Rng rng(13);
  rng.Shuffle(&perm);
  for (const size_t threads : kWidths) {
    SetThreadCount(threads);
    // The first report's origin again in the last report (the first and
    // the last shard), an origin out of range in the last shard, and an
    // epoch one report short.
    const PayloadArena bad[] = {Arena(perm, kN, perm[0]),
                                Arena(perm, kN, static_cast<NodeId>(kN)),
                                Arena(perm, kN - 1, perm[kN - 2])};
    for (const PayloadArena& arena : bad) {
      PayloadArena sealed = arena, injected = arena;
      CHECK(sealed.Seal(kN).code() == StatusCode::kPayloadMismatch);
      const Expected<ExchangeResult> state = SealAndInject(kN, &injected);
      CHECK(state.status().code() == StatusCode::kPayloadMismatch);
      for (PayloadArena* a : {&sealed, &injected}) {
        CHECK(!a->frozen());
        CHECK(a->num_reports() == arena.num_reports());
        a->AppendBucket(0, 0);  // still mutable
      }
    }
    // The short epoch seals once its missing report arrives.
    PayloadArena late = Arena(perm, kN - 1, perm[kN - 2]);
    late.AppendBucket(perm[kN - 1], 0);
    PayloadArena late_copy = late;
    CHECK(late.Seal(kN).ok() && late.frozen());
    Expected<ExchangeResult> state = SealAndInject(kN, &late_copy);
    CHECK(state.ok());
    // Injection hands user u exactly the report that originates there.
    const ReportStore& store = state.value().holdings;
    for (size_t r = 0; r < kN; ++r) {
      const ReportSpan held = store.reports(perm[r]);
      CHECK(held.size() == 1 && held[0] == r);
    }
    CHECK(state.value().payloads->frozen());
  }
}

// The curator's coverage count against a serial bitmap, with repeated and
// out-of-range origins, onto a server that already holds reports.
void CheckReceiveAll() {
  constexpr size_t kUsers = 60000;
  Rng rng(14);
  std::vector<FinalReport> inbox(100000);
  for (size_t i = 0; i < inbox.size(); ++i) {
    inbox[i].origin = static_cast<NodeId>(rng.UniformInt(kUsers + 500));
  }
  std::vector<bool> seen(kUsers, false);
  seen[5] = true;
  size_t distinct = 1, invalid = 0;
  for (const FinalReport& fr : inbox) {
    if (fr.origin >= kUsers) {
      ++invalid;
    } else if (!seen[fr.origin]) {
      seen[fr.origin] = true;
      ++distinct;
    }
  }
  for (const size_t threads : kWidths) {
    SetThreadCount(threads);
    Server server(kUsers);
    server.Receive(FinalReport{0, 5, 0});
    server.ReceiveAll(inbox);
    CHECK(server.distinct_origins() == distinct);
    CHECK(server.invalid_origin_count() == invalid);
    CHECK(server.num_received() == inbox.size() + 1);
  }
}

}  // namespace

int main() {
  CheckClassifyWalk();
  CheckFinalize();
  CheckSeal();
  CheckReceiveAll();

  Rng rng(5);
  Graph regular = MakeRandomRegular(3000, 8, &rng);
  Graph skewed = MakeBarabasiAlbert(2000, 4, &rng);
  // Slow mixers pin long Lanczos recurrences: C(401, {1, 2}) runs ~260
  // steps, and the 101 x 99 torus as long over several reduction blocks.
  Graph circulant = MakeCirculant(401, 4);
  Graph torus = MakeTorus(101, 99);

  for (const Graph* g : {&regular, &skewed, &circulant, &torus}) {
    const Snapshot t1 = RunAll(*g, 1);
    const Snapshot t2 = RunAll(*g, 2);
    const Snapshot t4 = RunAll(*g, 4);
    CheckIdentical(t1, t2);
    CheckIdentical(t1, t4);

    // Sanity besides equality: reports conserved, accountant finite.
    size_t total = 0;
    for (const auto& held : t4.holdings) total += held.size();
    CHECK(total == g->num_nodes());
    // The shard cap (routing-table memory bound) must not break identity
    // above it either.
    const Snapshot t64 = RunAll(*g, 64);
    CheckIdentical(t1, t64);
    CHECK(t4.converged);
    CHECK(t4.mc_mean > 0.0);
    CHECK(t4.mc_mean <= t4.mc_quantile + 1e-12);
  }

  SetThreadCount(0);
  return 0;
}
