// Differential/property harness for the exchange walk (shuffle/engine.cc,
// DESIGN.md §4e): the determinism contract says report r held by v in
// absolute round t moves to neighbors(v)[UniformInt(deg v)] drawn from its
// own per-(ReportWalkSeed(seed), t, r) stream, an isolated holder or one
// asleep on its own per-(seed, t, v) availability stream keeps it, and
// every user's slice lists its reports in ascending id.  The block walk
// (batched coins, one pass over all of a call's rounds) and the once-per-
// call holder sort must reproduce that contract BIT-IDENTICALLY, so this
// test keeps the obvious scalar schedule in-tree as the reference and pins
// the engine against it element-by-element, every round, over randomized
// graph shapes:
//
//   - k-regular for k in {2, 3, 4, 8, 16, 20} (power-of-two and general
//     degrees),
//   - Barabasi-Albert power-law tails (m in {1, 2, 5, 8}),
//   - graphs with isolated users (the deg == 0 keep-in-place path),
//   - n == 1, a triangle (fewer users than threads: the shard clamp), and a
//     6000-leaf star whose hub ends up holding most reports (one
//     destination takes nearly every slot of the sort),
//   - fault schedules (LazyFaultModel: Awake reads the holder's stream) and
//     fault-free runs,
//
// at NS_THREADS 1/2/3/4 (3 is the one shard split that is not a power of
// two) and under BOTH storage backends (heap and file-backed mmap payload
// columns, DESIGN.md §9 — routing must not depend on where the payloads
// live), stepped round-by-round through ONE persistent ExchangeWorkspace
// reused across every shape, thread count, AND backend (stale scratch from
// a previous, differently-sized exchange must be invisible), plus a
// whole-run one-shot comparison through the workspace-free overload and
// uneven multi-round resume splits.

#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "shuffle/backend.h"
#include "shuffle/engine.h"
#include "shuffle/fault.h"
#include "shuffle/payload.h"
#include "tests/test_util.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace netshuffle;

namespace {

// Variable-length patterned payloads: (u % 5) bytes, content keyed on u, so
// an id swapped for a neighbor's would change both the origin column and the
// payload bytes the comparison reads back.
Bytes PatternPayload(NodeId u) {
  Bytes b;
  for (size_t i = 0; i < u % 5; ++i) {
    b.push_back(static_cast<uint8_t>((u * 131 + i * 17) & 0xff));
  }
  return b;
}

// The backend under test for the current axis iteration: null = heap,
// non-null = file-backed on that backend (tests/test_flat_store.cc uses the
// same convention).
PayloadArena PatternArena(size_t n,
                          const std::shared_ptr<StorageBackend>& backend) {
  PayloadArena arena;
  if (backend != nullptr) {
    Expected<PayloadArena> hosted = PayloadArena::Hosted(backend);
    CHECK(hosted.ok());
    arena = std::move(hosted).value();
  }
  for (NodeId u = 0; u < n; ++u) {
    CHECK(arena.Append(u, PatternPayload(u)) == u);
  }
  return arena;
}

// The scalar reference schedule, kept deliberately naive: one holder per
// report, rounds applied one at a time, reports in ascending id, one fresh
// Rng per (round, report) on the report-coin seed, the holder's Awake coin
// on a fresh Rng of its own per-(seed, round, user) stream.  Holdings are
// then push_back'ed per holder in ascending report id, which is the
// engine's canonical slice order.
std::vector<NodeId> ReferenceInit(size_t n) {
  std::vector<NodeId> holder(n);
  for (NodeId r = 0; r < n; ++r) holder[r] = r;
  return holder;
}

void ReferenceRound(const Graph& g, size_t round, uint64_t seed,
                    const FaultModel* faults, std::vector<NodeId>* holder) {
  for (ReportId r = 0; r < holder->size(); ++r) {
    const NodeId v = (*holder)[r];
    const size_t deg = g.degree(v);
    if (deg == 0) continue;
    if (faults != nullptr) {
      Rng availability(ExchangeStreamSeed(seed, round, v));
      if (!faults->Awake(v, round, &availability)) continue;
    }
    Rng coin(ExchangeStreamSeed(ReportWalkSeed(seed), round, r));
    (*holder)[r] = g.neighbors_begin(v)[coin.UniformInt(deg)];
  }
}

std::vector<std::vector<ReportId>> ReferenceHoldings(
    const std::vector<NodeId>& holder) {
  std::vector<std::vector<ReportId>> holdings(holder.size());
  for (ReportId r = 0; r < holder.size(); ++r) {
    holdings[holder[r]].push_back(r);
  }
  return holdings;
}

// Element-identical: same id in every slot of every user's slice, and the
// id resolves to the same (origin, payload bytes) through the arena.
void CheckIdentical(const ExchangeResult& ex,
                    const std::vector<NodeId>& ref_holder) {
  const std::vector<std::vector<ReportId>> ref = ReferenceHoldings(ref_holder);
  CHECK(ex.holdings.num_users() == ref.size());
  const PayloadArena& arena = *ex.payloads;
  for (NodeId u = 0; u < ref.size(); ++u) {
    const ReportSpan span = ex.holdings.reports(u);
    CHECK(span.size() == ref[u].size());
    for (size_t i = 0; i < span.size(); ++i) {
      CHECK(span[i] == ref[u][i]);
      CHECK(arena.origin(span[i]) == ref[u][i]);
      CHECK(arena.payload(span[i]).ToBytes() == PatternPayload(ref[u][i]));
    }
  }
}

// One differential case: step the engine round-by-round (rounds = 1 per
// call) through the SHARED persistent workspace, checking
// element identity after every round, then replay the whole run one-shot
// through the workspace-free overload and check the final state again.
void RunCase(const char* name, const Graph& g, size_t rounds, uint64_t seed,
             const FaultModel* faults, ExchangeWorkspace* ws,
             const std::shared_ptr<StorageBackend>& mmap_backend) {
  const size_t n = g.num_nodes();
  // Backend axis outside the thread axis: the SHARED workspace crosses from
  // heap payloads to file-backed payloads (and back, on the next case).
  for (const std::shared_ptr<StorageBackend>& backend :
       {std::shared_ptr<StorageBackend>(), mmap_backend}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
      SetThreadCount(threads);
      std::vector<NodeId> ref = ReferenceInit(n);
      ExchangeResult state = StartExchange(g, PatternArena(n, backend));
      CHECK(state.payloads->hosted() == (backend != nullptr));
      CheckIdentical(state, ref);
      for (size_t r = 0; r < rounds; ++r) {
        ExchangeOptions step;
        step.rounds = 1;
        step.seed = seed;
        step.faults = faults;
        state = ResumeExchange(g, std::move(state), step, ws);
        ReferenceRound(g, r, seed, faults, &ref);
        CheckIdentical(state, ref);
        CHECK(state.holders == ref);
      }

      ExchangeOptions whole;
      whole.rounds = rounds;
      whole.seed = seed;
      whole.faults = faults;
      ExchangeResult oneshot =
          ResumeExchange(g, StartExchange(g, PatternArena(n, backend)), whole);
      CheckIdentical(oneshot, ref);
    }
  }
  SetThreadCount(0);
  std::printf("ok: %-28s n=%zu rounds=%zu faults=%s\n", name, n, rounds,
              faults != nullptr ? "yes" : "no");
}

Graph MakeStar(size_t n) {
  std::vector<Edge> edges;
  for (NodeId leaf = 1; leaf < n; ++leaf) edges.push_back({0, leaf});
  return Graph::FromEdges(n, std::move(edges));
}

}  // namespace

int main() {
  // One workspace for the WHOLE test: every case below re-enters it with a
  // different graph size, thread count, and fault mode, so any read of
  // stale scratch would show up as a differential failure.
  ExchangeWorkspace ws;
  // One shared backend for every mmap-axis run; every hosted column file
  // lives (and dies) in its tmpdir.
  Expected<std::shared_ptr<StorageBackend>> be =
      StorageBackend::Create(StorageBackendConfig{});
  CHECK(be.ok());
  const std::shared_ptr<StorageBackend>& backend = be.value();
  const LazyFaultModel lazy(0.3);
  Rng meta(20220607);

  // k-regular: power-of-two and general degrees.  Randomized n per degree.
  for (size_t k : {size_t{2}, size_t{3}, size_t{4}, size_t{8}, size_t{16},
                   size_t{20}}) {
    const size_t n = k + 2 + 2 * meta.UniformInt(150);  // n*k even: n even
    Rng gen(meta.Next());
    const Graph g = MakeRandomRegular(n % 2 == 0 ? n : n + 1, k, &gen);
    const uint64_t seed = meta.Next();
    RunCase("k-regular", g, /*rounds=*/8, seed, nullptr, &ws, backend);
    RunCase("k-regular", g, /*rounds=*/8, seed, &lazy, &ws, backend);
  }

  // Barabasi-Albert power-law tails: mixed degrees per round, hubs holding
  // many reports at once.
  for (size_t m : {size_t{1}, size_t{2}, size_t{5}, size_t{8}}) {
    Rng gen(meta.Next());
    const size_t n = 50 + meta.UniformInt(250);
    const Graph g = MakeBarabasiAlbert(n < m + 2 ? m + 2 : n, m, &gen);
    const uint64_t seed = meta.Next();
    RunCase("barabasi-albert", g, /*rounds=*/8, seed, nullptr, &ws, backend);
    RunCase("barabasi-albert", g, /*rounds=*/8, seed, &lazy, &ws, backend);
  }

  // Isolated users (deg == 0 keep-in-place) mixed with a routed component.
  {
    const Graph g = Graph::FromEdges(
        11, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}, {8, 9}});
    RunCase("with-isolated", g, /*rounds=*/10, meta.Next(), nullptr, &ws, backend);
    RunCase("with-isolated", g, /*rounds=*/10, meta.Next(), &lazy, &ws, backend);
  }

  // Single isolated user: the smallest exchange there is.
  {
    const Graph g = Graph::FromEdges(1, {});
    RunCase("single-user", g, /*rounds=*/5, meta.Next(), nullptr, &ws, backend);
  }

  // 6000-leaf star: after one round the hub holds ~n reports, so one
  // destination's slice spans nearly the whole arena; leaves exercise the
  // deg == 1 draw (always 0).
  {
    const Graph g = MakeStar(6000);
    RunCase("star-6000", g, /*rounds=*/3, meta.Next(), nullptr, &ws, backend);
    RunCase("star-6000", g, /*rounds=*/3, meta.Next(), &lazy, &ws, backend);
  }

  // Resume-split property: an arbitrary 3-way split of the same run through
  // the shared workspace equals the reference (splits beyond the per-round
  // loop above; here the chunks are uneven multi-round calls).
  {
    Rng gen(meta.Next());
    const Graph g = MakeRandomRegular(240, 6, &gen);
    const uint64_t seed = meta.Next();
    for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
      SetThreadCount(threads);
      std::vector<NodeId> ref = ReferenceInit(240);
      for (size_t r = 0; r < 13; ++r) ReferenceRound(g, r, seed, &lazy, &ref);
      ExchangeResult state = StartExchange(g, PatternArena(240, backend));
      size_t done = 0;
      for (size_t chunk : {size_t{1}, size_t{7}, size_t{5}}) {
        ExchangeOptions opts;
        opts.rounds = chunk;
        opts.seed = seed;
        opts.faults = &lazy;
        state = ResumeExchange(g, std::move(state), opts, &ws);
        done += chunk;
      }
      CHECK(done == 13);
      CheckIdentical(state, ref);
    }
    SetThreadCount(0);
    std::printf("ok: resume-split 1+7+5 rounds, faults=yes\n");
  }

  // Fewer users than pool slots: at 4 threads the routing shards clamp to
  // the 3 users, one user per shard.
  {
    const Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {2, 0}});
    RunCase("triangle", g, /*rounds=*/5, meta.Next(), nullptr, &ws, backend);
  }
  return 0;
}
