// Differential/property harness for the batched exchange kernels
// (shuffle/engine.cc, DESIGN.md §4e): the determinism contract says every
// coin comes from a per-(seed, round, user) stream — Awake first, then one
// destination per held report in holding order — and every destination's
// slice is filled in ascending sender order.  The batched path (tiled coin
// columns, degree-class dispatch, prefetched claim/place scatter) must
// reproduce that contract BIT-IDENTICALLY, so this test keeps the obvious
// scalar schedule in-tree as the reference and pins the engine against it
// element-by-element, every round, over randomized graph shapes:
//
//   - k-regular for k in {2, 3, 4, 8, 16, 20} (pow2 and general degree
//     classes, including the deg-pair fast paths),
//   - Barabasi-Albert power-law tails (m in {1, 2, 5, 8}),
//   - graphs with isolated users (the deg == 0 keep-in-place path),
//   - n == 1, a triangle (fewer users than threads: the shard clamp), and a
//     6000-leaf star whose hub accumulates far more than one coin tile
//     (kCoinTile = 4096) of reports — the grown-tile path,
//   - fault schedules (LazyFaultModel: Awake consumes stream draws) and
//     fault-free runs (the batched FirstRawDraw/FillStreamRaw fast path),
//
// at NS_THREADS 1/2/3/4 (3 is the one shard split that is not a power of
// two) and under BOTH storage backends (heap and file-backed mmap payload
// columns, DESIGN.md §9 — routing must not depend on where the payloads
// live), stepped round-by-round through ONE persistent ExchangeWorkspace
// reused across every shape, thread count, AND backend (stale scratch from
// a previous, differently-sized exchange must be invisible), plus a
// whole-run one-shot comparison through the workspace-free overload.

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

// The scalar reference schedule, kept deliberately naive: users in ascending
// order, one fresh Rng per (seed, round, user), the Awake coin before any
// destination draw, one UniformInt(degree) per held report in holding order,
// push_back into per-destination vectors.  Ascending-u push order IS the
// engine's canonical ascending-(shard, sender) placement for contiguous
// shards, so the two layouts must match slot for slot.
std::vector<std::vector<ReportId>> ReferenceInit(size_t n) {
  std::vector<std::vector<ReportId>> holdings(n);
  for (NodeId u = 0; u < n; ++u) holdings[u].push_back(u);
  return holdings;
}

void ReferenceRound(const Graph& g, size_t round, uint64_t seed,
                    const FaultModel* faults,
                    std::vector<std::vector<ReportId>>* holdings) {
  const size_t n = g.num_nodes();
  std::vector<std::vector<ReportId>> next(n);
  for (NodeId u = 0; u < n; ++u) {
    const std::vector<ReportId>& held = (*holdings)[u];
    if (held.empty()) continue;
    Rng rng(ExchangeStreamSeed(seed, round, u));
    const size_t deg = g.degree(u);
    const bool awake = faults == nullptr || faults->Awake(u, round, &rng);
    if (!awake || deg == 0) {
      for (ReportId id : held) next[u].push_back(id);
      continue;
    }
    const NodeId* nbr = g.neighbors_begin(u);
    for (ReportId id : held) next[nbr[rng.UniformInt(deg)]].push_back(id);
  }
  holdings->swap(next);
}

// Element-identical: same id in every slot of every user's slice, and the
// id resolves to the same (origin, payload bytes) through the arena.
void CheckIdentical(const ExchangeResult& ex,
                    const std::vector<std::vector<ReportId>>& ref) {
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
      std::vector<std::vector<ReportId>> ref = ReferenceInit(n);
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

  // k-regular: degree classes 2/4/8/16 take the pow2 shift path, 3/20 the
  // general multiply-shift path.  Randomized n per degree.
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
  // multi-report batches (the FillStreamRaw > 1 path).
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

  // 6000-leaf star: after one round the hub holds ~n reports — far past one
  // kCoinTile (4096) of coins — so its batch takes the lone-user grown-tile
  // path; leaves exercise the deg == 1 general-path draw (always 0).
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
      std::vector<std::vector<ReportId>> ref = ReferenceInit(240);
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
