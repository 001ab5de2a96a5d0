// The index-routed exchange (shuffle/store.h ReportId arena + counting-sort
// routing over a columnar shuffle/payload.h PayloadArena) must be
// ELEMENT-IDENTICAL to the legacy engine that physically scattered full
// report structs: same per-(seed, round, user) RNG streams, same canonical
// ascending-sender order inside every destination's slice, and — after
// mapping each routed id through the arena — the same (origin, payload
// bytes, holder) triples.  A serial reference implementation of the legacy
// schedule (routing whole structs with variable-length payload bytes) lives
// in this test and is compared element-by-element against the id-routed
// engine at NS_THREADS 1 and 4 (and a resumed Start/Resume split), with and
// without faults — under BOTH storage backends (DESIGN.md §9): the heap
// default and the file-backed mmap tier, whose mapped columns must be
// bit-identical to the in-RAM run at every thread count.
//
// Also: ReportStore unit checks, and an NS_SCALE-gated 10^6-node smoke test
// pinning the routing buffers' per-user memory bound (~8 bytes/user since
// ids replaced 16-byte structs).

#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "bench/experiment_common.h"
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

// What the legacy engine physically routed: the full report, origin and
// payload bytes together.
struct LegacyReport {
  NodeId origin;
  Bytes payload;
};

// Variable-length patterned payload for user u: (u % 5) bytes, so slices
// differ in size AND content across users (several users share a length,
// none share bytes).
Bytes PatternPayload(NodeId u) {
  Bytes b;
  for (size_t i = 0; i < u % 5; ++i) {
    b.push_back(static_cast<uint8_t>((u * 31 + i * 7) & 0xff));
  }
  return b;
}

// A heap arena, or a file-backed one streaming onto `backend` (the backend
// axis: same pattern rows, different storage tier).
PayloadArena PatternArena(size_t n,
                          const std::shared_ptr<StorageBackend>& backend) {
  PayloadArena arena;
  if (backend != nullptr) {
    Expected<PayloadArena> hosted = PayloadArena::Hosted(backend);
    CHECK(hosted.ok());
    arena = std::move(hosted).value();
  }
  for (NodeId u = 0; u < n; ++u) {
    const Bytes payload = PatternPayload(u);
    CHECK(arena.Append(u, payload) == u);
  }
  return arena;
}

// The legacy engine's serial schedule, verbatim: per round, users in
// ascending order draw one stream per (seed, round, user) — the Awake coin
// first, then one destination per held report in holding order — and every
// destination list is appended in ascending sender order.  It routes the
// full (origin, payload bytes) struct, exactly what the pre-index-routing
// engine moved every round.
std::vector<std::vector<LegacyReport>> LegacyExchange(
    const Graph& g, size_t rounds, uint64_t seed, const FaultModel* faults) {
  const size_t n = g.num_nodes();
  std::vector<std::vector<LegacyReport>> holdings(n);
  for (NodeId u = 0; u < n; ++u) {
    holdings[u].push_back(LegacyReport{u, PatternPayload(u)});
  }
  for (size_t round = 0; round < rounds; ++round) {
    std::vector<std::vector<LegacyReport>> next(n);
    for (NodeId u = 0; u < n; ++u) {
      const auto& held = holdings[u];
      if (held.empty()) continue;
      Rng rng(HashCombine(seed, HashCombine(static_cast<uint64_t>(round), u)));
      const size_t deg = g.degree(u);
      const bool awake =
          faults == nullptr || faults->Awake(u, round, &rng);
      if (!awake || deg == 0) {
        for (const LegacyReport& r : held) next[u].push_back(r);
        continue;
      }
      for (const LegacyReport& r : held) {
        const NodeId dest = g.neighbors_begin(u)[rng.UniformInt(deg)];
        next[dest].push_back(r);
      }
    }
    holdings.swap(next);
  }
  return holdings;
}

// Maps every routed id through the arena and compares (origin, payload
// bytes) element-by-element per holder against the legacy schedule.
void CheckElementIdentical(const ExchangeResult& ex,
                           const std::vector<std::vector<LegacyReport>>&
                               legacy) {
  const ReportStore& flat = ex.holdings;
  const PayloadArena& arena = *ex.payloads;
  CHECK(flat.num_users() == legacy.size());
  for (NodeId u = 0; u < legacy.size(); ++u) {
    const ReportSpan span = flat.reports(u);
    CHECK(span.size() == legacy[u].size());
    for (size_t i = 0; i < span.size(); ++i) {
      const ReportId id = span[i];
      CHECK(arena.origin(id) == legacy[u][i].origin);
      CHECK(arena.payload(id).ToBytes() == legacy[u][i].payload);
    }
  }
}

void CheckEquivalence(const Graph& g, size_t rounds, uint64_t seed,
                      const FaultModel* faults,
                      const std::shared_ptr<StorageBackend>& mmap_backend) {
  const auto legacy = LegacyExchange(g, rounds, seed, faults);
  // Backend axis: the file-backed tier must route to the same slots as the
  // heap tier — the kernels see raw pointers either way.
  for (const std::shared_ptr<StorageBackend>& backend :
       {std::shared_ptr<StorageBackend>(), mmap_backend}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SetThreadCount(threads);
      ExchangeOptions opts;
      opts.rounds = rounds;
      opts.seed = seed;
      opts.faults = faults;
      ExchangeResult whole = ResumeExchange(
          g, StartExchange(g, PatternArena(g.num_nodes(), backend)), opts);
      CHECK(whole.payloads->hosted() == (backend != nullptr));
      CheckElementIdentical(whole, legacy);

      // A resumed split must replay the identical coin schedule.
      ExchangeResult split =
          StartExchange(g, PatternArena(g.num_nodes(), backend));
      ExchangeOptions first = opts;
      first.rounds = rounds / 2 + 1;
      split = ResumeExchange(g, std::move(split), first);
      ExchangeOptions rest = opts;
      rest.rounds = rounds - first.rounds;
      if (rest.rounds > 0) split = ResumeExchange(g, std::move(split), rest);
      CheckElementIdentical(split, legacy);
    }
  }
  SetThreadCount(0);
}

}  // namespace

int main() {
  // ---- ReportStore unit checks --------------------------------------------
  {
    ReportStore store;
    CHECK(store.num_users() == 0);
    CHECK(store.num_reports() == 0);
    store.InitOnePerUser(5);
    CHECK(store.num_users() == 5);
    CHECK(store.num_reports() == 5);
    for (NodeId u = 0; u < 5; ++u) {
      CHECK(store.count(u) == 1);
      CHECK(store.reports(u).size() == 1);
      CHECK(store.reports(u)[0] == u);
    }
    ReportStore other;
    other.AllocateFor(5, 5);
    store.SwapWith(&other);
    CHECK(other.num_reports() == 5 && other.count(2) == 1);
  }

  // ---- Identity injection (routing-only default arena) --------------------
  {
    Rng rng(3);
    const Graph g = MakeRandomRegular(200, 6, &rng);
    ExchangeOptions opts;
    opts.rounds = 5;
    opts.seed = 7;
    const ExchangeResult ex = RunExchange(g, opts);
    CHECK(ex.payloads != nullptr);
    CHECK(ex.payloads->num_reports() == 200);
    CHECK(ex.payloads->total_payload_bytes() == 0);
    for (ReportId r = 0; r < 200; ++r) {
      CHECK(ex.payloads->origin(r) == r);
      CHECK(ex.payloads->payload(r).empty());
    }
  }

  // ---- Index-routed vs legacy element identity ----------------------------
  Rng rng(11);
  const Graph regular = MakeRandomRegular(400, 6, &rng);
  const Graph skewed = MakeBarabasiAlbert(300, 3, &rng);
  // Isolated node 6 exercises the deg == 0 keep-in-place path.
  const Graph with_isolated =
      Graph::FromEdges(7, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5},
                           {5, 3}});
  const LazyFaultModel lazy(0.4);

  // One shared backend for every mmap-axis exchange; its tmpdir (and every
  // column file in it) must be gone once the last reference drops.
  Expected<std::shared_ptr<StorageBackend>> backend =
      StorageBackend::Create(StorageBackendConfig{});
  CHECK(backend.ok());

  for (const Graph* g : {&regular, &skewed, &with_isolated}) {
    CheckEquivalence(*g, /*rounds=*/13, /*seed=*/2022, nullptr,
                     backend.value());
    CheckEquivalence(*g, /*rounds=*/13, /*seed=*/2022, &lazy, backend.value());
    CheckEquivalence(*g, /*rounds=*/1, /*seed=*/5, nullptr, backend.value());
  }

  // ---- 10^6-node arena smoke (NS_SCALE-gated) -----------------------------
  // EnvScale() is the canonical knob parser; < 1 (the CI smoke default)
  // skips the million-node test.
  if (EnvScale() >= 1.0) {
    const size_t n = 1000000;
    const Graph big = MakeCirculant(n, 20);
    ExchangeOptions opts;
    opts.rounds = 4;
    opts.seed = 1;
    ExchangeResult ex = RunExchange(big, opts);
    CHECK(ex.holdings.num_users() == n);
    CHECK(ex.holdings.num_reports() == n);  // conserved at scale
    // The index-routing promise: ~8 bytes/user per routing buffer (4 B
    // ReportId + 4 B offset) — the 16-byte report struct no longer rides
    // through the scatter.  Allow a page of slack.
    CHECK(ex.holdings.MemoryBytes() <=
          (sizeof(ReportId) + sizeof(uint32_t)) * n + 4096);
    // The immutable columns cost ~8 bytes/user once (origin + offset; the
    // identity arena carries zero payload bytes) and are never touched by
    // the per-round routing passes.
    CHECK(ex.payloads->MemoryBytes() <=
          (sizeof(NodeId) + sizeof(uint32_t)) * n + 4096);
    size_t spot_total = 0;
    for (NodeId u = 0; u < n; ++u) spot_total += ex.holdings.count(u);
    CHECK(spot_total == n);
  } else {
    std::printf("NS_SCALE < 1: skipping the 10^6-node arena smoke test\n");
  }
  return 0;
}
