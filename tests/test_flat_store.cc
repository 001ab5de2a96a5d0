// The index-routed exchange (shuffle/store.h ReportId arena sorted from a
// holder column, over a columnar shuffle/payload.h PayloadArena) must be
// ELEMENT-IDENTICAL to a naive engine that physically moves full report
// structs: same per-(round, report) coin streams, same per-(round, user)
// availability streams, same canonical ascending-report order inside every
// holder's slice, and — after mapping each routed id through the arena —
// the same (origin, payload bytes, holder) triples.  A serial reference
// implementation of the schedule (moving whole structs with variable-length
// payload bytes) lives in this test and is compared element-by-element
// against the id-routed engine at NS_THREADS 1 and 4 (and a resumed
// Start/Resume split), with and without faults — under BOTH storage
// backends (DESIGN.md §9): the heap default and the file-backed mmap tier,
// whose mapped columns must be bit-identical to the in-RAM run at every
// thread count.
//
// Also: ReportStore unit checks, and an NS_SCALE-gated 10^6-node smoke test
// pinning the routing state's per-user memory bound (~8 bytes/user of
// holdings since ids replaced 16-byte structs, plus the 4 B/report holder
// column).

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

// What the reference physically moves: the full report, origin and payload
// bytes together.
struct StructReport {
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

// The exchange's schedule, serial and naive, over whole structs: each
// report r walks on its own stream, Rng(HashCombine(ReportWalkSeed(seed),
// HashCombine(round, r))), one UniformInt(degree) per round; a holder that
// is isolated or asleep (the Awake coin from its own per-(seed, round,
// user) stream) keeps it.  Each holder's list is then filled in ascending
// report order with the full (origin, payload bytes) struct.
std::vector<std::vector<StructReport>> ReferenceExchange(
    const Graph& g, size_t rounds, uint64_t seed, const FaultModel* faults) {
  const size_t n = g.num_nodes();
  std::vector<NodeId> holder(n);
  for (NodeId r = 0; r < n; ++r) holder[r] = r;
  for (size_t round = 0; round < rounds; ++round) {
    for (NodeId r = 0; r < n; ++r) {
      const NodeId u = holder[r];
      const size_t deg = g.degree(u);
      if (deg == 0) continue;
      if (faults != nullptr) {
        Rng awake_rng(
            HashCombine(seed, HashCombine(static_cast<uint64_t>(round), u)));
        if (!faults->Awake(u, round, &awake_rng)) continue;
      }
      Rng rng(HashCombine(ReportWalkSeed(seed),
                          HashCombine(static_cast<uint64_t>(round), r)));
      holder[r] = g.neighbors_begin(u)[rng.UniformInt(deg)];
    }
  }
  std::vector<std::vector<StructReport>> holdings(n);
  for (NodeId r = 0; r < n; ++r) {
    holdings[holder[r]].push_back(StructReport{r, PatternPayload(r)});
  }
  return holdings;
}

// Maps every routed id through the arena and compares (origin, payload
// bytes) element-by-element per holder against the reference schedule.
void CheckElementIdentical(const ExchangeResult& ex,
                           const std::vector<std::vector<StructReport>>&
                               reference) {
  const ReportStore& flat = ex.holdings;
  const PayloadArena& arena = *ex.payloads;
  CHECK(flat.num_users() == reference.size());
  for (NodeId u = 0; u < reference.size(); ++u) {
    const ReportSpan span = flat.reports(u);
    CHECK(span.size() == reference[u].size());
    for (size_t i = 0; i < span.size(); ++i) {
      const ReportId id = span[i];
      CHECK(arena.origin(id) == reference[u][i].origin);
      CHECK(arena.payload(id).ToBytes() == reference[u][i].payload);
    }
  }
}

void CheckEquivalence(const Graph& g, size_t rounds, uint64_t seed,
                      const FaultModel* faults,
                      const std::shared_ptr<StorageBackend>& mmap_backend) {
  const auto reference = ReferenceExchange(g, rounds, seed, faults);
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
      CheckElementIdentical(whole, reference);

      // A resumed split must replay the identical coin schedule.
      ExchangeResult split =
          StartExchange(g, PatternArena(g.num_nodes(), backend));
      ExchangeOptions first = opts;
      first.rounds = rounds / 2 + 1;
      split = ResumeExchange(g, std::move(split), first);
      ExchangeOptions rest = opts;
      rest.rounds = rounds - first.rounds;
      if (rest.rounds > 0) split = ResumeExchange(g, std::move(split), rest);
      CheckElementIdentical(split, reference);
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
    CHECK(other.num_users() == 5 && other.num_reports() == 5);
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

  // ---- Index-routed vs struct-moving reference element identity ----------
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
    // The index-routing promise: ~8 bytes/user of holdings (4 B ReportId +
    // 4 B offset) — the 16-byte report struct no longer rides through the
    // sort — plus the walk's 4 B/report holder column.  Allow a page of
    // slack.
    CHECK(ex.holdings.MemoryBytes() <=
          (sizeof(ReportId) + sizeof(uint32_t)) * n + 4096);
    CHECK(ex.holders.capacity() * sizeof(NodeId) <=
          sizeof(NodeId) * n + 4096);
    // The immutable columns cost ~8 bytes/user once (origin + offset; the
    // identity arena carries zero payload bytes) and are never touched by
    // the walk or the sort.
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
