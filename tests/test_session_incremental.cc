// Incremental-execution acceptance: splitting a Session run into Step()
// chunks — with mid-run Finalize calls in between — is bit-identical to the
// equivalent one-shot engine run, for both reporting protocols, at 1 vs 4
// threads (the engine keys every coin on the absolute round index; see
// shuffle/engine.h ResumeExchange).
// Also pins the ExchangeWorkspace reuse contract: steady-state Step(1)
// calls allocate nothing (counted via a global operator new override).

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/session.h"
#include "dp/amplification.h"
#include "graph/generators.h"
#include "graph/walk.h"
#include "shuffle/engine.h"
#include "tests/test_util.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace netshuffle;

namespace {

// Heap instrumentation for the workspace-reuse regression test below: when
// armed, every global allocation adds its size to the counter.  Relaxed
// atomics — the counted region runs single-threaded and only totals matter.
std::atomic<bool> g_count_allocs{false};
std::atomic<size_t> g_alloc_bytes{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) std::abort();
  return p;
}

void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

constexpr size_t kUsers = 800;
constexpr size_t kRounds = 15;
constexpr uint64_t kSeed = 4242;

Graph TestGraph() {
  Rng rng(9);
  return MakeRandomRegular(kUsers, 8, &rng);
}

void CheckSameInbox(const ProtocolResult& a, const ProtocolResult& b) {
  CHECK(a.rounds == b.rounds);
  CHECK(a.dummy_reports == b.dummy_reports);
  CHECK(a.dropped_reports == b.dropped_reports);
  CHECK(a.server_inbox.size() == b.server_inbox.size());
  for (size_t i = 0; i < a.server_inbox.size(); ++i) {
    CHECK(a.server_inbox[i].id == b.server_inbox[i].id);
    CHECK(a.server_inbox[i].origin == b.server_inbox[i].origin);
    CHECK(a.server_inbox[i].final_holder == b.server_inbox[i].final_holder);
    // The payload bytes behind the id must agree too (both identity arenas
    // here, but the check keeps the contract honest).
    CHECK(a.payloads->payload(a.server_inbox[i].id).ToBytes() ==
          b.payloads->payload(b.server_inbox[i].id).ToBytes());
  }
}

Session MakeSession(const Graph& g, ReportingProtocol protocol) {
  SessionConfig config;
  config.SetGraph(Graph(g))
      .SetProtocol(protocol)
      .SetRounds(kRounds)
      .SetSeed(kSeed);
  Expected<Session> created = Session::Create(std::move(config));
  CHECK(created.ok());
  return std::move(created).value();
}

void CheckIncrementalEqualsOneShot(const Graph& g,
                                   ReportingProtocol protocol) {
  // Ground truth: the one-shot engine run the deprecated facade performed.
  ExchangeOptions opts;
  opts.rounds = kRounds;
  opts.seed = kSeed;
  const ProtocolResult oneshot =
      FinalizeProtocol(RunExchange(g, opts), protocol, opts.seed);

  // One StepToTarget, then Finalize.
  Session whole = MakeSession(g, protocol);
  CHECK(whole.StepToTarget().ok());
  CheckSameInbox(whole.Finalize(), oneshot);

  // Uneven Step() chunks with a mid-run Finalize (which must not disturb
  // the stream) — still bit-identical.
  Session chunked = MakeSession(g, protocol);
  CHECK(chunked.Step(1).ok());
  CHECK(chunked.Step(4).ok());
  const ProtocolResult midrun = chunked.Finalize();
  CHECK(midrun.rounds == 5);
  CHECK(chunked.Step(10).ok());
  CHECK(chunked.current_round() == kRounds);
  CheckSameInbox(chunked.Finalize(), oneshot);

  // One round at a time, checking the incremental accounting curve against
  // the closed form the facade reported at every prefix.
  Session single_steps = MakeSession(g, protocol);
  const StationaryMoments pi = ComputeStationaryMoments(g);
  for (size_t t = 1; t <= kRounds; ++t) {
    CHECK(single_steps.Step(1).ok());
    CHECK(single_steps.current_round() == t);
    NetworkShufflingBoundInput in;
    in.epsilon0 = 1.0;
    in.n = kUsers;
    in.sum_p_squares =
        SumSquaresBound(pi, single_steps.spectral_gap(), t);
    const double closed = protocol == ReportingProtocol::kSingle
                              ? EpsilonSingle(in)
                              : EpsilonAllStationary(in);
    const PrivacyParams raw = single_steps.RawGuaranteeAt(t, 1.0);
    if (std::isfinite(closed)) {
      CHECK_NEAR(raw.epsilon, closed, 1e-12);
    } else {
      CHECK(!std::isfinite(raw.epsilon));
    }
  }
  CheckSameInbox(single_steps.Finalize(), oneshot);
}

// A serving loop stepping one round at a time must not re-pay the O(n)
// sort-table allocation every call — Session keeps one ExchangeWorkspace
// and ResumeExchange sizes it idempotently, and the holder column lives in
// the exchange state, so once the buffers have reached steady-state
// capacity a Step(1) allocates (essentially) nothing.  Pin that with a
// byte counter on global operator new: a regression back to per-call
// allocation costs ~hundreds of KB per step at this n and trips the bound
// immediately.  Run at one shard and at several (the sort's blocks and
// block grid live in the workspace; the walk's scratch is on the stack);
// the few hundred bytes left are the pool's per-dispatch std::function
// closures, not workspace growth.
void CheckSteadyStateStepsAllocationFree(size_t threads) {
  SetThreadCount(threads);
  Rng rng(77);
  SessionConfig config;
  config.SetGraph(MakeRandomRegular(20000, 8, &rng))
      .SetProtocol(ReportingProtocol::kAll)
      .SetRounds(64)
      .SetSeed(5);
  Expected<Session> created = Session::Create(std::move(config));
  CHECK(created.ok());
  Session session = std::move(created).value();

  // Warm up until every workspace buffer and the holder column (derived
  // on the epoch's first Step) have settled.
  for (int i = 0; i < 8; ++i) CHECK(session.Step(1).ok());

  g_alloc_bytes.store(0);
  g_count_allocs.store(true);
  for (int i = 0; i < 4; ++i) CHECK(session.Step(1).ok());
  g_count_allocs.store(false);
  CHECK(g_alloc_bytes.load() < 4096);
}

}  // namespace

int main() {
  const Graph g = TestGraph();
  CheckSteadyStateStepsAllocationFree(1);
  CheckSteadyStateStepsAllocationFree(4);

  // The thread count must not change a single bit of any of this (the CI
  // matrix additionally runs the whole suite under NS_THREADS=1 and 4).
  std::vector<ProtocolResult> per_thread_results;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SetThreadCount(threads);
    CheckIncrementalEqualsOneShot(g, ReportingProtocol::kAll);
    CheckIncrementalEqualsOneShot(g, ReportingProtocol::kSingle);

    Session s = MakeSession(g, ReportingProtocol::kAll);
    CHECK(s.Step(kRounds).ok());
    per_thread_results.push_back(s.Finalize());
  }
  SetThreadCount(0);  // restore the NS_THREADS / hardware default
  CheckSameInbox(per_thread_results[0], per_thread_results[1]);
  return 0;
}
