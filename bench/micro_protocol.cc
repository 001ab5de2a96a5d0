// google-benchmark micro suite: protocol engine throughput, the epoch's
// seal-and-inject and finalize passes, and the secure relay (crypto) path.

#include <benchmark/benchmark.h>

#include "micro_common.h"

#include "core/session.h"
#include "graph/generators.h"
#include "shuffle/engine.h"
#include "shuffle/pki.h"
#include "shuffle/protocol.h"
#include "util/rng.h"

namespace netshuffle {
namespace {

void BM_ExchangeRound(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  Graph g = MakeRandomRegular(n, 8, &rng);
  uint64_t seed = 0;
  for (auto _ : state) {
    ExchangeOptions opts;
    opts.rounds = 1;
    opts.seed = ++seed;
    auto r = RunExchange(g, opts);
    benchmark::DoNotOptimize(r.holdings.arena_data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ExchangeRound)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_FullProtocolAll(benchmark::State& state) {
  Rng rng(2);
  Graph g = MakeRandomRegular(10000, 8, &rng);
  uint64_t seed = 0;
  for (auto _ : state) {
    ExchangeOptions opts;
    opts.rounds = 20;
    opts.seed = ++seed;
    auto r = FinalizeProtocol(RunExchange(g, opts), ReportingProtocol::kAll,
                              opts.seed);
    benchmark::DoNotOptimize(r.server_inbox.data());
  }
  state.SetLabel("10k users x 20 rounds");
}
BENCHMARK(BM_FullProtocolAll)->Unit(benchmark::kMillisecond);

void BM_FullProtocolSingle(benchmark::State& state) {
  Rng rng(3);
  Graph g = MakeRandomRegular(10000, 8, &rng);
  uint64_t seed = 0;
  for (auto _ : state) {
    ExchangeOptions opts;
    opts.rounds = 20;
    opts.seed = ++seed;
    auto r = FinalizeProtocol(RunExchange(g, opts),
                              ReportingProtocol::kSingle, opts.seed);
    benchmark::DoNotOptimize(r.server_inbox.data());
  }
}
BENCHMARK(BM_FullProtocolSingle)->Unit(benchmark::kMillisecond);

// FinalizeProtocol(kAll) on a 21-round exchange's holdings: the sharded
// inbox fill.
void BM_FinalizeAll(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  Graph g = MakeRandomRegular(n, 20, &rng);
  ExchangeOptions opts;
  opts.rounds = 21;
  const ExchangeResult exchange = RunExchange(g, opts);
  for (auto _ : state) {
    auto r = FinalizeProtocol(exchange, ReportingProtocol::kAll, 1);
    benchmark::DoNotOptimize(r.server_inbox.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_FinalizeAll)->Arg(100000)->Unit(benchmark::kMicrosecond);

// Session::BeginEpoch on a full epoch of 4-byte reports: the seal check and
// the injection sort, one sharded pass.  Ingest is untimed.
void BM_BeginEpoch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  SessionConfig config;
  config.SetGraph(MakeRandomRegular(n, 20, &rng));
  Session session = Session::Create(std::move(config)).value();
  for (auto _ : state) {
    state.PauseTiming();
    for (size_t u = 0; u < n; ++u) {
      session.pending_arena()->AppendBucket(static_cast<NodeId>(u),
                                            static_cast<uint32_t>(u % 8));
    }
    state.ResumeTiming();
    if (!session.BeginEpoch().ok()) state.SkipWithError("BeginEpoch failed");
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BeginEpoch)->Arg(100000)->Unit(benchmark::kMicrosecond);

// One relay session of one round: seal, one hop, submission.  Items are
// report-hops (n x rounds), so the time per item reads the same across n.
void BM_SecureRelayRound(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t rounds = 1;
  Graph g = MakeCirculant(n, 8);
  const Pki pki(4, n);
  PayloadArena payloads;
  for (size_t u = 0; u < n; ++u) {
    payloads.Append(static_cast<NodeId>(u), Bytes{1, 2, 3, 4, 5, 6, 7, 8});
  }
  uint64_t seed = 0;
  for (auto _ : state) {
    auto r = RunSecureRelaySession(g, pki, payloads, rounds, ++seed);
    if (!r.ok()) {
      state.SkipWithError("RunSecureRelaySession failed");
      break;
    }
    benchmark::DoNotOptimize(r.value().delivered_payloads.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n * rounds));
}
BENCHMARK(BM_SecureRelayRound)
    ->Arg(256)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace netshuffle

int main(int argc, char** argv) {
  return netshuffle::RunMicroSuite("micro_protocol", "BM_ExchangeRound/100000",
                                   argc, argv);
}
