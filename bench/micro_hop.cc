// google-benchmark micro suite: exchange throughput in isolation (the
// report walk and holder sort of DESIGN.md §4e, without the protocol or
// accounting layers around it).  Each BM_HopScatter* iteration advances a
// persistent exchange state by exactly one round through a persistent
// ExchangeWorkspace — the Session::Step(1) shape: one hop pass plus one
// sort — so the per-iteration time IS the cost of a one-round Step at that
// n.  BM_StepToTarget advances 21 rounds per iteration, the
// Session::StepToTarget shape of a serving epoch at n = 10^5, where the
// sort is paid once for all 21 hops.  Both run at the pool width NS_THREADS
// sets (unset = all cores; NS_THREADS=1 isolates the kernels).  The
// coin-fill benchmarks isolate the batch RNG layer (util/rng.h) against
// the per-key scalar construction.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "micro_common.h"

#include "graph/generators.h"
#include "shuffle/engine.h"
#include "util/rng.h"

namespace netshuffle {
namespace {

// `rounds`-round ResumeExchange calls over `g`, reusing state and
// workspace across iterations (the state's round count advances, so every
// iteration draws fresh per-round streams — no two iterations do identical
// work).  Items are report-hops.
void StepRounds(benchmark::State& state, const Graph& g, size_t rounds = 1) {
  const size_t n = g.num_nodes();
  ExchangeWorkspace ws;
  ExchangeResult ex = StartExchange(g);
  for (auto _ : state) {
    ExchangeOptions opts;
    opts.rounds = rounds;
    opts.seed = 7;
    ex = ResumeExchange(g, std::move(ex), opts, &ws);
    benchmark::DoNotOptimize(ex.holdings.num_reports());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n * rounds));
}

void BM_HopScatterRegular(benchmark::State& state) {
  Rng rng(1);
  const Graph g =
      MakeRandomRegular(static_cast<size_t>(state.range(0)), 20, &rng);
  StepRounds(state, g);
}
BENCHMARK(BM_HopScatterRegular)->Arg(10000)->Arg(100000);

// A whole serving epoch's exchange in one call: 21 rounds, the mixing time
// perfbench's serve_steady resolves on its 20-regular n = 10^5 graph.
void BM_StepToTarget(benchmark::State& state) {
  Rng rng(1);
  const Graph g =
      MakeRandomRegular(static_cast<size_t>(state.range(0)), 20, &rng);
  StepRounds(state, g, 21);
}
BENCHMARK(BM_StepToTarget)->Arg(100000);

// Power-of-two degrees: every destination draw takes the pure-shift class
// of the degree dispatch instead of the multiply-shift.
void BM_HopScatterPow2(benchmark::State& state) {
  const Graph g = MakeCirculant(static_cast<size_t>(state.range(0)), 16);
  StepRounds(state, g);
}
BENCHMARK(BM_HopScatterPow2)->Arg(100000);

// Power-law degrees (hubs accumulate holdings, so the sort's destination
// loads are skewed).
void BM_HopScatterBA(benchmark::State& state) {
  Rng rng(2);
  const Graph g =
      MakeBarabasiAlbert(static_cast<size_t>(state.range(0)), 10, &rng);
  StepRounds(state, g);
}
BENCHMARK(BM_HopScatterBA)->Arg(100000);

// The batch coin layer alone: stream seeds + first words for a flat key
// column (util/rng.h BatchStreamSeeds — AVX-512 on capable hosts).
void BM_BatchCoinFill(benchmark::State& state) {
  const size_t n = 100000;
  std::vector<uint32_t> users(n);
  for (size_t i = 0; i < n; ++i) users[i] = static_cast<uint32_t>(i);
  std::vector<uint64_t> streams(n), firsts(n);
  uint64_t round = 0;
  for (auto _ : state) {
    BatchStreamSeeds(users.data(), n, 7, round++, streams.data(),
                     firsts.data());
    benchmark::DoNotOptimize(firsts.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BatchCoinFill);

// The scalar equivalent: one Rng construction + one draw per key.
void BM_ScalarRngPerUser(benchmark::State& state) {
  const size_t n = 100000;
  std::vector<uint64_t> draws(n);
  uint64_t round = 0;
  for (auto _ : state) {
    for (size_t u = 0; u < n; ++u) {
      Rng rng(ExchangeStreamSeed(7, round, u));
      draws[u] = rng.Next();
    }
    ++round;
    benchmark::DoNotOptimize(draws.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ScalarRngPerUser);

}  // namespace
}  // namespace netshuffle

int main(int argc, char** argv) {
  return netshuffle::RunMicroSuite("micro_hop", "BM_HopScatterRegular/100000",
                                   argc, argv);
}
