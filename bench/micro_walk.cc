// google-benchmark micro suite: graph construction, walk-step, ergodicity
// and spectral primitives.

#include <benchmark/benchmark.h>

#include "micro_common.h"

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/spectral.h"
#include "graph/walk.h"
#include "util/rng.h"

namespace netshuffle {
namespace {

void BM_MakeRandomRegular(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    Graph g = MakeRandomRegular(n, 8, &rng);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_MakeRandomRegular)->Arg(1000)->Arg(10000);

void BM_WalkStep(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  Graph g = MakeRandomRegular(n, 8, &rng);
  PositionDistribution d(&g, 0);
  for (auto _ : state) {
    d.Step();
    benchmark::DoNotOptimize(d.probabilities().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_edges() * 2));
}
BENCHMARK(BM_WalkStep)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_LazyWalkStep(benchmark::State& state) {
  Rng rng(3);
  Graph g = MakeRandomRegular(10000, 8, &rng);
  PositionDistribution d(&g, 0);
  for (auto _ : state) {
    d.LazyStep(0.3);
    benchmark::DoNotOptimize(d.probabilities().data());
  }
}
BENCHMARK(BM_LazyWalkStep);

void BM_SpectralGap(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  Graph g = MakeRandomRegular(n, 8, &rng);
  size_t iterations = 0;
  for (auto _ : state) {
    auto r = EstimateSpectralGap(g);
    benchmark::DoNotOptimize(r.gap);
    iterations = r.iterations;
  }
  // Lanczos steps to the residual stop: the estimate's cost is this count
  // times one O(m) pass.
  state.counters["iterations"] = static_cast<double>(iterations);
}
BENCHMARK(BM_SpectralGap)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

// Admission's ergodicity check on both sides of the BFS frontier switch:
// a random 20-regular graph (wide frontiers, bottom-up on the pool) and a
// cycle (two nodes a level, expanded serially).
void BM_ClassifyWalkRegular(benchmark::State& state) {
  Rng rng(6);
  Graph g = MakeRandomRegular(static_cast<size_t>(state.range(0)), 20, &rng);
  for (auto _ : state) benchmark::DoNotOptimize(ClassifyWalk(g));
}
BENCHMARK(BM_ClassifyWalkRegular)->Arg(200000)->Unit(benchmark::kMillisecond);

void BM_ClassifyWalkCycle(benchmark::State& state) {
  Graph g = MakeCirculant(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) benchmark::DoNotOptimize(ClassifyWalk(g));
}
BENCHMARK(BM_ClassifyWalkCycle)->Arg(200000)->Unit(benchmark::kMillisecond);

void BM_StationaryGamma(benchmark::State& state) {
  Rng rng(5);
  Graph g = MakeBarabasiAlbert(50000, 4, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(StationaryGamma(g));
  }
}
BENCHMARK(BM_StationaryGamma);

}  // namespace
}  // namespace netshuffle

int main(int argc, char** argv) {
  return netshuffle::RunMicroSuite("micro_walk", "BM_WalkStep/100000", argc,
                                   argv);
}
