// The util/parallel.h pool: coverage, nesting, resizing, and the
// deterministic block reduction.

#include "util/parallel.h"

#include <atomic>
#include <vector>

#include "tests/test_util.h"
#include "util/rng.h"

using namespace netshuffle;

int main() {
  // Width control: explicit override wins, 0 restores the env/hw default.
  SetThreadCount(4);
  CHECK(ThreadCount() == 4);
  CHECK(GlobalPool().size() == 4);
  SetThreadCount(0);
  CHECK(ThreadCount() == EnvThreadCount());
  SetThreadCount(4);

  // ParallelFor covers [0, n) exactly once, whatever the chunking.
  const size_t n = 100000;
  std::vector<int> hits(n, 0);
  ParallelFor(n, 64, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (size_t i = 0; i < n; ++i) CHECK(hits[i] == 1);

  // RunChunks hands out every chunk exactly once and sums across threads.
  std::atomic<size_t> total{0};
  GlobalPool().RunChunks(257, [&](size_t c) { total += c; });
  CHECK(total == 257 * 256 / 2);

  // Nested dispatch from inside a worker runs inline instead of
  // deadlocking, and still covers everything.
  std::vector<int> nested(4096, 0);
  ParallelFor(4, 1, [&](size_t begin, size_t end) {
    for (size_t outer = begin; outer < end; ++outer) {
      ParallelFor(1024, 16, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) ++nested[outer * 1024 + i];
      });
    }
  });
  for (int h : nested) CHECK(h == 1);

  // ParallelBlockSum: bit-identical across thread counts (the determinism
  // the exchange/accounting tests rely on for their float reductions).
  std::vector<double> values(50001);
  Rng rng(42);
  for (double& v : values) v = rng.UniformDouble() - 0.5;
  const auto sum_under = [&](size_t threads) {
    SetThreadCount(threads);
    return ParallelBlockSum(values.size(), [&](size_t b, size_t e) {
      double s = 0.0;
      for (size_t i = b; i < e; ++i) s += values[i];
      return s;
    });
  };
  const double s1 = sum_under(1);
  const double s2 = sum_under(2);
  const double s4 = sum_under(4);
  CHECK(s1 == s2);
  CHECK(s1 == s4);
  CHECK_NEAR(s1, 0.0, 100.0);  // sanity: mean-zero values

  // Empty and tiny inputs.
  ParallelFor(0, 1, [&](size_t, size_t) { CHECK(false); });
  CHECK(ParallelBlockSum(0, [](size_t, size_t) { return 1.0; }) == 0.0);

  SetThreadCount(0);
  return 0;
}
