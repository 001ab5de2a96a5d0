#include "util/rng.h"

#include <vector>

#include "tests/test_util.h"
#include "util/stats.h"

using namespace netshuffle;

int main() {
  // Determinism: same seed, same stream.
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) CHECK(a.Next() == b.Next());

  // UniformDouble in [0, 1), mean ~ 0.5.
  Rng r(7);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) {
    const double x = r.UniformDouble();
    CHECK(x >= 0.0 && x < 1.0);
    s.Add(x);
  }
  CHECK_NEAR(s.mean(), 0.5, 0.01);

  // UniformInt stays in range and hits every bucket.
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const size_t v = r.UniformInt(10);
    CHECK(v < 10);
    ++hits[v];
  }
  for (int h : hits) CHECK(h > 500);

  // Discrete respects weights (zero weight never drawn).
  std::vector<double> w{0.0, 1.0, 3.0};
  size_t ones = 0, twos = 0;
  for (int i = 0; i < 20000; ++i) {
    const size_t v = r.Discrete(w);
    CHECK(v == 1 || v == 2);
    (v == 1 ? ones : twos) += 1;
  }
  CHECK_NEAR(static_cast<double>(twos) / static_cast<double>(ones), 3.0, 0.3);

  // Laplace is centered with variance 2 b^2.
  RunningStats lap;
  for (int i = 0; i < 200000; ++i) lap.Add(r.Laplace(2.0));
  CHECK_NEAR(lap.mean(), 0.0, 0.05);
  CHECK_NEAR(lap.variance(), 8.0, 0.5);

  // Gaussian moments.
  RunningStats gauss;
  for (int i = 0; i < 200000; ++i) gauss.Add(r.Gaussian());
  CHECK_NEAR(gauss.mean(), 0.0, 0.02);
  CHECK_NEAR(gauss.variance(), 1.0, 0.05);

  // ---- Batch layer (DESIGN.md §4e): every identity the batched exchange
  // kernels rely on, pinned bit-exact against the sequential Rng path.

  // Xoshiro256::Seeded + Next is exactly Rng's stream.
  {
    Rng seq(0xfeedULL);
    Xoshiro256 x = Xoshiro256::Seeded(0xfeedULL);
    for (int i = 0; i < 256; ++i) CHECK(seq.Next() == x.Next());
  }

  // Rng::FillRaw in arbitrary chunk sizes == the same stream drawn one
  // Next() at a time.
  {
    Rng seq(99), chunked(99);
    std::vector<uint64_t> expect(1000), got(1000);
    for (auto& v : expect) v = seq.Next();
    const size_t chunks[] = {1, 2, 3, 7, 64, 923};
    size_t at = 0;
    for (size_t c : chunks) {
      chunked.FillRaw(got.data() + at, c);
      at += c;
    }
    CHECK(at == got.size());
    CHECK(expect == got);
  }

  // FirstRawDraw over a (seed, round, key) grid: bit-identical to the first
  // word of a fresh Rng on the same stream — the walk's one coin per report
  // per round.  The report coins' seed is a fixed function of the exchange
  // seed, and their stream in round t differs from the availability stream
  // a fault model reads for the user with the same id.
  for (uint64_t seed : {1ULL, 2022ULL, 0xdeadbeefULL}) {
    CHECK(ReportWalkSeed(seed) == ReportWalkSeed(seed));
    CHECK(ReportWalkSeed(seed) != seed);
    for (uint64_t round : {0ULL, 1ULL, 17ULL}) {
      for (uint64_t user : {0ULL, 1ULL, 999ULL, 123456789ULL}) {
        const uint64_t stream = ExchangeStreamSeed(seed, round, user);
        CHECK(stream == HashCombine(seed, HashCombine(round, user)));
        CHECK(FirstRawDraw(stream) == Rng(stream).Next());
        const uint64_t coin =
            ExchangeStreamSeed(ReportWalkSeed(seed), round, user);
        CHECK(coin != stream);
        CHECK(FirstRawDraw(coin) == Rng(coin).Next());
      }
    }
  }

  // BatchStreamSeeds (AVX-512 body plus scalar tail on capable hosts) ==
  // the scalar derivation, key by key, for block lengths around the
  // 8-lane vector width.
  for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                       size_t{513}}) {
    Rng keys(count + 1);
    std::vector<uint32_t> ids(count);
    for (auto& id : ids) id = static_cast<uint32_t>(keys.Next());
    std::vector<uint64_t> streams(count), firsts(count);
    const uint64_t seed = ReportWalkSeed(count), round = 3 * count;
    BatchStreamSeeds(ids.data(), count, seed, round, streams.data(),
                     firsts.data());
    for (size_t i = 0; i < count; ++i) {
      CHECK(streams[i] == ExchangeStreamSeed(seed, round, ids[i]));
      CHECK(firsts[i] == Rng(streams[i]).Next());
    }
  }

  // MapToBound == UniformInt draw-for-draw: feeding the raw words of a
  // stream through MapToBound reproduces the bounded draws exactly, for
  // degree-like bounds including 1 (always 0) and non-powers of two.
  for (size_t bound : {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{8},
                       size_t{20}, size_t{64}, size_t{1000003}}) {
    Rng raw(4242), bounded(4242);
    for (int i = 0; i < 200; ++i) {
      CHECK(MapToBound(raw.Next(), bound) == bounded.UniformInt(bound));
    }
  }

  // Power-of-two degeneration: for bound 2^k (k >= 1) the multiply-shift
  // is exactly a right shift by 64 - k.
  for (int k = 1; k <= 20; ++k) {
    const size_t bound = size_t{1} << k;
    Rng raw(31337);
    for (int i = 0; i < 200; ++i) {
      const uint64_t word = raw.Next();
      CHECK(MapToBound(word, bound) == (word >> (64 - k)));
    }
  }

  // SplitMix64Finalize jump: the finalizer at state + i*gamma is the i-th
  // SplitMix64 word — the identity FirstRawDraw uses to read s[1] alone.
  {
    uint64_t sm = 777;
    for (int i = 1; i <= 8; ++i) {
      CHECK(SplitMix64(&sm) ==
            SplitMix64Finalize(777 + static_cast<uint64_t>(i) *
                                         kSplitMix64Gamma));
    }
  }
  return 0;
}
