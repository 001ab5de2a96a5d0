// Deterministic, seedable PRNG (xoshiro256**) plus the handful of
// distributions the simulators need.  Not cryptographic — the secure relay
// path (shuffle/pki.h) keys its toy stream cipher off this too, which is fine
// for a simulation and documented as such there.
//
// The exchange walk (shuffle/engine.cc, DESIGN.md §4e) consumes the SAME
// streams through a batch layer: BatchStreamSeeds derives a block of stream
// seeds and their first words at once, and MapToBound is the one
// multiply-shift that turns a raw word into a bounded draw.  Everything here
// is pinned bit-identical to the sequential per-draw Rng path by
// tests/test_rng.cc.

#ifndef NETSHUFFLE_UTIL_RNG_H_
#define NETSHUFFLE_UTIL_RNG_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#define NETSHUFFLE_BATCH_RNG_AVX512 1
#include <immintrin.h>
#endif

namespace netshuffle {

/// The SplitMix64 increment ("golden gamma").
constexpr uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

/// The SplitMix64 output mix, stateless.  SplitMix64(s) is exactly
/// SplitMix64Finalize(*s += gamma); the batched kernels use the finalizer
/// directly to jump to the k-th word of a seed sequence without looping.
inline uint64_t SplitMix64Finalize(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline uint64_t SplitMix64(uint64_t* state) {
  return SplitMix64Finalize(*state += kSplitMix64Gamma);
}

/// Stateless 64-bit mix of two words; used where per-(round, edge) coin flips
/// must be recomputable without storing them (graph/dynamic.h).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  uint64_t s = a ^ (b + kSplitMix64Gamma + (a << 6) + (a >> 2));
  return SplitMix64(&s);
}

inline uint64_t Rotl64(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// The raw xoshiro256** state machine behind Rng.  Seeded(seed) then
/// Next() x k is bit-identical to Rng(seed).Next() x k.
struct Xoshiro256 {
  uint64_t s[4];

  static Xoshiro256 Seeded(uint64_t seed) {
    Xoshiro256 x;
    uint64_t sm = seed;
    for (int i = 0; i < 4; ++i) x.s[i] = SplitMix64(&sm);
    return x;
  }

  uint64_t Next() {
    const uint64_t result = Rotl64(s[1] * 5, 7) * 9;
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = Rotl64(s[3], 45);
    return result;
  }
};

/// The exchange engine's per-(seed, round, key) stream seed — exactly
/// HashCombine(seed, HashCombine(round, key)).  The key is a user for the
/// availability stream a fault model reads, and a report id for the walk's
/// destination coins (keyed under ReportWalkSeed, below).  One named place
/// so the walk, the fault path, and the scalar reference implementations in
/// the tests all derive the identical stream.
inline uint64_t ExchangeStreamSeed(uint64_t seed, uint64_t round,
                                   uint64_t key) {
  return HashCombine(seed, HashCombine(round, key));
}

/// The seed of the walk's per-(round, report) destination coins:
/// HashCombine(seed, a fixed tag).  The tag keeps report r's coin stream in
/// round t apart from user r's availability stream in round t, which is
/// keyed on `seed` itself; without it the two would share a word, and an
/// awake holder's destination would depend on its own wake-up draw.
inline uint64_t ReportWalkSeed(uint64_t seed) {
  return HashCombine(seed, 0x7265706f72742d77ULL);  // "report-w"
}

/// First raw word of Rng(stream_seed) without materializing the state: the
/// first xoshiro256** output reads only s[1], the SECOND SplitMix64 word of
/// the seed sequence — two finalizer mixes instead of four plus a step.
/// Each report draws exactly one coin per round, so this is the walk's
/// whole per-hop draw.
inline uint64_t FirstRawDraw(uint64_t stream_seed) {
  const uint64_t s1 = SplitMix64Finalize(stream_seed + 2 * kSplitMix64Gamma);
  return Rotl64(s1 * 5, 7) * 9;
}

/// Maps a raw 64-bit word into {0, ..., bound-1} exactly as Rng::UniformInt
/// does (multiply-shift; bias negligible for bounds < 2^40).  The exchange
/// walk maps each report's batch-derived coin to a neighbor index through
/// this (DESIGN.md §4e).
inline size_t MapToBound(uint64_t raw, size_t bound) {
  return static_cast<size_t>(
      (static_cast<unsigned __int128>(raw) * bound) >> 64);
}

#if NETSHUFFLE_BATCH_RNG_AVX512
/// Eight-lane AVX-512 core of BatchStreamSeeds below: identical arithmetic
/// to ExchangeStreamSeed + FirstRawDraw, one key per 64-bit lane.  Compiled
/// for avx512f/dq regardless of the build's baseline (gcc target attribute)
/// and only ever called behind the runtime CPU check in BatchStreamSeeds.
__attribute__((target("avx512f,avx512dq"))) inline void BatchStreamSeedsAvx512(
    const uint32_t* users, size_t count, uint64_t seed, uint64_t round,
    uint64_t* streams, uint64_t* firsts) {
  const __m512i gamma = _mm512_set1_epi64(
      static_cast<long long>(kSplitMix64Gamma));
  const __m512i mul1 = _mm512_set1_epi64(
      static_cast<long long>(0xbf58476d1ce4e5b9ULL));
  const __m512i mul2 = _mm512_set1_epi64(
      static_cast<long long>(0x94d049bb133111ebULL));
  // HashCombine(a, b) = Finalize(a ^ (b + gamma + (a << 6) + (a >> 2)) +
  // gamma); for fixed `a` the additive term is a per-call constant.
  const __m512i a_round = _mm512_set1_epi64(static_cast<long long>(round));
  const __m512i add_round = _mm512_set1_epi64(static_cast<long long>(
      kSplitMix64Gamma + (round << 6) + (round >> 2)));
  const __m512i a_seed = _mm512_set1_epi64(static_cast<long long>(seed));
  const __m512i add_seed = _mm512_set1_epi64(static_cast<long long>(
      kSplitMix64Gamma + (seed << 6) + (seed >> 2)));
  const __m512i five = _mm512_set1_epi64(5);
  const __m512i nine = _mm512_set1_epi64(9);
  const __m512i seven = _mm512_set1_epi64(7);
  // SplitMix64Finalize, written out three times below (a lambda would lose
  // the enclosing function's target attribute and fail to build).
#define NETSHUFFLE_SM64_FINALIZE(z)                                          \
  (z) = _mm512_mullo_epi64(_mm512_xor_si512((z), _mm512_srli_epi64((z), 30)),\
                           mul1);                                            \
  (z) = _mm512_mullo_epi64(_mm512_xor_si512((z), _mm512_srli_epi64((z), 27)),\
                           mul2);                                            \
  (z) = _mm512_xor_si512((z), _mm512_srli_epi64((z), 31))
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m512i u = _mm512_cvtepu32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(users + i)));
    // inner = HashCombine(round, u)
    __m512i s = _mm512_xor_si512(a_round, _mm512_add_epi64(u, add_round));
    s = _mm512_add_epi64(s, gamma);
    NETSHUFFLE_SM64_FINALIZE(s);
    // stream = HashCombine(seed, inner)
    __m512i t = _mm512_xor_si512(a_seed, _mm512_add_epi64(s, add_seed));
    t = _mm512_add_epi64(t, gamma);
    NETSHUFFLE_SM64_FINALIZE(t);
    _mm512_storeu_si512(streams + i, t);
    // FirstRawDraw(stream)
    __m512i z = _mm512_add_epi64(t, _mm512_add_epi64(gamma, gamma));
    NETSHUFFLE_SM64_FINALIZE(z);
    z = _mm512_mullo_epi64(_mm512_rolv_epi64(_mm512_mullo_epi64(z, five),
                                             seven),
                           nine);
    _mm512_storeu_si512(firsts + i, z);
  }
#undef NETSHUFFLE_SM64_FINALIZE
  for (; i < count; ++i) {
    const uint64_t stream = ExchangeStreamSeed(seed, round, users[i]);
    streams[i] = stream;
    firsts[i] = FirstRawDraw(stream);
  }
}
#endif  // NETSHUFFLE_BATCH_RNG_AVX512

/// Batch stream-seed derivation: for each key in users[0 .. count),
/// streams[i] = ExchangeStreamSeed(seed, round, users[i]) and
/// firsts[i] = FirstRawDraw(streams[i]) — the coin work of one walk block
/// (the keys are report ids there), as one flat data-parallel kernel (8 keys
/// per AVX-512 vector when the CPU has avx512f/dq, a plain scalar loop
/// otherwise; both paths bit-identical, pinned by tests/test_rng.cc).
inline void BatchStreamSeeds(const uint32_t* users, size_t count,
                             uint64_t seed, uint64_t round, uint64_t* streams,
                             uint64_t* firsts) {
#if NETSHUFFLE_BATCH_RNG_AVX512
  static const bool kHasAvx512 = __builtin_cpu_supports("avx512f") &&
                                 __builtin_cpu_supports("avx512dq");
  if (kHasAvx512) {
    BatchStreamSeedsAvx512(users, count, seed, round, streams, firsts);
    return;
  }
#endif
  for (size_t i = 0; i < count; ++i) {
    const uint64_t stream = ExchangeStreamSeed(seed, round, users[i]);
    streams[i] = stream;
    firsts[i] = FirstRawDraw(stream);
  }
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Xoshiro256::Seeded(seed)) {}

  uint64_t Next() { return state_.Next(); }

  /// Fills out[0 .. count): bit-identical to count successive Next()
  /// calls.
  void FillRaw(uint64_t* out, size_t count) {
    for (size_t i = 0; i < count; ++i) out[i] = state_.Next();
  }

  /// Uniform in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform in {0, ..., bound-1}; bound must be > 0.
  size_t UniformInt(size_t bound) { return MapToBound(Next(), bound); }

  /// Standard normal via Box-Muller (no cached spare; simpler determinism).
  double Gaussian() {
    double u1 = UniformDouble();
    while (u1 <= 0.0) u1 = UniformDouble();
    const double u2 = UniformDouble();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.14159265358979323846 * u2);
  }

  /// Laplace with scale b (location 0).
  double Laplace(double b) {
    const double u = UniformDouble() - 0.5;
    return (u < 0.0 ? b : -b) * std::log(1.0 - 2.0 * std::fabs(u));
  }

  /// Samples an index proportionally to the (non-negative) weights.
  size_t Discrete(const std::vector<double>& weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    double x = UniformDouble() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
      x -= weights[i];
      if (x < 0.0) return i;
    }
    return weights.empty() ? 0 : weights.size() - 1;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      const size_t j = UniformInt(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  Xoshiro256 state_;
};

}  // namespace netshuffle

#endif  // NETSHUFFLE_UTIL_RNG_H_
