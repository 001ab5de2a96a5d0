#include "shuffle/pki.h"

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "shuffle/engine.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace netshuffle {

Pki::Pki(uint64_t seed, size_t num_users)
    : user_keys_(num_users),
      server_key_(DeriveAeadKey(seed ^ 0x5e7e7ULL, 0)) {
  for (size_t u = 0; u < num_users; ++u) {
    user_keys_[u] = DeriveAeadKey(seed ^ 0xbeefULL, u);
  }
}

namespace {

// Reports per pool task in the relay's per-report passes: a report costs a
// few AEAD passes over its payload, so a task of this many amortizes the
// dispatch.
constexpr size_t kRelayGrain = 64;

// One report's onion in flight: c1 (the server layer, AEAD layer 0) under
// its current holder's outer layer, sealed at layer counter `layer`.
struct Ciphertext {
  uint32_t layer = 1;
  Bytes sealed;
};

}  // namespace

Expected<SecureRelayResult> RunSecureRelaySession(const Graph& g,
                                                  const Pki& pki,
                                                  PayloadArena payloads,
                                                  size_t rounds,
                                                  uint64_t seed) {
  const size_t n = g.num_nodes();
  if (pki.num_users() < n) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "RunSecureRelaySession: the PKI has keys for " +
                             std::to_string(pki.num_users()) + " of " +
                             std::to_string(n) + " users");
  }
  ExchangeWorkspace workspace;
  Expected<ExchangeResult> injected = SealAndInject(n, &payloads, &workspace);
  if (!injected.ok()) return injected.status();
  ExchangeResult state = std::move(injected).value();
  const PayloadArena& arena = *state.payloads;
  const NodeId* origins = arena.Origins().value();

  // Report r's message nonce is (run word, r): no two reports of a run share
  // one, and each wrap bumps the layer counter (shuffle/aead.h).
  const uint64_t run_word = HashCombine(seed, 0x72656c6179ULL) << 32;
  // An honest transcript always authenticates; a failed open anywhere below
  // is a relay bug, reported once at the end.
  std::atomic<bool> broken{false};
  // Every pass below touches only its own reports' entries, so each runs on
  // the pool.
  std::vector<Ciphertext> column(n);
  ParallelFor(n, kRelayGrain, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      const PayloadSpan payload = arena.payload(static_cast<ReportId>(r));
      const Bytes c1 = AeadSeal(pki.ServerKey(), run_word | r, 0,
                                payload.data(), payload.size());
      column[r].sealed =
          AeadSeal(pki.UserKey(origins[r]), run_word | r, 1, c1);
    }
  });

  ExchangeOptions walk;
  walk.rounds = rounds;
  walk.seed = seed;
  const auto rewrap = [&](const std::vector<NodeId>& before,
                          const std::vector<NodeId>& after) {
    ParallelFor(n, kRelayGrain, [&](size_t begin, size_t end) {
      Bytes inner;
      for (size_t r = begin; r < end; ++r) {
        if (before[r] == after[r]) continue;
        Ciphertext& ct = column[r];
        if (!AeadOpen(pki.UserKey(before[r]), run_word | r, ct.layer,
                      ct.sealed, &inner)) {
          broken = true;
          continue;
        }
        ++ct.layer;
        ct.sealed = AeadSeal(pki.UserKey(after[r]), run_word | r, ct.layer,
                             inner);
      }
    });
  };
  state = ObserveEachRound(g, std::move(state), walk, rewrap, &workspace);

  // Submission in A_all order: every final holder strips its outer layer and
  // the server strips c1.
  const std::vector<FinalReport> submitted =
      FinalizeProtocol(state, ReportingProtocol::kAll, seed).server_inbox;
  SecureRelayResult result;
  result.delivered_payloads.resize(submitted.size());
  ParallelFor(submitted.size(), kRelayGrain, [&](size_t begin, size_t end) {
    Bytes inner;
    for (size_t i = begin; i < end; ++i) {
      const FinalReport& report = submitted[i];
      const Ciphertext& ct = column[report.id];
      const uint64_t nonce = run_word | report.id;
      if (!AeadOpen(pki.UserKey(report.final_holder), nonce, ct.layer,
                    ct.sealed, &inner) ||
          !AeadOpen(pki.ServerKey(), nonce, 0, inner,
                    &result.delivered_payloads[i])) {
        broken = true;
      }
    }
  });
  if (broken) {
    NETSHUFFLE_FATAL(
        "secure relay: a layer failed to authenticate (relay invariant "
        "broken)");
  }
  for (const Ciphertext& ct : column) result.relay_hops += ct.layer - 1;
  return result;
}

}  // namespace netshuffle
