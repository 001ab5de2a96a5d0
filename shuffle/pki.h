// PKI and the Figure-3 secure relay session: every payload is wrapped in an
// inner layer for the server (c1) and, per hop, an outer layer for the
// current holder (c2).  Layers are real AEAD — ChaCha20-Poly1305
// (shuffle/aead.h) — so a mishandled layer, a wrong key, or any transcript
// tampering is DETECTED (authentication failure), not silently garbled.
// Each wrap adds a 16-byte tag and each strip removes one, so a relayed
// ciphertext holds a constant two layers (payload + 32 bytes) at every hop.
//
// The relay has no walk of its own: it steps the exchange engine one round
// at a time (shuffle/engine.h ObserveEachRound), so a relay at a session's
// seed and rounds routes exactly as that session's certified run.
//
// Keys are derived deterministically from the PKI seed (simulation stand-in
// for the public-key handshake; a deployment would provision random keys
// behind the same interface).  Nonce discipline lives in shuffle/aead.h:
// one message nonce per report, a layer counter bumped on every wrap.

#ifndef NETSHUFFLE_SHUFFLE_PKI_H_
#define NETSHUFFLE_SHUFFLE_PKI_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/status.h"
#include "graph/graph.h"
#include "shuffle/aead.h"
#include "shuffle/payload.h"
#include "shuffle/protocol.h"

namespace netshuffle {

class Pki {
 public:
  /// Issues key material for the server and for users 0..num_users-1.
  Pki(uint64_t seed, size_t num_users);

  size_t num_users() const { return user_keys_.size(); }

  /// 256-bit AEAD key shared with user u (simulation stand-in for the
  /// public-key handshake).
  const AeadKey& UserKey(NodeId u) const { return user_keys_[u]; }
  const AeadKey& ServerKey() const { return server_key_; }

 private:
  std::vector<AeadKey> user_keys_;
  AeadKey server_key_;
};

struct SecureRelayResult {
  /// Server-side decrypted payloads, in the FinalizeProtocol(kAll) inbox
  /// order of the same exchange.
  std::vector<Bytes> delivered_payloads;
  /// Total hop count across all reports.
  size_t relay_hops = 0;
};

/// Runs one full secure-relay session over `payloads` (one report per user,
/// any byte length each): every origin seals its payload under the server
/// key (c1) and its own outer layer; in each of `rounds` rounds of the
/// engine's walk at `seed`, every report that changed holders is
/// authenticated and stripped under its previous holder's key and
/// re-wrapped under its new holder's; then every holder submits in A_all
/// order and the server opens both layers.  Routes and delivery order are
/// those of a Session's StepToTarget() + Finalize() at the same graph,
/// payloads, seed and rounds (rounds = 0 delivers every payload from its
/// origin).
///
/// kInvalidArgument if `pki` has keys for fewer than g.num_nodes() users;
/// otherwise the injection's errors (engine.h SealAndInject): a short
/// arena, an out-of-range or a duplicated origin is kPayloadMismatch.  An
/// honest transcript always authenticates, so a failed open is a fatal
/// relay bug.
Expected<SecureRelayResult> RunSecureRelaySession(const Graph& g,
                                                  const Pki& pki,
                                                  PayloadArena payloads,
                                                  size_t rounds,
                                                  uint64_t seed);

}  // namespace netshuffle

#endif  // NETSHUFFLE_SHUFFLE_PKI_H_
