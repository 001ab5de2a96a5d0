#include "shuffle/pki.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/session.h"
#include "graph/generators.h"
#include "shuffle/aead.h"
#include "shuffle/backend.h"
#include "shuffle/payload.h"
#include "tests/test_util.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace netshuffle;

namespace {

Bytes FromHex(const char* hex) {
  Bytes out;
  for (const char* p = hex; p[0] != '\0' && p[1] != '\0'; p += 2) {
    auto nibble = [](char c) {
      return static_cast<uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
    };
    out.push_back(static_cast<uint8_t>(nibble(p[0]) << 4 | nibble(p[1])));
  }
  return out;
}

}  // namespace

int main() {
  // ---- AEAD seal/open round-trip ------------------------------------------
  const AeadKey key = DeriveAeadKey(0xdeadbeefULL, 7);
  const AeadKey other_key = DeriveAeadKey(0xdeadbeefULL, 8);
  CHECK(key.bytes != other_key.bytes);

  const Bytes msg{1, 2, 3, 200, 255, 0, 7};
  const Bytes sealed = AeadSeal(key, /*nonce=*/42, /*layer=*/1, msg);
  CHECK(sealed.size() == msg.size() + kAeadTagBytes);
  // The ciphertext prefix is not the plaintext.
  CHECK(!std::equal(msg.begin(), msg.end(), sealed.begin()));

  Bytes opened;
  CHECK(AeadOpen(key, 42, 1, sealed, &opened));
  CHECK(opened == msg);

  // Empty plaintexts are legal: a tag-only ciphertext that still
  // authenticates.
  const Bytes empty_sealed = AeadSeal(key, 42, 2, Bytes{});
  CHECK(empty_sealed.size() == kAeadTagBytes);
  CHECK(AeadOpen(key, 42, 2, empty_sealed, &opened));
  CHECK(opened.empty());

  // Deterministic: the same (key, nonce, layer, plaintext) seals to the same
  // bytes, and a different nonce or layer produces different bytes.
  CHECK(AeadSeal(key, 42, 1, msg) == sealed);
  CHECK(AeadSeal(key, 43, 1, msg) != sealed);
  CHECK(AeadSeal(key, 42, 2, msg) != sealed);

  // ---- Known answers: RFC 8439 section 2.8.2 without the AAD -------------
  // Round trips and tamper checks cannot see a byte-order slip made the same
  // way on both sides; fixed ciphertexts can.  The key and plaintext are the
  // RFC's; its 12-byte nonce 07 00 00 00 40 41 42 43 44 45 46 47 is
  // (message nonce LE64, layer LE32).  The expected bytes (ciphertext ||
  // tag) come from an independent implementation, Python cryptography's
  // ChaCha20Poly1305(key).encrypt(nonce, plaintext[:len], None).
  {
    AeadKey rfc_key;
    for (size_t i = 0; i < kAeadKeyBytes; ++i) {
      rfc_key.bytes[i] = static_cast<uint8_t>(0x80 + i);
    }
    const uint64_t rfc_nonce = 0x4342414000000007ULL;
    const uint32_t rfc_layer = 0x47464544u;
    const std::string sunscreen =
        "Ladies and Gentlemen of the class of '99: If I could offer you only "
        "one tip for the future, sunscreen would be it.";
    CHECK(sunscreen.size() == 114);
    const struct {
      size_t length;
      const char* sealed_hex;
    } kKnownAnswers[] = {
        {0, "a0784d7a4716f3feb4f64e7f4b39bf04"},
        {1, "d39614ae9894890cdbb8756ba13766c5aa"},
        {16,
         "d31a8d34648e60db7b86afbc53ef7ec2f0050f4cdbfd3d0516891fac84845941"},
        {64,
         "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
         "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
         "f1c5b2fe4e9bf675474f07f1df59e542"},
        {114,
         "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
         "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
         "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
         "3ff4def08e4b7a9de576d26586cec64b61166a23a4681fd59456aea1d29f8247"
         "7216"},
    };
    for (const auto& kat : kKnownAnswers) {
      const Bytes plain(sunscreen.begin(), sunscreen.begin() + kat.length);
      const Bytes want = FromHex(kat.sealed_hex);
      CHECK(want.size() == kat.length + kAeadTagBytes);
      CHECK(AeadSeal(rfc_key, rfc_nonce, rfc_layer, plain) == want);
      Bytes back;
      CHECK(AeadOpen(rfc_key, rfc_nonce, rfc_layer, want, &back));
      CHECK(back == plain);
    }
  }

  // ---- Tamper DETECTION (not just garbling) -------------------------------
  // Wrong key / wrong nonce / wrong layer: authentication fails and the
  // output is cleared, never a garbled plaintext.
  opened = Bytes{99};
  CHECK(!AeadOpen(other_key, 42, 1, sealed, &opened));
  CHECK(opened.empty());
  CHECK(!AeadOpen(key, 41, 1, sealed, &opened));
  CHECK(!AeadOpen(key, 42, 0, sealed, &opened));

  // EVERY single-bit flip across the whole sealed buffer — ciphertext bytes
  // and tag bytes alike — is detected.
  for (size_t byte = 0; byte < sealed.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes tampered = sealed;
      tampered[byte] = static_cast<uint8_t>(tampered[byte] ^ (1u << bit));
      opened = Bytes{99};
      CHECK(!AeadOpen(key, 42, 1, tampered, &opened));
      CHECK(opened.empty());
    }
  }

  // Truncation at every length (including below the tag size) is rejected.
  for (size_t len = 0; len < sealed.size(); ++len) {
    Bytes truncated(sealed.begin(), sealed.begin() + len);
    CHECK(!AeadOpen(key, 42, 1, truncated, &opened));
  }
  // Extension is rejected too (the extra byte changes the MAC'd length).
  {
    Bytes extended = sealed;
    extended.push_back(0);
    CHECK(!AeadOpen(key, 42, 1, extended, &opened));
  }

  // ---- Full secure relay session ------------------------------------------
  // All payloads survive the two-layer onion path byte-for-byte (as a
  // multiset), shuffled across holders.
  const size_t n = 256;
  Rng graph_rng(3);
  const Graph g = MakeRandomRegular(n, 8, &graph_rng);
  const Pki pki(7, n);
  CHECK(pki.num_users() == n);

  PayloadArena fixed;
  std::vector<Bytes> payloads(n);
  for (NodeId u = 0; u < n; ++u) {
    payloads[u] = Bytes{static_cast<uint8_t>(u), static_cast<uint8_t>(u >> 8),
                        9, 9};
    fixed.Append(u, payloads[u]);
  }
  {
    const auto relayed = RunSecureRelaySession(g, pki, fixed, 16, 321);
    CHECK(relayed.ok());
    const SecureRelayResult& session = relayed.value();
    CHECK(session.delivered_payloads.size() == n);
    CHECK(session.relay_hops == n * 16);

    auto sorted_in = payloads;
    auto sorted_out = session.delivered_payloads;
    std::sort(sorted_in.begin(), sorted_in.end());
    std::sort(sorted_out.begin(), sorted_out.end());
    CHECK(sorted_in == sorted_out);
    // ... and the delivery order is actually shuffled.
    CHECK(session.delivered_payloads != payloads);
  }

  // Zero rounds: every report is submitted by its origin, in user order.
  {
    const auto relayed = RunSecureRelaySession(g, pki, fixed, 0, 321);
    CHECK(relayed.ok());
    CHECK(relayed.value().delivered_payloads == payloads);
    CHECK(relayed.value().relay_hops == 0);
  }

  // ---- The relayed run is the session's certified run ---------------------
  // VARIABLE-LENGTH slices (0..7 bytes, unique content per user) on the heap
  // and on a file-backed arena: the delivered payloads equal, in order, the
  // payload bytes of Session::Run()'s A_all inbox at the same graph,
  // payloads, seed and rounds, at every pool width.
  {
    Expected<std::shared_ptr<StorageBackend>> backend =
        StorageBackend::Create(StorageBackendConfig{});
    CHECK(backend.ok());
    PayloadArena heap;
    Expected<PayloadArena> hosted = PayloadArena::Hosted(backend.value());
    CHECK(hosted.ok());
    for (NodeId u = 0; u < n; ++u) {
      Bytes b;
      for (size_t i = 0; i < u % 8; ++i) {
        b.push_back(static_cast<uint8_t>((u * 37 + i * 11) & 0xff));
      }
      heap.Append(u, b);
      hosted.value().Append(u, b);
    }
    const size_t rounds = 12;
    const uint64_t seed = 555;
    SessionConfig config;
    config.SetGraph(Graph(g)).SetPayloads(heap).SetSeed(seed).SetRounds(
        rounds);
    Expected<Session> created = Session::Create(std::move(config));
    CHECK(created.ok());
    const ProtocolResult inbox = created.value().Run();
    CHECK(inbox.server_inbox.size() == n);
    for (size_t threads : {size_t{1}, size_t{3}, size_t{4}}) {
      SetThreadCount(threads);
      for (const PayloadArena* arena : {&heap, &hosted.value()}) {
        const auto relayed =
            RunSecureRelaySession(g, pki, *arena, rounds, seed);
        CHECK(relayed.ok());
        const std::vector<Bytes>& delivered =
            relayed.value().delivered_payloads;
        CHECK(delivered.size() == n);
        for (size_t i = 0; i < n; ++i) {
          CHECK(delivered[i] ==
                inbox.payloads->payload(inbox.server_inbox[i].id).ToBytes());
        }
      }
    }
    SetThreadCount(0);

    // A ciphertext sealed under one PKI's server key does not open under an
    // independent PKI's — every slice (even the empty ones, whose tag-only
    // ciphertexts still authenticate the key) is REJECTED, not garbled.
    const Pki other(9001, n);
    CHECK(other.ServerKey().bytes != pki.ServerKey().bytes);
    for (ReportId r = 0; r < static_cast<ReportId>(n); ++r) {
      const Bytes slice = heap.payload(r).ToBytes();
      const uint64_t nonce = 1000 + r;
      const Bytes c1 = AeadSeal(pki.ServerKey(), nonce, 0, slice);
      Bytes dec;
      CHECK(!AeadOpen(other.ServerKey(), nonce, 0, c1, &dec));
      CHECK(dec.empty());
      CHECK(AeadOpen(pki.ServerKey(), nonce, 0, c1, &dec));
      CHECK(dec == slice);
    }
  }

  // ---- Relay input errors are typed ---------------------------------------
  {
    // A short arena.
    PayloadArena short_arena;
    for (NodeId u = 0; u + 1 < n; ++u) short_arena.Append(u, Bytes{1});
    CHECK(RunSecureRelaySession(g, pki, short_arena, 2, 1).status().code() ==
          StatusCode::kPayloadMismatch);
    // An origin outside the population.
    PayloadArena out_of_range = short_arena;
    out_of_range.Append(static_cast<NodeId>(n + 5), Bytes{1});
    CHECK(RunSecureRelaySession(g, pki, out_of_range, 2, 1).status().code() ==
          StatusCode::kPayloadMismatch);
    // A duplicated origin: user 4 reports twice, user 5 never.
    PayloadArena duplicate;
    for (NodeId u = 0; u < n; ++u) duplicate.Append(u == 5 ? 4 : u, Bytes{1});
    CHECK(RunSecureRelaySession(g, pki, duplicate, 2, 1).status().code() ==
          StatusCode::kPayloadMismatch);
    // A PKI with keys for fewer users than the graph has.
    const Pki small(7, n - 1);
    CHECK(RunSecureRelaySession(g, small, fixed, 2, 1).status().code() ==
          StatusCode::kInvalidArgument);
  }
  return 0;
}
