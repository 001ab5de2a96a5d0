#include "shuffle/pki.h"

#include <algorithm>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "shuffle/aead.h"
#include "shuffle/payload.h"
#include "tests/test_util.h"

using namespace netshuffle;
using netshuffle_test::ExpectDeath;

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
  Graph g = MakeCirculant(n, 8);
  Pki pki(7);
  pki.RegisterUsers(static_cast<uint32_t>(n));
  pki.RegisterServer();
  CHECK(pki.num_users() == n);
  CHECK(pki.server_registered());

  std::vector<Bytes> payloads(n);
  for (size_t u = 0; u < n; ++u) {
    payloads[u] = Bytes{static_cast<uint8_t>(u), static_cast<uint8_t>(u >> 8),
                        9, 9};
  }
  const auto session = RunSecureRelaySession(g, &pki, payloads, 16, 321);
  CHECK(session.delivered_payloads.size() == n);
  CHECK(session.relay_hops == n * 16);

  auto sorted_in = payloads;
  auto sorted_out = session.delivered_payloads;
  std::sort(sorted_in.begin(), sorted_in.end());
  std::sort(sorted_out.begin(), sorted_out.end());
  CHECK(sorted_in == sorted_out);
  // ... and the delivery order is actually shuffled.
  CHECK(session.delivered_payloads != payloads);

  // ---- Arena overload: VARIABLE-LENGTH payloads through the onion path ----
  // Slices of 0..7 bytes, unique content per user: the relay must deliver
  // the exact multiset of byte slices (round-trip equality), proving the
  // two-layer wrap/strip path is length-preserving and byte-exact for
  // heterogeneous payload sizes.
  {
    PayloadArena arena;
    std::vector<Bytes> slices;
    for (NodeId u = 0; u < n; ++u) {
      Bytes b;
      for (size_t i = 0; i < u % 8; ++i) {
        b.push_back(static_cast<uint8_t>((u * 37 + i * 11) & 0xff));
      }
      slices.push_back(b);
      arena.Append(u, b);
    }
    arena.Freeze();

    const auto relayed = RunSecureRelaySession(g, &pki, arena, 12, 555);
    CHECK(relayed.delivered_payloads.size() == n);
    auto in_sorted = slices;
    auto out_sorted = relayed.delivered_payloads;
    std::sort(in_sorted.begin(), in_sorted.end());
    std::sort(out_sorted.begin(), out_sorted.end());
    CHECK(in_sorted == out_sorted);

    // A ciphertext sealed under one PKI's server key does not open under an
    // independent PKI's — every slice (even the empty ones, whose tag-only
    // ciphertexts still authenticate the key) is REJECTED, not garbled.
    Pki other(9001);
    other.RegisterUsers(static_cast<uint32_t>(n));
    other.RegisterServer();
    CHECK(other.ServerKey().bytes != pki.ServerKey().bytes);
    for (ReportId r = 0; r < static_cast<ReportId>(n); ++r) {
      const Bytes slice = arena.payload(r).ToBytes();
      const uint64_t nonce = 1000 + r;
      const Bytes c1 = AeadSeal(pki.ServerKey(), nonce, 0, slice);
      Bytes dec;
      CHECK(!AeadOpen(other.ServerKey(), nonce, 0, c1, &dec));
      CHECK(dec.empty());
      CHECK(AeadOpen(pki.ServerKey(), nonce, 0, c1, &dec));
      CHECK(dec == slice);
    }
  }

  // ---- Relay input validation (fatal, not silent corruption) --------------
  {
    // Payload count != n.
    ExpectDeath([&g, &pki] {
      (void)RunSecureRelaySession(g, &pki, std::vector<Bytes>(3), 2, 1);
    });
    // Out-of-range origin in an arena.
    ExpectDeath([&g, &pki] {
      PayloadArena bad;
      for (NodeId u = 0; u + 1 < n; ++u) bad.Append(u, Bytes{1});
      bad.Append(static_cast<NodeId>(n + 5), Bytes{1});
      (void)RunSecureRelaySession(g, &pki, bad, 2, 1);
    });
    // Unregistered PKI.
    ExpectDeath([&g] {
      Pki empty(1);
      (void)RunSecureRelaySession(g, &empty, std::vector<Bytes>(n), 2, 1);
    });
  }
  return 0;
}
