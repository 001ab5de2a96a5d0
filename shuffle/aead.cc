// ChaCha20-Poly1305 (RFC 8439), checked against known answers built from
// the RFC's section 2.8.2 inputs (tests/test_pki.cc).  Scalar throughout:
// the onion wrap seals a few hundred bytes per hop, so batched/SIMD crypto
// would be noise next to the exchange itself.  Byte I/O is little-endian
// shifts (GetU32/PutU32/PutU64 below) — no struct punning, no
// host-endianness assumptions.

#include "shuffle/aead.h"

#include "util/rng.h"

namespace netshuffle {

namespace {

inline uint32_t GetU32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

inline void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

inline void PutU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

inline uint32_t Rotl32(uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c,
                         uint32_t& d) {
  a += b; d ^= a; d = Rotl32(d, 16);
  c += d; b ^= c; b = Rotl32(b, 12);
  a += b; d ^= a; d = Rotl32(d, 8);
  c += d; b ^= c; b = Rotl32(b, 7);
}

/// One 64-byte ChaCha20 block: state = (constants, key, counter, nonce),
/// 10 double rounds, add the input state, serialize little-endian.
void ChaCha20Block(const uint32_t key_words[8], uint32_t counter,
                   const uint32_t nonce_words[3], uint8_t out[64]) {
  uint32_t s[16] = {0x61707865u, 0x3320646eu, 0x79622d32u, 0x6b206574u,
                    key_words[0], key_words[1], key_words[2], key_words[3],
                    key_words[4], key_words[5], key_words[6], key_words[7],
                    counter, nonce_words[0], nonce_words[1], nonce_words[2]};
  uint32_t x[16];
  for (int i = 0; i < 16; ++i) x[i] = s[i];
  for (int i = 0; i < 10; ++i) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) PutU32(out + 4 * i, x[i] + s[i]);
}

/// XORs the ChaCha20 keystream (starting at block `counter`) into
/// dst = src ^ keystream.  src and dst may alias.
void ChaCha20Xor(const uint32_t key_words[8], uint32_t counter,
                 const uint32_t nonce_words[3], const uint8_t* src,
                 size_t n, uint8_t* dst) {
  uint8_t block[64];
  size_t at = 0;
  while (at < n) {
    ChaCha20Block(key_words, counter++, nonce_words, block);
    const size_t take = n - at < 64 ? n - at : 64;
    for (size_t i = 0; i < take; ++i) dst[at + i] = src[at + i] ^ block[i];
    at += take;
  }
}

/// Poly1305 over `m` with the 32-byte one-time key (r || s), 26-bit-limb
/// arithmetic (the classic portable formulation: h = (h + block) * r mod
/// 2^130 - 5 per 16-byte block, then tag = h + s mod 2^128).
void Poly1305Mac(const uint8_t otk[32], const uint8_t* m, size_t n,
                 uint8_t tag[16]) {
  const uint32_t r0 = GetU32(otk + 0) & 0x3ffffffu;
  const uint32_t r1 = (GetU32(otk + 3) >> 2) & 0x3ffff03u;
  const uint32_t r2 = (GetU32(otk + 6) >> 4) & 0x3ffc0ffu;
  const uint32_t r3 = (GetU32(otk + 9) >> 6) & 0x3f03fffu;
  const uint32_t r4 = (GetU32(otk + 12) >> 8) & 0x00fffffu;
  const uint32_t s1 = r1 * 5, s2 = r2 * 5, s3 = r3 * 5, s4 = r4 * 5;

  uint32_t h0 = 0, h1 = 0, h2 = 0, h3 = 0, h4 = 0;
  while (n > 0) {
    uint8_t block[16] = {0};
    const size_t take = n < 16 ? n : 16;
    for (size_t i = 0; i < take; ++i) block[i] = m[i];
    const uint32_t hibit = take == 16 ? (1u << 24) : 0;
    if (take < 16) block[take] = 1;

    h0 += GetU32(block + 0) & 0x3ffffffu;
    h1 += (GetU32(block + 3) >> 2) & 0x3ffffffu;
    h2 += (GetU32(block + 6) >> 4) & 0x3ffffffu;
    h3 += (GetU32(block + 9) >> 6) & 0x3ffffffu;
    h4 += (GetU32(block + 12) >> 8) | hibit;

    const uint64_t d0 = static_cast<uint64_t>(h0) * r0 +
                        static_cast<uint64_t>(h1) * s4 +
                        static_cast<uint64_t>(h2) * s3 +
                        static_cast<uint64_t>(h3) * s2 +
                        static_cast<uint64_t>(h4) * s1;
    uint64_t d1 = static_cast<uint64_t>(h0) * r1 +
                  static_cast<uint64_t>(h1) * r0 +
                  static_cast<uint64_t>(h2) * s4 +
                  static_cast<uint64_t>(h3) * s3 +
                  static_cast<uint64_t>(h4) * s2;
    uint64_t d2 = static_cast<uint64_t>(h0) * r2 +
                  static_cast<uint64_t>(h1) * r1 +
                  static_cast<uint64_t>(h2) * r0 +
                  static_cast<uint64_t>(h3) * s4 +
                  static_cast<uint64_t>(h4) * s3;
    uint64_t d3 = static_cast<uint64_t>(h0) * r3 +
                  static_cast<uint64_t>(h1) * r2 +
                  static_cast<uint64_t>(h2) * r1 +
                  static_cast<uint64_t>(h3) * r0 +
                  static_cast<uint64_t>(h4) * s4;
    uint64_t d4 = static_cast<uint64_t>(h0) * r4 +
                  static_cast<uint64_t>(h1) * r3 +
                  static_cast<uint64_t>(h2) * r2 +
                  static_cast<uint64_t>(h3) * r1 +
                  static_cast<uint64_t>(h4) * r0;

    // ns-lint: allow(narrow32): deliberate masked 26-bit limb truncation
    uint64_t c = d0 >> 26;
    h0 = static_cast<uint32_t>(d0) & 0x3ffffffu;
    d1 += c; c = d1 >> 26; h1 = static_cast<uint32_t>(d1) & 0x3ffffffu;
    // ns-lint: allow(narrow32): same masked limb truncation as above
    d2 += c; c = d2 >> 26; h2 = static_cast<uint32_t>(d2) & 0x3ffffffu;
    d3 += c; c = d3 >> 26; h3 = static_cast<uint32_t>(d3) & 0x3ffffffu;
    d4 += c; c = d4 >> 26; h4 = static_cast<uint32_t>(d4) & 0x3ffffffu;
    // ns-lint: allow(narrow32): carry c < 2^38 / 2^26, fits 32 bits
    h0 += static_cast<uint32_t>(c) * 5;
    c = h0 >> 26;
    h0 &= 0x3ffffffu;
    // ns-lint: allow(narrow32): carry c <= 1 after the 26-bit reduction
    h1 += static_cast<uint32_t>(c);

    m += take;
    n -= take;
  }

  uint32_t c = h1 >> 26; h1 &= 0x3ffffffu; h2 += c;
  c = h2 >> 26; h2 &= 0x3ffffffu; h3 += c;
  c = h3 >> 26; h3 &= 0x3ffffffu; h4 += c;
  c = h4 >> 26; h4 &= 0x3ffffffu; h0 += c * 5;
  c = h0 >> 26; h0 &= 0x3ffffffu; h1 += c;

  uint32_t g0 = h0 + 5; c = g0 >> 26; g0 &= 0x3ffffffu;
  uint32_t g1 = h1 + c; c = g1 >> 26; g1 &= 0x3ffffffu;
  uint32_t g2 = h2 + c; c = g2 >> 26; g2 &= 0x3ffffffu;
  uint32_t g3 = h3 + c; c = g3 >> 26; g3 &= 0x3ffffffu;
  const uint32_t g4 = h4 + c - (1u << 26);

  const uint32_t mask = (g4 >> 31) - 1;  // all-ones iff h >= 2^130 - 5
  h0 = (h0 & ~mask) | (g0 & mask);
  h1 = (h1 & ~mask) | (g1 & mask);
  h2 = (h2 & ~mask) | (g2 & mask);
  h3 = (h3 & ~mask) | (g3 & mask);
  h4 = (h4 & ~mask) | (g4 & mask);

  const uint32_t hh0 = h0 | (h1 << 26);
  const uint32_t hh1 = (h1 >> 6) | (h2 << 20);
  const uint32_t hh2 = (h2 >> 12) | (h3 << 14);
  const uint32_t hh3 = (h3 >> 18) | (h4 << 8);

  // ns-lint: allow(narrow32): deliberate mod-2^32 tag words — the Poly1305
  // pad addition drops the carry out of each word by specification
  uint64_t f = static_cast<uint64_t>(hh0) + GetU32(otk + 16);
  PutU32(tag + 0, static_cast<uint32_t>(f));
  f = static_cast<uint64_t>(hh1) + GetU32(otk + 20) + (f >> 32);
  // ns-lint: allow(narrow32): same mod-2^32 tag-word truncation as above
  PutU32(tag + 4, static_cast<uint32_t>(f));
  f = static_cast<uint64_t>(hh2) + GetU32(otk + 24) + (f >> 32);
  PutU32(tag + 8, static_cast<uint32_t>(f));
  f = static_cast<uint64_t>(hh3) + GetU32(otk + 28) + (f >> 32);
  // ns-lint: allow(narrow32): same mod-2^32 tag-word truncation as above
  PutU32(tag + 12, static_cast<uint32_t>(f));
}

struct NoncedKey {
  uint32_t key_words[8];
  uint32_t nonce_words[3];
};

NoncedKey Expand(const AeadKey& key, uint64_t nonce, uint32_t layer) {
  NoncedKey nk;
  for (int i = 0; i < 8; ++i) {
    nk.key_words[i] = GetU32(key.bytes.data() + 4 * i);
  }
  // ns-lint: allow(narrow32): deliberate 64->2x32 split of the message
  // nonce into the RFC 8439 96-bit nonce words — no information lost
  nk.nonce_words[0] = static_cast<uint32_t>(nonce);
  nk.nonce_words[1] = static_cast<uint32_t>(nonce >> 32);
  nk.nonce_words[2] = layer;
  return nk;
}

/// AEAD tag over the ciphertext (RFC 8439 §2.8 with empty AAD): Poly1305
/// under the one-time key from keystream block 0, over
/// ct || pad16 || le64(aad_len = 0) || le64(ct_len).
void ComputeTag(const NoncedKey& nk, const uint8_t* ct, size_t n,
                uint8_t tag[16]) {
  uint8_t block0[64];
  ChaCha20Block(nk.key_words, 0, nk.nonce_words, block0);

  Bytes mac_data;
  mac_data.reserve(((n + 15) / 16) * 16 + 16);
  mac_data.assign(ct, ct + n);
  mac_data.resize(((n + 15) / 16) * 16, 0);
  const size_t len_at = mac_data.size();
  mac_data.resize(len_at + 16, 0);
  PutU64(mac_data.data() + len_at, 0);  // aad length (no AAD)
  PutU64(mac_data.data() + len_at + 8, static_cast<uint64_t>(n));

  Poly1305Mac(block0, mac_data.data(), mac_data.size(), tag);
}

}  // namespace

AeadKey DeriveAeadKey(uint64_t seed, uint64_t id) {
  AeadKey key;
  uint64_t state = HashCombine(seed ^ 0x41454144u /* "AEAD" */, id);
  for (int i = 0; i < 4; ++i) {
    PutU64(key.bytes.data() + 8 * i, SplitMix64(&state));
  }
  return key;
}

Bytes AeadSeal(const AeadKey& key, uint64_t nonce, uint32_t layer,
               const uint8_t* plaintext, size_t plaintext_bytes) {
  const NoncedKey nk = Expand(key, nonce, layer);
  Bytes out(plaintext_bytes + kAeadTagBytes);
  ChaCha20Xor(nk.key_words, 1, nk.nonce_words, plaintext, plaintext_bytes,
              out.data());
  ComputeTag(nk, out.data(), plaintext_bytes,
             out.data() + plaintext_bytes);
  return out;
}

bool AeadOpen(const AeadKey& key, uint64_t nonce, uint32_t layer,
              const uint8_t* sealed, size_t sealed_bytes, Bytes* plaintext) {
  plaintext->clear();
  if (sealed_bytes < kAeadTagBytes) return false;
  const size_t ct_bytes = sealed_bytes - kAeadTagBytes;
  const NoncedKey nk = Expand(key, nonce, layer);

  uint8_t want[kAeadTagBytes];
  ComputeTag(nk, sealed, ct_bytes, want);
  // Constant-time compare: accumulate the whole XOR before deciding, so a
  // transcript observer learns nothing from verification timing.
  uint8_t diff = 0;
  for (size_t i = 0; i < kAeadTagBytes; ++i) {
    diff |= static_cast<uint8_t>(want[i] ^ sealed[ct_bytes + i]);
  }
  if (diff != 0) return false;

  plaintext->resize(ct_bytes);
  ChaCha20Xor(nk.key_words, 1, nk.nonce_words, sealed, ct_bytes,
              plaintext->data());
  return true;
}

}  // namespace netshuffle
