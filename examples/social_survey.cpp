// Social-network survey: the paper's motivating scenario — a messaging-app
// operator privately estimates how users answer a multiple-choice survey.
// Reports are k-RR randomized, exchanged over a synthetic Twitch-like social
// graph via the full Figure-3 secure relay protocol (PKI + two encryption
// layers), then debiased at the server.
//
//   ./examples/social_survey [epsilon0]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/session.h"
#include "data/datasets.h"
#include "dp/ldp.h"
#include "shuffle/pki.h"
#include "util/rng.h"

using namespace netshuffle;

int main(int argc, char** argv) {
  const double epsilon0 = argc > 1 ? std::strtod(argv[1], nullptr) : 2.0;
  const size_t kCategories = 4;
  const char* kAnswers[kCategories] = {"daily", "weekly", "monthly", "never"};

  std::printf("Private survey over a social network (eps0=%.2f)\n\n", epsilon0);

  // A Twitch-like social graph, scaled down so the example runs in seconds.
  auto ds = MakeDatasetByName("twitch", 7, /*scale=*/0.25);
  const size_t n = ds.graph.num_nodes();
  std::printf("graph: %s-like, n=%zu, m=%zu, Gamma=%.3f\n", ds.name.c_str(),
              n, ds.graph.num_edges(), ds.actual_gamma);

  // Ground truth: skewed answer distribution.
  Rng rng(123);
  std::vector<double> weights{0.45, 0.3, 0.2, 0.05};
  std::vector<uint32_t> answers(n);
  std::vector<uint64_t> truth(kCategories, 0);
  for (size_t i = 0; i < n; ++i) {
    answers[i] = static_cast<uint32_t>(rng.Discrete(weights));
    ++truth[answers[i]];
  }

  // Local randomization with k-ary randomized response into 4-byte bucket
  // payloads in a write-once arena; the same mechanism object plugs into
  // the accounting session below.
  KRandomizedResponse rr(kCategories, epsilon0);
  PayloadArena payloads;
  payloads.Reserve(n, n * rr.payload_size());
  for (size_t i = 0; i < n; ++i) {
    rr.EmitReport(static_cast<NodeId>(i), answers[i], &rng, &payloads);
  }

  // Privacy accounting: validate the graph + budgets into a Session once;
  // the relay below runs at its seed and target rounds, so it routes every
  // report along the walk the certificate prices.
  SessionConfig config;
  config.SetGraph(Graph(ds.graph)).SetMechanism(rr);
  Expected<Session> created = Session::Create(std::move(config));
  if (!created.ok()) {
    std::fprintf(stderr, "session rejected: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  Session accounting = std::move(created).value();
  const size_t rounds = accounting.target_rounds();
  std::printf("mixing time: %zu rounds (alpha=%.4f)\n", rounds,
              accounting.spectral_gap());

  // Secure relay session: PKI, c1/c2 layers, t = mixing time rounds.
  const Pki pki(99, n);
  Expected<SecureRelayResult> relayed = RunSecureRelaySession(
      ds.graph, pki, std::move(payloads), rounds, accounting.seed());
  if (!relayed.ok()) {
    std::fprintf(stderr, "relay rejected: %s\n",
                 relayed.status().ToString().c_str());
    return 1;
  }

  // Server-side decryption happened inside the session; decode the 4-byte
  // buckets and debias the counts.
  std::vector<uint64_t> observed(kCategories, 0);
  for (const Bytes& b : relayed.value().delivered_payloads) {
    uint32_t bucket = 0;
    std::memcpy(&bucket, b.data(), sizeof(uint32_t));
    if (bucket < kCategories) ++observed[bucket];
  }
  const auto estimate = rr.DebiasCounts(observed, n);

  const auto central = accounting.TargetGuarantee();
  std::printf("central DP after shuffling: (%.4f, %.1e)\n\n", central.epsilon,
              central.delta);

  std::printf("%-10s %10s %10s\n", "answer", "true", "estimate");
  for (size_t c = 0; c < kCategories; ++c) {
    std::printf("%-10s %9.1f%% %9.1f%%\n", kAnswers[c],
                100.0 * static_cast<double>(truth[c]) / static_cast<double>(n),
                100.0 * estimate[c]);
  }
  return 0;
}
