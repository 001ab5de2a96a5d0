// Hammers the reader-safe accounting surface (Guarantee / GuaranteeAt /
// current_round / epoch) from concurrent threads while a mutator thread
// Steps, rolls epochs, and rewires — the serving-model concurrency contract
// of core/session.h.  Run under ThreadSanitizer in CI (NS_SANITIZE=thread)
// at NS_THREADS=4; any data race or torn (epoch, round) publication fails
// there, and the monotonicity/consistency checks below fail everywhere.

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "core/session.h"
#include "dp/ldp.h"
#include "graph/generators.h"
#include "tests/test_util.h"
#include "util/rng.h"

using namespace netshuffle;

namespace {

constexpr size_t kUsers = 600;
constexpr size_t kReaders = 3;
constexpr size_t kEpochs = 3;
constexpr size_t kRoundsPerEpoch = 6;

Graph Expander(uint64_t seed) {
  Rng rng(seed);
  return MakeRandomRegular(kUsers, 8, &rng);
}

void FillEpoch(Session* session, uint64_t seed) {
  KRandomizedResponse rr(8, 1.0);
  Rng rng(seed);
  for (size_t u = 0; u < kUsers; ++u) {
    rr.EmitReport(static_cast<NodeId>(u),
                  static_cast<uint32_t>(rng.UniformInt(8)), &rng,
                  session->pending_arena());
  }
}

/// Readers loop until stopped: published progress must be monotone, every
/// capped guarantee must stay inside (0, eps0], and hypothetical queries at
/// fixed rounds must keep working mid-step and mid-rollover.
void ReaderLoop(const Session& session, std::atomic<bool>* stop,
                std::atomic<size_t>* queries) {
  size_t prev_epoch = 0, prev_round = 0;
  while (!stop->load(std::memory_order_acquire)) {
    const size_t e1 = session.epoch();
    const size_t r = session.current_round();
    const size_t e2 = session.epoch();
    // (e1, r) is a consistent published pair only when no rollover
    // interleaved between the two epoch loads.
    if (e1 == e2) {
      CHECK(e1 >= prev_epoch);
      if (e1 == prev_epoch) CHECK(r >= prev_round);
      prev_epoch = e1;
      prev_round = r;
    }
    const PrivacyParams capped = session.Guarantee();
    CHECK(capped.epsilon > 0.0);
    CHECK(capped.epsilon <= session.epsilon0() + 1e-12);
    const PrivacyParams at = session.GuaranteeAt(kRoundsPerEpoch, 1.0);
    CHECK(at.epsilon > 0.0);
    queries->fetch_add(1, std::memory_order_relaxed);
  }
}

/// One full serving run: kEpochs rollovers with kRoundsPerEpoch steps each,
/// readers hammering throughout.  `churn` adds a Rewire per rollover (the
/// exclusive-writer path readers must survive).
void ServeUnderReaders(bool churn) {
  SessionConfig config;
  config.SetGraph(Expander(7)).SetEpsilon0(1.0).SetSeed(99);
  Session session = Session::Create(std::move(config)).value();

  std::atomic<bool> stop{false};
  std::atomic<size_t> queries{0};
  std::vector<std::thread> readers;
  for (size_t i = 0; i < kReaders; ++i) {
    readers.emplace_back(ReaderLoop, std::cref(session), &stop, &queries);
  }
  // Don't let a fast serving run finish before the readers are scheduled:
  // the point is overlap.
  while (queries.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }

  uint64_t graph_seed = 100;
  for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
    for (size_t k = 0; k < kRoundsPerEpoch; ++k) {
      CHECK(session.Step(1).ok());
    }
    CHECK(session.current_round() == kRoundsPerEpoch);
    const ProtocolResult inbox = session.FinalizeEpoch();
    CHECK(inbox.server_inbox.size() == kUsers);
    FillEpoch(&session, 1000 + epoch);
    if (churn) CHECK(session.Rewire(Expander(graph_seed++)).ok());
    CHECK(session.BeginEpoch().ok());
    CHECK(session.epoch() == epoch + 1);
    CHECK(session.current_round() == 0);
  }
  for (size_t k = 0; k < kRoundsPerEpoch; ++k) CHECK(session.Step(1).ok());

  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  CHECK(queries.load() > 0);
}

}  // namespace

int main() {
  // Readers contend only on the progress word and the structure lock.
  ServeUnderReaders(/*churn=*/false);

  // Rewire under readers: its exclusive swap of the graph, the gap and the
  // stationary moments must not tear a concurrent query.
  ServeUnderReaders(/*churn=*/true);

  // Deterministic results are unaffected by concurrent readers: the same
  // serving schedule with and without load certifies identical numbers.
  {
    SessionConfig config;
    config.SetGraph(Expander(7)).SetEpsilon0(1.0).SetSeed(99);
    Session quiet = Session::Create(std::move(config)).value();
    for (size_t k = 0; k < kRoundsPerEpoch; ++k) CHECK(quiet.Step(1).ok());
    const double quiet_eps = quiet.Guarantee().epsilon;

    SessionConfig config2;
    config2.SetGraph(Expander(7)).SetEpsilon0(1.0).SetSeed(99);
    Session loud = Session::Create(std::move(config2)).value();
    std::atomic<bool> stop{false};
    std::atomic<size_t> queries{0};
    std::thread reader(ReaderLoop, std::cref(loud), &stop, &queries);
    for (size_t k = 0; k < kRoundsPerEpoch; ++k) CHECK(loud.Step(1).ok());
    stop.store(true, std::memory_order_release);
    reader.join();
    CHECK_NEAR(loud.Guarantee().epsilon, quiet_eps, 0.0);
  }
  return 0;
}
