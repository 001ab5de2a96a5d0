// The composable session API over the paper's pipeline: local randomization
// -> t random-walk exchange rounds -> reporting -> central (eps, delta)
// accounting.
//
// A SessionConfig (builder-style) is validated ONCE into a Session by
// Session::Create, which returns Expected<Session> with typed Status errors
// (core/status.h) for disconnected / non-ergodic graphs, invalid eps0 or
// delta split, and fixed rounds below the mixing floor — instead of the
// facade-era behavior of flowing bad numerics through to NaN / +inf.
//
// A Session executes INCREMENTALLY: Step(k) advances k exchange rounds,
// Guarantee() queries the certified central (eps, delta) at the current
// round, Finalize() produces the curator inbox at any point.  Splitting a
// run into steps is bit-identical to one StepToTarget() at any thread count,
// because every report's coin is drawn from a per-(seed, absolute round,
// report) stream (shuffle/engine.h) — pinned by
// tests/test_session_incremental.cc.  That enables mid-run accounting
// curves and audits, early stopping at a target epsilon (StepUntil), and
// dynamic-graph rewiring between steps (Rewire).
//
// A Session is also a long-lived SERVING core (DESIGN.md §8): reports
// stream in via Ingest() between epochs, BeginEpoch() seals them into a
// fresh per-epoch exchange, FinalizeEpoch() closes an epoch out, and
// accounting queries (Guarantee / GuaranteeAt / current_round / epoch) are
// safe from reader threads concurrently with Step — progress is published
// through one acquire/release atomic, with zero locks added to the hot
// scatter path.
// The one-shot path (Create with payloads -> Step -> Finalize) is epoch 0
// of the same lifecycle, bit-identical to the pre-epoch engine
// (tests/test_session_incremental.cc).
//
// Accounting is one stateless certificate: Theorem 5.3 (A_all) or 5.5
// (A_single) at the graph/walk.h SumSquaresBound collision mass, which
// holds for the worst-placed user's report, not only for a report from one
// chosen node (DESIGN.md §3).  Mechanisms are pluggable (dp/mechanism.h).
// See DESIGN.md "Session API".

#ifndef NETSHUFFLE_CORE_SESSION_H_
#define NETSHUFFLE_CORE_SESSION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/status.h"
#include "dp/mechanism.h"
#include "graph/graph.h"
#include "graph/walk.h"
#include "shuffle/backend.h"
#include "shuffle/engine.h"
#include "shuffle/payload.h"
#include "shuffle/protocol.h"
#include "util/annotations.h"
#include "util/sync.h"

namespace netshuffle {

/// A certified central (epsilon, delta) guarantee.
struct PrivacyParams {
  double epsilon = 0.0;
  double delta = 0.0;
};

/// Builder-style configuration.  Every setter returns *this so calls chain;
/// build a named config and std::move it into Session::Create.  The config
/// is copyable; it holds no state a session mutates.
class SessionConfig {
 public:
  /// The communication graph (required; the session takes ownership).
  SessionConfig& SetGraph(Graph graph) {
    graph_ = std::move(graph);
    return *this;
  }

  /// How users submit to the curator (default kAll).
  SessionConfig& SetProtocol(ReportingProtocol protocol) {
    protocol_ = protocol;
    return *this;
  }

  /// Target exchange rounds.  0 (the default) selects the mixing time
  /// alpha^-1 log n — this is the ONE place the mixing-time default
  /// lives; the engine itself rejects zero-round exchanges
  /// (shuffle/engine.h ValidateExchangeOptions).
  SessionConfig& SetRounds(size_t rounds) {
    rounds_ = rounds;
    return *this;
  }

  /// Local DP budget of each report (must be finite and > 0).
  SessionConfig& SetEpsilon0(double epsilon0) {
    epsilon0_ = epsilon0;
    return *this;
  }

  /// Takes eps0 (and the mechanism name, for reporting) from a concrete
  /// randomizer instead of SetEpsilon0.  `epsilon0()` is read here and
  /// `name()` is copied, so the mechanism need not outlive the config.
  SessionConfig& SetMechanism(const Mechanism& mechanism) {
    epsilon0_ = mechanism.epsilon0();
    mechanism_name_ = mechanism.name();
    return *this;
  }

  /// The randomized payload bytes the exchange routes: one report per user
  /// (typically emitted via Mechanism::EmitReport into the arena).  The
  /// session freezes and adopts the arena at Create; Validate rejects a
  /// report count != the graph's user count or an out-of-range origin with
  /// kPayloadMismatch.  Without this, the session runs over an identity
  /// arena (origin(r) == r, zero payload bytes) — a routing-only exchange.
  SessionConfig& SetPayloads(PayloadArena payloads) {
    payloads_ = std::move(payloads);
    return *this;
  }

  /// Where the session's write-once payload columns live (DESIGN.md §9).
  /// The default kInRam keeps them on the heap.  kMmap streams them to
  /// files under a private tmpdir at injection and maps them read-only at
  /// seal (the tmpdir is removed when the session — and anything sharing
  /// its arenas, e.g. a ProtocolResult — is destroyed), so the payload
  /// bytes never need to be resident.  The routing state (holder column
  /// and holdings) is rewritten by every Step and stays on the heap under
  /// both kinds; an exchange never touches disk.  Create surfaces
  /// directory/file failures as kIoError.
  SessionConfig& SetStorage(StorageBackendConfig storage) {
    storage_ = std::move(storage);
    return *this;
  }

  /// Delta budget split: composition slack / report-size concentration
  /// slack (both in (0, 1), sum < 1).
  SessionConfig& SetDeltaSplit(double delta, double delta2) {
    delta_ = delta;
    delta2_ = delta2;
    return *this;
  }

  SessionConfig& SetSeed(uint64_t seed) {
    seed_ = seed;
    return *this;
  }

  /// Optional availability model for Step; must outlive the session.
  SessionConfig& SetFaults(const FaultModel* faults) {
    faults_ = faults;
    return *this;
  }

  /// Escape hatch: accept disconnected / bipartite graphs (the walk theory
  /// does not apply; the certificate falls back to the eps0 floor).
  SessionConfig& AllowNonErgodic(bool allow = true) {
    allow_non_ergodic_ = allow;
    return *this;
  }

  /// Reject fixed rounds below the mixing floor alpha^-1 log n with
  /// kRoundsBelowMixingFloor instead of silently under-mixing.
  SessionConfig& RequireMixedRounds(bool require = true) {
    require_mixed_rounds_ = require;
    return *this;
  }

  const Graph& graph() const { return graph_; }
  /// Moves the graph out (Session::Create adopts it this way).
  Graph ReleaseGraph() { return std::move(graph_); }
  bool has_payloads() const { return payloads_.has_value(); }
  const PayloadArena& payloads() const { return *payloads_; }
  /// Moves the arena out (Session::Create adopts it this way).
  PayloadArena ReleasePayloads() { return std::move(*payloads_); }
  ReportingProtocol protocol() const { return protocol_; }
  size_t rounds() const { return rounds_; }
  double epsilon0() const { return epsilon0_; }
  const std::string& mechanism_name() const { return mechanism_name_; }
  double delta() const { return delta_; }
  double delta2() const { return delta2_; }
  uint64_t seed() const { return seed_; }
  const FaultModel* faults() const { return faults_; }
  bool allow_non_ergodic() const { return allow_non_ergodic_; }
  bool require_mixed_rounds() const { return require_mixed_rounds_; }
  const StorageBackendConfig& storage() const { return storage_; }

 private:
  Graph graph_;
  std::optional<PayloadArena> payloads_;
  StorageBackendConfig storage_;
  ReportingProtocol protocol_ = ReportingProtocol::kAll;
  size_t rounds_ = 0;
  double epsilon0_ = 1.0;
  std::string mechanism_name_ = "unspecified";
  double delta_ = 0.5e-6;
  double delta2_ = 0.5e-6;
  uint64_t seed_ = 2022;
  const FaultModel* faults_ = nullptr;
  bool allow_non_ergodic_ = false;
  bool require_mixed_rounds_ = false;
};

class Session {
 public:
  /// Validates `config` (see Validate) and builds the session: spectral gap,
  /// mixing time, rounds-policy resolution, report injection.  All
  /// configuration errors surface here, once, as typed Status values.
  /// Fails closed with kSpectralGapUnresolved when the gap estimate does
  /// not converge (graph/spectral.h): a certificate never rests on an
  /// unverified gap.
  static Expected<Session> Create(SessionConfig config);

  /// The checks Create performs, without building anything.  The gap
  /// estimate runs here only for the RequireMixedRounds floor, so an
  /// unresolved gap otherwise surfaces at Create.
  static Status Validate(const SessionConfig& config);

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  // ---- Operating point -----------------------------------------------------

  /// The user population — immutable for the session's life (Rewire
  /// requires a same-size replacement), so reader-safe without any lock.
  size_t num_users() const { return num_users_; }
  /// Mutator-thread only: Rewire swaps the graph this references, so a
  /// reader holding it across a rewire would race (runtime-asserted via
  /// the mutator role; reader threads use num_users()/spectral_gap()/...).
  const Graph& graph() const {
    sync_->AssertQuiescent("Session::graph");
    return graph_;
  }
  /// Reader-safe (shared-locks the structure state; PR 9 made these
  /// scalar getters safe concurrent with Rewire/BeginEpoch).
  double spectral_gap() const {
    ns::ReaderMutexLock lock(&sync_->structure);
    return gap_;
  }
  /// alpha^-1 log n — the paper's operating point and the rounds floor.
  /// Reader-safe.
  size_t mixing_rounds() const {
    ns::ReaderMutexLock lock(&sync_->structure);
    return mixing_rounds_;
  }
  /// Resolved rounds policy: the configured fixed rounds, or mixing_rounds()
  /// when the config asked for the default.  Reader-safe.
  size_t target_rounds() const {
    ns::ReaderMutexLock lock(&sync_->structure);
    return target_rounds_;
  }
  /// n * (sum P^2 bound at target_rounds()) — the paper's Gamma_G
  /// irregularity at the operating point (1 for regular graphs).
  /// Reader-safe.
  double Gamma() const;

  // ---- Concurrency contract ------------------------------------------------
  //
  // A serving deployment runs ONE mutator thread and any number of reader
  // threads (DESIGN.md §8 "Serving model").  The discipline below is
  // machine-checked: every guarded field carries an NS_GUARDED_BY
  // annotation against the capability that protects it, and the
  // static-analysis CI job compiles the tree under clang
  // -Wthread-safety -Werror (DESIGN.md §10 has the full annotation map).
  //
  //   mutator-only (external synchronization, enforced best-effort by the
  //   fatal ns::Role capability Sync::mutator):  Step / StepToTarget /
  //   StepUntil / BeginEpoch / Rewire / Finalize / FinalizeEpoch.
  //   The exchange state (state_, exchange_ws_) is NS_GUARDED_BY the role.
  //
  //   reader-safe, concurrent with Step AND with BeginEpoch/Rewire:
  //   Guarantee / GuaranteeAt / RawGuaranteeAt / TargetGuarantee /
  //   current_round / epoch / num_users / spectral_gap / mixing_rounds /
  //   target_rounds / Gamma.  Progress is published through one packed
  //   (epoch, round) atomic with release/acquire ordering — readers
  //   observe a monotone counter and never a torn (epoch, round) pair —
  //   and the graph/spectral state those queries read is NS_GUARDED_BY
  //   Sync::structure, an ns::SharedMutex (writer-priority built in) that
  //   only BeginEpoch and Rewire take exclusively.  A query is an O(1)
  //   evaluation under the shared side of that lock; it takes no other
  //   lock and never dispatches into the thread pool.  No lock of any kind
  //   is added to the engine's hop or scatter passes.
  //
  //   ingest-thread (one producer; may be the mutator or a third thread):
  //   Ingest / pending_arena / pending_reports / DiscardPending.  The
  //   pending arena is disjoint from the executing epoch's state, so
  //   ingest for epoch e+1 may proceed while epoch e steps, finalizes, and
  //   answers queries — it must only quiesce across the BeginEpoch that
  //   seals it.  (pending_ is deliberately unguarded: a single producer
  //   is a contract no mutex expresses, which is why it is the one field
  //   on this surface without an annotation.)
  //
  // (tests/test_concurrent_accounting.cc hammers the reader surface from
  // threads while the mutator steps and rolls epochs, under TSan in CI;
  // tests/test_sync.cc pins the wrapper primitives themselves.)

  /// Epoch-local executed rounds (acquire-published; reader-safe).
  size_t current_round() const {
    return UnpackRounds(sync_->progress.load(std::memory_order_acquire));
  }
  /// Serving epoch index: 0 is the Create-injected epoch of the one-shot
  /// path; each BeginEpoch increments it (acquire-published; reader-safe).
  size_t epoch() const {
    return UnpackEpoch(sync_->progress.load(std::memory_order_acquire));
  }
  /// The immutable origin/payload columns the session's routed ids index
  /// into (also shared into every Finalize result).  Mutator-thread only:
  /// BeginEpoch replaces the arena (runtime-asserted via the mutator role).
  const PayloadArena& payloads() const {
    sync_->AssertQuiescent("Session::payloads");
    return *state_.payloads;
  }
  /// The session's storage backend, or nullptr for the in-RAM default.
  /// dir() names the tmpdir holding the payload column files (removed when
  /// the last owner — session, in-flight results — goes away).
  const StorageBackend* storage_backend() const { return backend_.get(); }
  double epsilon0() const { return epsilon0_; }
  const std::string& mechanism_name() const { return mechanism_name_; }
  ReportingProtocol protocol() const { return protocol_; }
  uint64_t seed() const { return seed_; }

  // ---- Incremental execution ----------------------------------------------

  /// Advances k exchange rounds (k >= 1; kZeroRounds otherwise).  Every
  /// report walks all k hops in one pass and the holdings are sorted once,
  /// at the end (shuffle/engine.h ResumeExchange), so Step(k) costs k hops
  /// plus one sort.  The engine's RNG streams are keyed on the absolute
  /// round index and each slice lists its reports in ascending id, so any
  /// Step partition of the same total is bit-identical.
  Status Step(size_t k = 1);

  /// Steps to target_rounds() (no-op if already there or past).
  Status StepToTarget();

  /// Early stopping: advances to the first round t >= current_round() at
  /// which the capped guarantee at the session eps0 is at most
  /// `target_epsilon`, or to `max_rounds` total rounds if that comes first,
  /// in one Step.  The guarantee is an O(1) function of the round count, so
  /// t is found without stepping; the rounds and holdings are exactly those
  /// of stepping one round at a time until the guarantee is met.  Returns
  /// the total rounds executed; kInvalidArgument if the target is not
  /// positive.
  Expected<size_t> StepUntil(double target_epsilon, size_t max_rounds);

  /// Applies the reporting protocol to the CURRENT holdings, producing the
  /// curator inbox.  Does not consume the session: stepping can continue
  /// afterwards (mid-run inboxes for audits).  Reads the exchange state
  /// Step mutates, so it belongs to the mutator thread (see the concurrency
  /// contract above); a Finalize that observes a Step/BeginEpoch/Rewire in
  /// flight is a fatal contract violation, not a torn inbox.  Safe
  /// concurrent with Ingest and with accounting reads.
  ProtocolResult Finalize() const { return Finalize(protocol_); }
  ProtocolResult Finalize(ReportingProtocol protocol) const;

  // ---- Serving lifecycle (epochs) -----------------------------------------
  //
  // The canonical serving loop (DESIGN.md §8):
  //
  //   while (serving) {
  //     mechanism.EmitReport(u, datum, &rng, session.pending_arena());
  //     ...                                  // stream next epoch's ingest
  //     inbox = session.FinalizeEpoch();     // close out the current epoch
  //     status = session.BeginEpoch();       // seal pending -> fresh epoch
  //     session.StepToTarget();              // mix the new epoch
  //   }
  //
  // ingest -> seal -> exchange -> finalize: ingest streams into a PENDING
  // PayloadArena while the current epoch executes; BeginEpoch seals it
  // (per-epoch one-report-per-user validation, typed kPayloadMismatch) and
  // injects it as the next epoch's exchange state.

  /// Streams one report into the pending (next-epoch) arena.  Typed
  /// kPayloadMismatch for an out-of-range origin; duplicate origins, a
  /// short epoch and a failed payload write (file-backed sessions) surface
  /// at the BeginEpoch seal point.  One producer thread; safe concurrent
  /// with Step/Finalize/queries on the current epoch.
  Status Ingest(NodeId origin, const uint8_t* data, size_t size);
  Status Ingest(NodeId origin, const Bytes& payload) {
    return Ingest(origin, payload.data(), payload.size());
  }

  /// The mutable pending arena, for streaming typed mechanism reports
  /// (Mechanism::EmitReport(..., session.pending_arena())).  Appends bypass
  /// Ingest's early origin check; BeginEpoch's seal validates everything.
  PayloadArena* pending_arena() { return &pending_; }
  /// Reports ingested toward the next epoch so far.
  size_t pending_reports() const { return pending_.num_reports(); }
  /// Drops all pending ingest (e.g. after a duplicate-origin seal failure,
  /// which appends cannot repair, or a kIoError from a failed payload
  /// write) and starts the next epoch's arena empty (file-backed on the
  /// session's backend when one is configured).
  void DiscardPending();

  /// Seals the pending arena (one report per user — typed kPayloadMismatch
  /// otherwise, leaving the arena mutable so a short epoch can keep
  /// ingesting; kIoError if a file-backed arena's payload write failed) and
  /// replaces the exchange state with a fresh injection of it: epoch()
  /// increments, current_round() restarts at 0, and the new epoch's engine
  /// coins come from streams keyed on (seed, epoch).  The previous epoch's
  /// holdings are dropped — FinalizeEpoch first.
  Status BeginEpoch();

  /// Closes out the CURRENT epoch: the curator inbox over its holdings.
  /// An alias of Finalize() marking the serving loop's read point — safe
  /// concurrent with the next epoch's Ingest (disjoint pending state) and
  /// with accounting reads, mutator-only versus Step/BeginEpoch/Rewire.
  ProtocolResult FinalizeEpoch() const { return Finalize(protocol_); }
  ProtocolResult FinalizeEpoch(ReportingProtocol protocol) const {
    return Finalize(protocol);
  }

  /// Replaces the communication graph between steps (dynamic networks,
  /// paper Section 4.5).  The replacement must pass the same validation,
  /// including a converged gap estimate (kSpectralGapUnresolved otherwise),
  /// and carry the same node count (holdings are indexed by user); a
  /// failed Rewire changes nothing.  Spectral invariants and the mixing
  /// floor are recomputed, and a mixing-time rounds policy re-resolves
  /// target_rounds() against the new topology (an explicit SetRounds
  /// target is kept as configured); the executed rounds and holdings are
  /// kept.  Accounting after a rewire evaluates the bound on the current
  /// topology alone — an approximation the static theorems do not cover
  /// exactly (DESIGN.md "Session API").
  Status Rewire(Graph graph);

  // ---- Accounting queries --------------------------------------------------
  //
  // All of these are reader-safe: callable from any thread concurrently
  // with Step, BeginEpoch, and Rewire (see the concurrency contract).

  /// Raw theorem guarantee at a hypothetical round count (no stepping
  /// required): Theorem 5.3 (kAll) or 5.5 (kSingle) at SumSquaresBound,
  /// +inf epsilon at 0 rounds.  Can exceed eps0 in weak regimes.
  PrivacyParams RawGuaranteeAt(size_t rounds, double epsilon0) const;

  /// RawGuaranteeAt capped at the trivial (eps0, 0) LDP floor — the
  /// amplification argument never certifies less privacy than no shuffling.
  PrivacyParams GuaranteeAt(size_t rounds, double epsilon0) const;

  /// Capped guarantee at the CURRENT executed round (the incremental
  /// accounting curve; the LDP floor before any stepping).
  PrivacyParams Guarantee() const { return Guarantee(epsilon0_); }
  PrivacyParams Guarantee(double epsilon0) const {
    return GuaranteeAt(current_round(), epsilon0);
  }

  /// Capped guarantee at the resolved operating point target_rounds() —
  /// what the one-shot facade reported.
  PrivacyParams TargetGuarantee() const { return TargetGuarantee(epsilon0_); }
  PrivacyParams TargetGuarantee(double epsilon0) const {
    // Through the locking accessor: target_rounds_ is structure-guarded and
    // this query is reader-safe by contract.
    return GuaranteeAt(target_rounds(), epsilon0);
  }

 private:
  Session(SessionConfig config, std::shared_ptr<StorageBackend> backend,
          double gap);

  /// Validate's checks.  With `gap` non-null it also resolves the walk's
  /// absolute spectral gap, which Create and Rewire need: exactly 0 for a
  /// non-ergodic graph that AllowNonErgodic admits, otherwise the
  /// converged estimate.  The RequireMixedRounds floor check reuses that
  /// one estimate.
  static Status Admit(const SessionConfig& config, double* gap);

  /// A fresh pending arena: heap, or hosted on the session's backend.
  /// Stream-file creation on an established backend failing (disk gone
  /// mid-serve) is fatal here; the typed creation-time surface is Create /
  /// BeginEpoch.
  PayloadArena MakePendingArena() const;

  // Reader-publication state, shared between the mutator thread and
  // accounting readers; behind a unique_ptr so Session stays movable
  // (atomics and mutexes are not).  Declared BEFORE the guarded fields so
  // the NS_GUARDED_BY(sync_->...) expressions below read naturally; the
  // capabilities themselves are the util/sync.h annotated wrappers.
  struct Sync {
    /// PackProgress(epoch, epoch-local rounds), release-stored after every
    /// Step and BeginEpoch; the acquire side of current_round()/epoch().
    std::atomic<uint64_t> progress{0};
    /// The single-mutator contract as a capability: Step/BeginEpoch/Rewire
    /// hold it (ns::RoleScope, fatal on overlap — the old MutationScope);
    /// Finalize and the mutator-only accessors assert it quiescent.
    ns::Role mutator{"Step/BeginEpoch/Rewire mutator"};
    /// Readers hold shared around graph/spectral reads; BeginEpoch and
    /// Rewire hold exclusive while swapping those fields.  Writer priority
    /// (readers yield to an announced writer, so a continuous query load
    /// cannot starve an epoch rollover) lives inside ns::SharedMutex.
    mutable ns::SharedMutex structure;

    /// The best-effort "this call belongs to the mutator thread" check
    /// (fatal if a mutation is in flight), which also grants the analysis
    /// the mutator role plus shared structure access: quiescence means no
    /// structural writer can be mid-swap either.
    void AssertQuiescent(const char* op) const
        NS_ASSERT_CAPABILITY(mutator) NS_ASSERT_SHARED_CAPABILITY(structure) {
      mutator.AssertQuiescent(op);
    }
  };

  // One packed word so readers never see a torn (epoch, round) pair, and
  // so progress is globally monotone across epoch rollovers.  Epoch-local
  // rounds are capped at 2^32 - 1 — unreachable (a round is an O(n) pass),
  // and CheckedNarrow32 makes hitting the cap loud instead of a silent
  // wrap to a non-monotone counter.
  static uint64_t PackProgress(size_t epoch, size_t rounds) {
    return (static_cast<uint64_t>(epoch) << 32) |
           static_cast<uint64_t>(CheckedNarrow32(rounds, "epoch rounds"));
  }
  static size_t UnpackEpoch(uint64_t p) { return static_cast<size_t>(p >> 32); }
  static size_t UnpackRounds(uint64_t p) {
    return static_cast<size_t>(p & 0xffffffffULL);
  }

  Graph graph_ NS_GUARDED_BY(sync_->structure);
  ReportingProtocol protocol_ = ReportingProtocol::kAll;
  double epsilon0_ = 1.0;
  std::string mechanism_name_ = "unspecified";
  double delta_ = 0.5e-6;
  double delta2_ = 0.5e-6;
  uint64_t seed_ = 2022;
  const FaultModel* faults_ = nullptr;
  bool allow_non_ergodic_ = false;
  bool require_mixed_rounds_ = false;

  /// Non-null iff the session's payload columns are file-backed (DESIGN.md
  /// §9).  Shared with every hosted arena, so the tmpdir outlives any
  /// result still referencing the column files and is removed with the
  /// last reference.
  std::shared_ptr<StorageBackend> backend_;

  /// graph_.num_nodes(), cached at Create: the population is immutable for
  /// the session's life (Rewire requires a same-size replacement), so
  /// Ingest's per-report origin check and num_users() read it lock-free.
  size_t num_users_ = 0;
  double gap_ NS_GUARDED_BY(sync_->structure) = 0.0;
  StationaryMoments stationary_ NS_GUARDED_BY(sync_->structure);
  size_t mixing_rounds_ NS_GUARDED_BY(sync_->structure) = 0;
  size_t target_rounds_ NS_GUARDED_BY(sync_->structure) = 0;
  bool rounds_fixed_ = false;
  /// The CURRENT epoch's exchange state, replaced wholesale by BeginEpoch.
  ExchangeResult state_ NS_GUARDED_BY(sync_->mutator);
  /// Reusable engine scratch (shuffle/engine.h): Step passes this to
  /// ResumeExchange so a serving loop stepping one round at a time stops
  /// paying an O(shards * n) allocation per call.  Scratch only — reuse
  /// across epochs and rewires cannot change results.
  ExchangeWorkspace exchange_ws_ NS_GUARDED_BY(sync_->mutator);
  /// Serving epoch index mirrored into sync_->progress (mutator's copy;
  /// structure-guarded because Step reads it while readers may be
  /// re-certifying against the same fields BeginEpoch swaps).
  size_t epoch_ NS_GUARDED_BY(sync_->structure) = 0;
  /// Engine/finalize seed of the current epoch: seed_ for epoch 0 (the
  /// one-shot path, bit-identical to the pre-epoch engine), then
  /// HashCombine(seed_, epoch) so every epoch draws fresh streams.
  uint64_t epoch_seed_ NS_GUARDED_BY(sync_->structure) = 0;
  /// Next epoch's streamed ingest (sealed and adopted by BeginEpoch).
  /// Unguarded on purpose: one producer thread by contract (see the
  /// concurrency comment above) — a discipline no capability expresses.
  PayloadArena pending_;
  std::unique_ptr<Sync> sync_;
};

}  // namespace netshuffle

#endif  // NETSHUFFLE_CORE_SESSION_H_
