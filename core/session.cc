#include "core/session.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "dp/amplification.h"
#include "graph/connectivity.h"
#include "graph/spectral.h"
#include "util/rng.h"

// The mutator-only entry points (Step/BeginEpoch/Rewire) each hold an
// ns::RoleScope on Sync::mutator — the annotated successor of the PR 6
// MutationScope: two overlapping mutations, or a Finalize that observes
// one in flight (Sync::AssertQuiescent), are a contract violation that
// would silently produce a torn exchange state, so they abort loudly.
// Detection is best-effort (a racing pair may interleave before the
// exchange), but every deterministic misuse and the common racing ones
// die there — and the NS_GUARDED_BY(sync_->mutator) annotations make the
// discipline a compile-time check under clang -Wthread-safety.

namespace netshuffle {

namespace {

bool ValidSlack(double d) { return std::isfinite(d) && d > 0.0 && d < 1.0; }

}  // namespace

Status Session::Validate(const SessionConfig& config) {
  return Admit(config, nullptr);
}

Status Session::Admit(const SessionConfig& config, double* gap) {
  if (config.graph().num_nodes() == 0) {
    return Status::Error(StatusCode::kEmptyGraph,
                         "the communication graph has zero users");
  }
  if (!std::isfinite(config.epsilon0()) || config.epsilon0() <= 0.0) {
    return Status::Error(StatusCode::kInvalidEpsilon,
                         "epsilon0 must be finite and > 0 (got " +
                             std::to_string(config.epsilon0()) + ")");
  }
  if (!ValidSlack(config.delta()) || !ValidSlack(config.delta2()) ||
      config.delta() + config.delta2() >= 1.0) {
    return Status::Error(
        StatusCode::kInvalidDelta,
        "delta and delta2 must each lie in (0, 1) with delta + delta2 < 1 "
        "(got delta=" + std::to_string(config.delta()) +
            ", delta2=" + std::to_string(config.delta2()) + ")");
  }
  const WalkErgodicity walk = ClassifyWalk(config.graph());
  if (!config.allow_non_ergodic()) {
    if (walk == WalkErgodicity::kDisconnected) {
      return Status::Error(
          StatusCode::kDisconnectedGraph,
          "the graph is disconnected: reports can never mix across "
          "components (SessionConfig::AllowNonErgodic overrides)");
    }
    if (walk == WalkErgodicity::kBipartite) {
      return Status::Error(
          StatusCode::kNonErgodicGraph,
          "the graph is bipartite: the walk has no unique stationary limit "
          "(SessionConfig::AllowNonErgodic overrides)");
    }
  }
  if (config.has_payloads()) {
    // The same invariant BeginEpoch enforces at each per-epoch seal
    // (shuffle/payload.h); the one-shot path is epoch 0 of that lifecycle.
    const Status one_per_user =
        config.payloads().ValidateOnePerUser(config.graph().num_nodes());
    if (!one_per_user.ok()) return one_per_user;
  }
  const bool floor_check =
      config.require_mixed_rounds() && config.rounds() > 0;
  if (gap == nullptr && !floor_check) return Status::Ok();
  // A non-ergodic walk (admitted by AllowNonErgodic) never mixes: its
  // absolute gap is exactly 0, with nothing to estimate.
  double resolved = 0.0;
  if (walk == WalkErgodicity::kErgodic) {
    const SpectralGapEstimate estimate = EstimateSpectralGap(config.graph());
    if (!estimate.converged) {
      char detail[64];
      std::snprintf(detail, sizeof(detail), "%zu Lanczos steps (residual %.2e)",
                    estimate.iterations, estimate.residual);
      return Status::Error(
          StatusCode::kSpectralGapUnresolved,
          std::string("the spectral-gap estimate did not converge in ") +
              detail + ": the walk mixes too slowly to certify a gap");
    }
    resolved = estimate.gap;
  }
  if (floor_check) {
    const size_t floor = MixingTime(resolved, config.graph().num_nodes());
    if (config.rounds() < floor) {
      return Status::Error(
          StatusCode::kRoundsBelowMixingFloor,
          "fixed rounds " + std::to_string(config.rounds()) +
              " is below the mixing floor alpha^-1 log n = " +
              std::to_string(floor));
    }
  }
  if (gap != nullptr) *gap = resolved;
  return Status::Ok();
}

Expected<Session> Session::Create(SessionConfig config) {
  double gap = 0.0;
  Status status = Admit(config, &gap);
  if (!status.ok()) return status;

  // Storage resolution (DESIGN.md §9).  Three cases:
  //   - the configured payloads are already hosted: adopt their backend;
  //   - kMmap requested: create a backend, then SPILL the configured
  //     payloads (or a payload-free identity) into a hosted arena, so the
  //     payload columns land on disk regardless of how the reports were
  //     assembled;
  //   - default: no backend, pure heap, zero new work.
  // All directory/file failures surface here as typed kIoError.
  std::shared_ptr<StorageBackend> backend;
  if (config.has_payloads() && config.payloads().hosted()) {
    backend = config.payloads().backend();
  } else if (config.storage().kind == StorageBackendKind::kMmap) {
    auto created = StorageBackend::Create(config.storage());
    if (!created.ok()) return created.status();
    backend = std::move(created).value();
    auto hosted = PayloadArena::Hosted(backend);
    if (!hosted.ok()) return hosted.status();
    PayloadArena arena = std::move(hosted).value();
    const size_t n = config.graph().num_nodes();
    if (config.has_payloads()) {
      // Report ids are preserved: report r of the spill is report r of the
      // source, so the hosted session is bit-identical to the heap one.
      const PayloadArena& src = config.payloads();
      for (ReportId r = 0; r < static_cast<ReportId>(n); ++r) {
        const PayloadSpan p = src.payload(r);
        arena.Append(src.origin(r), p.data(), p.size());
      }
    } else {
      // The identity arena of the payload-free path (origin(r) == r, zero
      // bytes), streamed instead of heap-built.
      for (size_t r = 0; r < n; ++r) {
        arena.Append(static_cast<NodeId>(r), nullptr, 0);
      }
    }
    const Status sealed = arena.Seal(n);
    if (!sealed.ok()) return sealed;
    config.SetPayloads(std::move(arena));
  }
  return Session(std::move(config), std::move(backend), gap);
}

Session::Session(SessionConfig config, std::shared_ptr<StorageBackend> backend,
                 double gap)
    : graph_(config.ReleaseGraph()),
      protocol_(config.protocol()),
      epsilon0_(config.epsilon0()),
      mechanism_name_(config.mechanism_name()),
      delta_(config.delta()),
      delta2_(config.delta2()),
      seed_(config.seed()),
      faults_(config.faults()),
      allow_non_ergodic_(config.allow_non_ergodic()),
      require_mixed_rounds_(config.require_mixed_rounds()),
      backend_(std::move(backend)),
      // graph_ is initialized (and config's graph moved out) above, so the
      // cached population reads the adopted member.
      num_users_(graph_.num_nodes()),
      epoch_seed_(config.seed()),
      sync_(std::make_unique<Sync>()) {
  gap_ = gap;
  stationary_ = ComputeStationaryMoments(graph_);
  mixing_rounds_ = MixingTime(gap_, graph_.num_nodes());
  rounds_fixed_ = config.rounds() > 0;
  target_rounds_ = rounds_fixed_ ? config.rounds() : mixing_rounds_;
  state_ = config.has_payloads()
               ? StartExchange(graph_, config.ReleasePayloads())
               : StartExchange(graph_);
  pending_ = MakePendingArena();
}

PayloadArena Session::MakePendingArena() const {
  if (backend_ == nullptr) return PayloadArena();
  auto hosted = PayloadArena::Hosted(backend_);
  if (!hosted.ok()) {
    NETSHUFFLE_FATAL("Session pending arena: " + hosted.status().ToString());
  }
  return std::move(hosted).value();
}

void Session::DiscardPending() { pending_ = MakePendingArena(); }

double Session::Gamma() const {
  ns::ReaderMutexLock structure(&sync_->structure);
  return static_cast<double>(graph_.num_nodes()) *
         SumSquaresBound(stationary_, gap_, target_rounds_);
}

Status Session::Step(size_t k) {
  if (k == 0) {
    return Status::Error(StatusCode::kZeroRounds,
                         "Session::Step(0): advancing zero rounds is a no-op "
                         "the engine rejects; pass k >= 1");
  }
  ns::RoleScope scope(&sync_->mutator, "Session::Step");
  // Shared around the graph/seed reads: the only exclusive takers
  // (BeginEpoch/Rewire) are mutator calls the role already excludes, so
  // this is one uncontended shared acquisition per Step — it exists so the
  // structure-guarded reads below are visible to the static analysis, and
  // it additionally closes the (contract-violating) window where a racing
  // Rewire could swap the graph under a running exchange.
  ns::ReaderMutexLock structure(&sync_->structure);
  ExchangeOptions opts;
  opts.rounds = k;
  opts.seed = epoch_seed_;
  opts.faults = faults_;
  state_ = ResumeExchange(graph_, std::move(state_), opts, &exchange_ws_);
  // Publish AFTER the exchange lands: a reader that observes the new round
  // count may immediately certify a guarantee at it.
  sync_->progress.store(PackProgress(epoch_, state_.rounds),
                        std::memory_order_release);
  return Status::Ok();
}

Status Session::StepToTarget() {
  // Reads the round/target state the mutator owns, then Steps; the role is
  // acquired inside Step, so here quiescence is asserted instead (fatal if
  // another mutator call is in flight — previously this read was
  // unchecked).
  sync_->AssertQuiescent("Session::StepToTarget");
  if (state_.rounds >= target_rounds_) return Status::Ok();
  return Step(target_rounds_ - state_.rounds);
}

Expected<size_t> Session::StepUntil(double target_epsilon, size_t max_rounds) {
  if (!std::isfinite(target_epsilon) || target_epsilon <= 0.0) {
    return Status::Error(StatusCode::kInvalidArgument,
                         "StepUntil: target_epsilon must be finite and > 0");
  }
  sync_->AssertQuiescent("Session::StepUntil");
  size_t rounds = state_.rounds;
  while (rounds < max_rounds &&
         GuaranteeAt(rounds, epsilon0_).epsilon > target_epsilon) {
    ++rounds;
  }
  if (rounds > state_.rounds) {
    const Status s = Step(rounds - state_.rounds);
    if (!s.ok()) return s;
  }
  return state_.rounds;
}

ProtocolResult Session::Finalize(ReportingProtocol protocol) const {
  // Reads the exchange state the mutator calls own: fatal if one is in
  // flight, and the assert grants the analysis the capabilities the reads
  // below require (see Sync::AssertQuiescent).
  sync_->AssertQuiescent("Session::Finalize");
  return FinalizeProtocol(state_, protocol, epoch_seed_);
}

Status Session::Ingest(NodeId origin, const uint8_t* data, size_t size) {
  // Bounds-checks against the cached immutable population (num_users_), not
  // the structure-guarded graph_: Rewire only admits same-node-count graphs,
  // so the ingest hot path stays lock-free per report.
  if (static_cast<size_t>(origin) >= num_users_) {
    return Status::Error(
        StatusCode::kPayloadMismatch,
        "Ingest: origin " + std::to_string(origin) + " is outside the " +
            std::to_string(num_users_) + "-user population");
  }
  pending_.Append(origin, data, size);
  return Status::Ok();
}

Status Session::BeginEpoch() {
  ns::RoleScope scope(&sync_->mutator, "Session::BeginEpoch");
  // File-backed sessions create the NEXT epoch's pending stream before
  // anything is mutated, so a kIoError here (disk gone between epochs)
  // leaves the session fully consistent: the current epoch keeps serving
  // and the un-sealed pending arena keeps ingesting.
  PayloadArena next_pending;
  if (backend_ != nullptr) {
    auto hosted = PayloadArena::Hosted(backend_);
    if (!hosted.ok()) return hosted.status();
    next_pending = std::move(hosted).value();
  }
  // Seal and inject in one sharded pass (engine.h SealAndInject): on a
  // short epoch, an out-of-range or a duplicate origin this returns the
  // typed kPayloadMismatch and the epoch does NOT roll — the pending arena
  // stays mutable (short epochs keep ingesting; duplicates DiscardPending).
  // Hosted arenas surface payload write failures (disk full, file-size
  // limit) and column-map failures here as kIoError, likewise without
  // rolling; a write failure is sticky, so the caller DiscardPending()s.
  // It writes only a fresh state and the mutator's workspace, so readers
  // keep answering until the swap below.
  Expected<ExchangeResult> injected =
      SealAndInject(num_users_, &pending_, &exchange_ws_);
  if (!injected.ok()) return injected.status();
  pending_ = std::move(next_pending);
  {
    // Exclusive vs accounting readers: the swap below changes the epoch
    // they read (rounds restart, fresh holdings).  The writer-priority gate
    // that kept a continuous query load from starving this rollover lives
    // inside ns::SharedMutex::WriterLock.
    ns::WriterMutexLock structure(&sync_->structure);
    ++epoch_;
    // Fresh engine/finalize streams per epoch; epoch 0 keeps seed_ itself
    // so the one-shot path is bit-identical to the pre-epoch engine.
    epoch_seed_ = HashCombine(seed_, static_cast<uint64_t>(epoch_));
    std::swap(state_, injected.value());
    sync_->progress.store(PackProgress(epoch_, 0), std::memory_order_release);
  }
  // The previous epoch's state is freed here, outside the lock.
  return Status::Ok();
}

Status Session::Rewire(Graph graph) {
  ns::RoleScope scope(&sync_->mutator, "Session::Rewire");
  if (graph.num_nodes() != num_users_) {
    return Status::Error(
        StatusCode::kGraphMismatch,
        "Rewire: replacement graph has " + std::to_string(graph.num_nodes()) +
            " nodes, session has " + std::to_string(num_users_));
  }
  // Re-validate with the session's own policy knobs: a fixed rounds target
  // must re-pass the mixing-floor check against the NEW topology when the
  // user opted into RequireMixedRounds.
  SessionConfig probe;
  {
    // Shared only around the target_rounds_ read; the scope closes before
    // the exclusive acquisition below (no shared->exclusive upgrade), and
    // the mutator role keeps any other writer out of the gap.
    ns::ReaderMutexLock structure(&sync_->structure);
    probe.SetGraph(std::move(graph))
        .SetEpsilon0(epsilon0_)
        .SetDeltaSplit(delta_, delta2_)
        .SetRounds(rounds_fixed_ ? target_rounds_ : 0)
        .RequireMixedRounds(require_mixed_rounds_)
        .AllowNonErgodic(allow_non_ergodic_);
  }
  // Spectral work happens OUTSIDE the exclusive lock (it is O(n * walk)):
  // readers keep answering against the old topology until the O(1) swap,
  // and a replacement that fails admission changes nothing.
  double new_gap = 0.0;
  const Status status = Admit(probe, &new_gap);
  if (!status.ok()) return status;
  const StationaryMoments new_stationary =
      ComputeStationaryMoments(probe.graph());
  const size_t new_mixing = MixingTime(new_gap, probe.graph().num_nodes());

  // Exclusive vs accounting readers, who read every field swapped here
  // (writer-priority: built into ns::SharedMutex, see BeginEpoch).
  ns::WriterMutexLock structure(&sync_->structure);
  graph_ = probe.ReleaseGraph();
  gap_ = new_gap;
  stationary_ = new_stationary;
  mixing_rounds_ = new_mixing;
  // A mixing-time rounds policy re-resolves against the new topology; an
  // explicit SetRounds target is the caller's to keep.
  if (!rounds_fixed_) target_rounds_ = mixing_rounds_;
  return Status::Ok();
}

PrivacyParams Session::RawGuaranteeAt(size_t rounds, double epsilon0) const {
  // Shared vs BeginEpoch/Rewire (which swap the graph/spectral fields this
  // reads) — Step only takes the shared side, so queries overlap stepping
  // freely.  The back-off that kept reader-preferring rwlocks from starving
  // epoch rollovers under continuous query load now lives inside
  // ns::SharedMutex::ReaderLock.
  ns::ReaderMutexLock structure(&sync_->structure);
  const double delta_total = delta_ + delta2_;
  // Zero rounds certify nothing beyond the LDP floor.
  if (rounds == 0) {
    return PrivacyParams{std::numeric_limits<double>::infinity(), delta_total};
  }
  NetworkShufflingBoundInput in;
  in.epsilon0 = epsilon0;
  in.n = num_users_;
  in.sum_p_squares = SumSquaresBound(stationary_, gap_, rounds);
  in.delta = delta_;
  in.delta2 = delta2_;
  const double eps = protocol_ == ReportingProtocol::kSingle
                         ? EpsilonSingle(in)
                         : EpsilonAllStationary(in);
  return PrivacyParams{eps, delta_total};
}

PrivacyParams Session::GuaranteeAt(size_t rounds, double epsilon0) const {
  const PrivacyParams raw = RawGuaranteeAt(rounds, epsilon0);
  if (!(raw.epsilon < epsilon0)) {
    // The amplification argument certifies nothing beyond the LDP floor,
    // which costs no delta.
    return PrivacyParams{epsilon0, 0.0};
  }
  return raw;
}

}  // namespace netshuffle
