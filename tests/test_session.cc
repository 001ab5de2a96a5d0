// Session API coverage: the typed error taxonomy of Session::Create /
// Validate, the rounds policy, the one certificate and pluggable
// mechanisms, the LDP-floor cap across an eps0 sweep, early stopping, and
// rewiring.

#include "core/session.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "dp/amplification.h"
#include "dp/ldp.h"
#include "dp/privunit.h"
#include "graph/generators.h"
#include "graph/walk.h"
#include "tests/test_util.h"
#include "util/rng.h"

using namespace netshuffle;

namespace {

Graph SmallExpander(size_t n = 500, size_t k = 8, uint64_t seed = 2022) {
  Rng rng(seed);
  return MakeRandomRegular(n, k, &rng);
}

StatusCode CreateError(SessionConfig config) {
  Expected<Session> result = Session::Create(std::move(config));
  CHECK(!result.ok());
  CHECK(!result.status().message().empty());
  return result.status().code();
}

}  // namespace

int main() {
  // ---- Typed validation errors (satellite: config numerics) ---------------
  {
    // Zero-user graph.
    CHECK(CreateError(SessionConfig()) == StatusCode::kEmptyGraph);

    // epsilon0 <= 0 / non-finite.
    SessionConfig bad_eps;
    bad_eps.SetGraph(SmallExpander()).SetEpsilon0(0.0);
    CHECK(CreateError(std::move(bad_eps)) == StatusCode::kInvalidEpsilon);
    SessionConfig neg_eps;
    neg_eps.SetGraph(SmallExpander()).SetEpsilon0(-1.0);
    CHECK(CreateError(std::move(neg_eps)) == StatusCode::kInvalidEpsilon);
    SessionConfig nan_eps;
    nan_eps.SetGraph(SmallExpander()).SetEpsilon0(std::nan(""));
    CHECK(CreateError(std::move(nan_eps)) == StatusCode::kInvalidEpsilon);

    // Negative, zero, > 1, and jointly-too-large delta splits.
    const std::vector<std::pair<double, double>> bad_splits{
        {-1e-6, 0.5e-6}, {0.5e-6, -1e-6}, {0.0, 0.5e-6},
        {1.5, 0.5e-6},   {0.5e-6, 2.0},   {0.6, 0.6}};
    for (const auto& split : bad_splits) {
      SessionConfig bad_delta;
      bad_delta.SetGraph(SmallExpander())
          .SetDeltaSplit(split.first, split.second);
      CHECK(CreateError(std::move(bad_delta)) == StatusCode::kInvalidDelta);
    }

    // Disconnected graph (two components).
    SessionConfig disconnected;
    disconnected.SetGraph(Graph::FromEdges(4, {{0, 1}, {2, 3}}));
    CHECK(CreateError(std::move(disconnected)) ==
          StatusCode::kDisconnectedGraph);

    // Bipartite graph (4-cycle): no unique stationary limit.
    SessionConfig bipartite;
    bipartite.SetGraph(Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}));
    CHECK(CreateError(std::move(bipartite)) == StatusCode::kNonErgodicGraph);

    // ... unless explicitly allowed.
    SessionConfig allowed;
    allowed.SetGraph(Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}))
        .AllowNonErgodic();
    CHECK(Session::Create(std::move(allowed)).ok());

    // Payload arena mismatches: wrong report count, out-of-range origin,
    // duplicated origin (a double eps0 spend the certificate cannot see).
    {
      PayloadArena short_arena;
      short_arena.Append(0, Bytes{1});
      SessionConfig short_cfg;
      short_cfg.SetGraph(SmallExpander()).SetPayloads(std::move(short_arena));
      CHECK(CreateError(std::move(short_cfg)) ==
            StatusCode::kPayloadMismatch);

      PayloadArena oor_arena;
      for (NodeId u = 0; u + 1 < 500; ++u) oor_arena.Append(u, Bytes{});
      oor_arena.Append(500, Bytes{});
      SessionConfig oor_cfg;
      oor_cfg.SetGraph(SmallExpander()).SetPayloads(std::move(oor_arena));
      CHECK(CreateError(std::move(oor_cfg)) == StatusCode::kPayloadMismatch);

      PayloadArena dup_arena;
      for (NodeId u = 0; u + 1 < 500; ++u) dup_arena.Append(u, Bytes{});
      dup_arena.Append(7, Bytes{});
      SessionConfig dup_cfg;
      dup_cfg.SetGraph(SmallExpander()).SetPayloads(std::move(dup_arena));
      CHECK(CreateError(std::move(dup_cfg)) == StatusCode::kPayloadMismatch);

      // A well-formed arena is accepted and rides into Finalize.
      PayloadArena good;
      for (NodeId u = 0; u < 500; ++u) good.AppendBucket(u, u % 3);
      SessionConfig good_cfg;
      good_cfg.SetGraph(SmallExpander()).SetPayloads(std::move(good));
      Session with_payloads =
          Session::Create(std::move(good_cfg)).value();
      CHECK(with_payloads.payloads().num_reports() == 500);
      CHECK(with_payloads.payloads().frozen());
      CHECK(with_payloads.Step(3).ok());
      const ProtocolResult fin = with_payloads.Finalize();
      CHECK(fin.payloads != nullptr);
      for (const FinalReport& fr : fin.server_inbox) {
        CHECK(fin.payloads->BucketAt(fr.id) == fr.origin % 3);
      }
    }

    // Fixed rounds below the mixing floor, when enforcement is on.
    SessionConfig shallow;
    shallow.SetGraph(SmallExpander()).SetRounds(1).RequireMixedRounds();
    CHECK(CreateError(std::move(shallow)) ==
          StatusCode::kRoundsBelowMixingFloor);
    SessionConfig deep;
    deep.SetGraph(SmallExpander()).SetRounds(500).RequireMixedRounds();
    CHECK(Session::Create(std::move(deep)).ok());
  }

  // ---- Rounds policy ------------------------------------------------------
  {
    SessionConfig auto_rounds;
    auto_rounds.SetGraph(SmallExpander());
    Session s = Session::Create(std::move(auto_rounds)).value();
    CHECK(s.target_rounds() == s.mixing_rounds());
    CHECK(s.target_rounds() ==
          MixingTime(s.spectral_gap(), s.graph().num_nodes()));
    CHECK(s.current_round() == 0);

    SessionConfig fixed;
    fixed.SetGraph(SmallExpander()).SetRounds(7);
    Session f = Session::Create(std::move(fixed)).value();
    CHECK(f.target_rounds() == 7);

    // Step(0) is the typed zero-rounds error, not a silent no-op.
    CHECK(f.Step(0).code() == StatusCode::kZeroRounds);
    CHECK(f.Step(3).ok());
    CHECK(f.current_round() == 3);
    CHECK(f.StepToTarget().ok());
    CHECK(f.current_round() == 7);
    CHECK(f.StepToTarget().ok());  // no-op past target
    CHECK(f.current_round() == 7);
  }

  // ---- Engine-level zero-round rejection (satellite) ----------------------
  {
    ExchangeOptions zero;
    zero.rounds = 0;
    CHECK(ValidateExchangeOptions(zero).code() == StatusCode::kZeroRounds);
    ExchangeOptions one;
    CHECK(ValidateExchangeOptions(one).ok());

    // The engine aborts rather than silently returning unshuffled holdings;
    // run the violation in a forked child and expect an abnormal exit.
    const pid_t pid = fork();
    CHECK(pid >= 0);
    if (pid == 0) {
      Graph g = SmallExpander(100, 4);
      ExchangeOptions opts;
      opts.rounds = 0;
      (void)RunExchange(g, opts);  // must abort
      _exit(0);                    // reaching here fails the parent's check
    }
    int wstatus = 0;
    CHECK(waitpid(pid, &wstatus, 0) == pid);
    CHECK(!(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0));
  }

  // ---- Capped guarantee never exceeds the (eps0, 0) floor (satellite) -----
  {
    SessionConfig config;
    config.SetGraph(SmallExpander(2000, 8));
    Session s = Session::Create(std::move(config)).value();
    bool saw_floor = false, saw_amplified = false;
    for (double eps0 = 0.25; eps0 <= 20.0; eps0 *= 2.0) {
      const PrivacyParams capped = s.TargetGuarantee(eps0);
      CHECK(std::isfinite(capped.epsilon));
      CHECK(capped.epsilon <= eps0 + 1e-12);
      CHECK(capped.epsilon > 0.0);
      if (capped.epsilon >= eps0 - 1e-12) {
        // At the floor the fallback is the pure (eps0, 0) LDP guarantee.
        CHECK(capped.delta == 0.0);
        saw_floor = true;
      } else {
        CHECK(capped.delta > 0.0);
        saw_amplified = true;
        // The raw theorem value agrees whenever it beats the floor.
        CHECK_NEAR(s.RawGuaranteeAt(s.target_rounds(), eps0).epsilon,
                   capped.epsilon, 1e-12);
      }
    }
    CHECK(saw_floor);       // huge eps0 cannot be amplified
    CHECK(saw_amplified);   // small eps0 must be
    // Before any stepping the current-round guarantee is the floor.
    CHECK_NEAR(s.Guarantee(1.0).epsilon, 1.0, 1e-12);
    CHECK(s.Guarantee(1.0).delta == 0.0);
  }

  // ---- Pluggable mechanisms ----------------------------------------------
  {
    KRandomizedResponse rr(4, 1.5);
    LaplaceMechanism lap(0.0, 10.0, 0.75);
    PrivUnit pu(16, 2.5);
    CHECK_NEAR(rr.epsilon0(), 1.5, 1e-12);
    CHECK_NEAR(lap.epsilon0(), 0.75, 1e-12);
    CHECK_NEAR(pu.epsilon0(), 2.5, 1e-12);
    const Mechanism* as_base = &rr;
    CHECK(std::string(as_base->name()) == "k-rr");

    SessionConfig config;
    config.SetGraph(SmallExpander()).SetMechanism(lap);
    Session s = Session::Create(std::move(config)).value();
    CHECK_NEAR(s.epsilon0(), 0.75, 1e-12);
    CHECK(std::string(s.mechanism_name()) == "laplace");
  }

  // ---- The certificate -----------------------------------------------------
  {
    // RawGuaranteeAt is Theorem 5.3 (kAll) or 5.5 (kSingle) at the
    // SumSquaresBound collision mass, and certifies nothing at 0 rounds.
    Graph g = SmallExpander(1500, 8, 7);
    const StationaryMoments pi = ComputeStationaryMoments(g);
    for (ReportingProtocol protocol :
         {ReportingProtocol::kAll, ReportingProtocol::kSingle}) {
      SessionConfig config;
      config.SetGraph(Graph(g)).SetEpsilon0(1.0).SetProtocol(protocol);
      Session s = Session::Create(std::move(config)).value();
      CHECK(std::isinf(s.RawGuaranteeAt(0, 1.0).epsilon));
      CHECK_NEAR(s.GuaranteeAt(0, 1.0).epsilon, 1.0, 0.0);
      for (size_t t : {size_t{4}, size_t{12}, s.target_rounds()}) {
        NetworkShufflingBoundInput in;
        in.epsilon0 = 1.0;
        in.n = g.num_nodes();
        in.sum_p_squares = SumSquaresBound(pi, s.spectral_gap(), t);
        const double expected = protocol == ReportingProtocol::kSingle
                                    ? EpsilonSingle(in)
                                    : EpsilonAllStationary(in);
        const PrivacyParams raw = s.RawGuaranteeAt(t, 1.0);
        CHECK(raw.epsilon == expected ||
              (std::isinf(raw.epsilon) && std::isinf(expected)));
        CHECK_NEAR(raw.delta, 1e-6, 1e-18);
      }
    }

    // The certificate covers the worst-placed user: on an irregular graph,
    // at every round up to the target, it is at least Theorem 5.3 at the
    // largest exact sum P^2 over all origins.
    Rng ba_rng(400);
    const Graph ba = MakeBarabasiAlbert(200, 3, &ba_rng);
    SessionConfig ba_cfg;
    ba_cfg.SetGraph(Graph(ba)).SetEpsilon0(1.0);
    Session irregular = Session::Create(std::move(ba_cfg)).value();
    const size_t target = irregular.target_rounds();
    std::vector<double> worst(target + 1, 0.0);
    for (NodeId origin = 0; origin < ba.num_nodes(); ++origin) {
      PositionDistribution d(&ba, origin);
      for (size_t t = 1; t <= target; ++t) {
        d.Step();
        worst[t] = std::max(worst[t], d.SumSquares());
      }
    }
    for (size_t t = 1; t <= target; ++t) {
      NetworkShufflingBoundInput in;
      in.epsilon0 = 1.0;
      in.n = ba.num_nodes();
      in.sum_p_squares = worst[t];
      CHECK(irregular.RawGuaranteeAt(t, 1.0).epsilon >=
            EpsilonAllStationary(in));
    }

    // Two sessions built from one (copied) config certify identically, and
    // interleaved queries never perturb each other: the certificate keeps
    // no state between queries.
    SessionConfig base;
    base.SetGraph(SmallExpander(400, 8, 11)).SetEpsilon0(1.0);
    SessionConfig copy = base;
    Session s1 = Session::Create(std::move(base)).value();
    Session s2 = Session::Create(std::move(copy)).value();
    const double at8 = s1.RawGuaranteeAt(8, 1.0).epsilon;
    (void)s1.RawGuaranteeAt(12, 1.0);
    CHECK_NEAR(s1.RawGuaranteeAt(8, 1.0).epsilon, at8, 0.0);
    CHECK_NEAR(s2.RawGuaranteeAt(8, 1.0).epsilon, at8, 0.0);
  }

  // ---- Serving lifecycle: ingest -> seal -> exchange -> finalize ----------
  {
    constexpr size_t kN = 400;
    KRandomizedResponse rr(8, 1.0);
    // skip == kN skips nobody.
    const auto fill = [&](Session* s, uint64_t seed, size_t skip) {
      Rng rng(seed);
      for (size_t u = 0; u < kN; ++u) {
        if (u == skip) continue;
        rr.EmitReport(static_cast<NodeId>(u),
                      static_cast<uint32_t>(rng.UniformInt(8)), &rng,
                      s->pending_arena());
      }
    };

    SessionConfig cfg;
    cfg.SetGraph(SmallExpander(kN, 8, 13)).SetMechanism(rr).SetSeed(77);
    Session s = Session::Create(std::move(cfg)).value();
    CHECK(s.epoch() == 0);
    CHECK(s.pending_reports() == 0);

    // A short epoch fails to seal with the typed error, the epoch does NOT
    // roll, and the arena stays mutable: ingesting the missing user and
    // re-sealing succeeds.
    fill(&s, 500, /*skip=*/kN - 1);
    CHECK(s.pending_reports() == kN - 1);
    CHECK(s.BeginEpoch().code() == StatusCode::kPayloadMismatch);
    CHECK(s.epoch() == 0);
    Rng patch_rng(501);
    rr.EmitReport(static_cast<NodeId>(kN - 1), 3, &patch_rng,
                  s.pending_arena());
    CHECK(s.BeginEpoch().ok());
    CHECK(s.epoch() == 1);
    CHECK(s.current_round() == 0);
    CHECK(s.pending_reports() == 0);

    // The new epoch is a real exchange over the streamed payloads.
    CHECK(s.Step(4).ok());
    CHECK(s.current_round() == 4);
    const ProtocolResult inbox = s.FinalizeEpoch();
    CHECK(inbox.server_inbox.size() == kN);
    for (const FinalReport& fr : inbox.server_inbox) {
      CHECK(inbox.payloads->payload(fr.id).size() == sizeof(uint32_t));
    }

    // Ingest rejects an out-of-range origin up front.
    const Bytes junk{1, 2, 3, 4};
    CHECK(s.Ingest(static_cast<NodeId>(kN), junk).code() ==
          StatusCode::kPayloadMismatch);

    // A duplicated origin cannot be repaired by more appends — seal fails,
    // DiscardPending starts the epoch's ingest over.
    fill(&s, 502, kN);
    Rng dup_rng(503);
    rr.EmitReport(0, 1, &dup_rng, s.pending_arena());
    CHECK(s.BeginEpoch().code() == StatusCode::kPayloadMismatch);
    CHECK(s.epoch() == 1);
    s.DiscardPending();
    CHECK(s.pending_reports() == 0);
    fill(&s, 504, kN);
    CHECK(s.BeginEpoch().ok());
    CHECK(s.epoch() == 2);

    // Epoch rollovers are deterministic: an identically-seeded session
    // driven through the same serving schedule produces a bit-identical
    // inbox, and successive epochs draw fresh exchange streams (the same
    // ingest mixes to a different final placement in epoch 2 than it
    // would in epoch 1).
    SessionConfig twin_cfg;
    twin_cfg.SetGraph(SmallExpander(kN, 8, 13)).SetMechanism(rr).SetSeed(77);
    Session twin = Session::Create(std::move(twin_cfg)).value();
    fill(&twin, 500, /*skip=*/kN - 1);
    (void)twin.BeginEpoch();  // short: rejected, just like the original
    Rng twin_patch(501);
    rr.EmitReport(static_cast<NodeId>(kN - 1), 3, &twin_patch,
                  twin.pending_arena());
    CHECK(twin.BeginEpoch().ok());
    CHECK(twin.Step(4).ok());
    const ProtocolResult twin_inbox = twin.FinalizeEpoch();
    CHECK(twin_inbox.server_inbox.size() == inbox.server_inbox.size());
    for (size_t i = 0; i < inbox.server_inbox.size(); ++i) {
      CHECK(twin_inbox.server_inbox[i].id == inbox.server_inbox[i].id);
      CHECK(twin_inbox.server_inbox[i].final_holder ==
            inbox.server_inbox[i].final_holder);
    }
    fill(&twin, 504, kN);
    CHECK(twin.BeginEpoch().ok());
    CHECK(twin.Step(4).ok());
    fill(&s, 504, kN);  // not sealed: pending ingest never perturbs the epoch
    CHECK(s.Step(4).ok());
    const ProtocolResult e2 = s.FinalizeEpoch();
    const ProtocolResult e2_twin = twin.FinalizeEpoch();
    bool any_diff = false;
    for (size_t i = 0; i < e2.server_inbox.size(); ++i) {
      CHECK(e2.server_inbox[i].final_holder ==
            e2_twin.server_inbox[i].final_holder);
      // Same ingest as epoch 1 would have received, different streams.
      if (e2.server_inbox[i].final_holder !=
          inbox.server_inbox[i].final_holder) {
        any_diff = true;
      }
    }
    CHECK(any_diff);
  }

  // ---- Early stopping -----------------------------------------------------
  {
    SessionConfig config;
    config.SetGraph(SmallExpander(1000, 8)).SetEpsilon0(1.0);
    Session s = Session::Create(std::move(config)).value();
    CHECK(s.StepUntil(-1.0, 100).status().code() ==
          StatusCode::kInvalidArgument);

    // A target between the asymptote and the floor is reachable early.
    const double target = 0.97;
    Expected<size_t> stopped = s.StepUntil(target, 10 * s.mixing_rounds());
    CHECK(stopped.ok());
    CHECK(stopped.value() == s.current_round());
    CHECK(s.Guarantee().epsilon <= target + 1e-12);
    CHECK(s.current_round() <= 10 * s.mixing_rounds());

    // StepUntil makes one Step to the stopping round it computes; stepping
    // one round at a time until the guarantee is met must stop at the same
    // round with the same holdings.  Cases: a reachable target, a target
    // capped by max_rounds, a resumed call past a first stop, and a call
    // whose target already holds (no step at all).
    auto step_loop = [](Session* loop, double goal, size_t max_rounds) {
      while (loop->current_round() < max_rounds &&
             loop->Guarantee().epsilon > goal) {
        CHECK(loop->Step(1).ok());
      }
    };
    auto same_inbox = [](const Session& a, const Session& b) {
      const ProtocolResult ra = a.Finalize(ReportingProtocol::kAll);
      const ProtocolResult rb = b.Finalize(ReportingProtocol::kAll);
      CHECK(ra.server_inbox.size() == rb.server_inbox.size());
      for (size_t i = 0; i < ra.server_inbox.size(); ++i) {
        CHECK(ra.server_inbox[i].id == rb.server_inbox[i].id);
        CHECK(ra.server_inbox[i].final_holder ==
              rb.server_inbox[i].final_holder);
      }
    };
    auto make = [] {
      SessionConfig c;
      c.SetGraph(SmallExpander(1000, 8)).SetEpsilon0(1.0).SetSeed(31);
      return Session::Create(std::move(c)).value();
    };
    Session once = make();
    Session loop = make();
    const size_t cap = 10 * once.mixing_rounds();
    auto check_case = [&](double goal, size_t max_rounds) {
      const Expected<size_t> at = once.StepUntil(goal, max_rounds);
      step_loop(&loop, goal, max_rounds);
      CHECK(at.ok());
      CHECK(at.value() == loop.current_round());
      CHECK(once.current_round() == loop.current_round());
      same_inbox(once, loop);
    };
    check_case(0.97, cap);
    const size_t first_stop = once.current_round();
    CHECK(first_stop > 0 && first_stop < cap);
    check_case(1e-9, first_stop + 5);  // unreachable: capped
    CHECK(once.current_round() == first_stop + 5);
    check_case(0.5, cap);
    const size_t before = once.current_round();
    check_case(0.97, cap);  // already met: no step
    CHECK(once.current_round() == before);
  }

  // ---- Rewiring -----------------------------------------------------------
  {
    Rng rng(3);
    SessionConfig config;
    config.SetGraph(SmallExpander(400, 8, 5)).SetEpsilon0(1.0).SetRounds(10);
    Session s = Session::Create(std::move(config)).value();
    CHECK(s.Step(5).ok());

    // Wrong node count and invalid replacements are typed errors.
    CHECK(s.Rewire(MakeRandomRegular(300, 8, &rng)).code() ==
          StatusCode::kGraphMismatch);
    CHECK(s.Rewire(Graph::FromEdges(400, {{0, 1}})).code() ==
          StatusCode::kDisconnectedGraph);
    CHECK(s.current_round() == 5);  // failed rewires change nothing

    // A valid swap keeps the executed rounds, every report, and the
    // caller's EXPLICIT rounds target.
    CHECK(s.Rewire(MakeRandomRegular(400, 6, &rng)).ok());
    CHECK(s.current_round() == 5);
    CHECK(s.target_rounds() == 10);
    CHECK(s.StepToTarget().ok());
    const ProtocolResult result = s.Finalize(ReportingProtocol::kAll);
    CHECK(result.server_inbox.size() == 400);

    // A mixing-time rounds policy re-resolves against the new topology.
    SessionConfig auto_cfg;
    auto_cfg.SetGraph(MakeRandomRegular(400, 4, &rng)).SetEpsilon0(1.0);
    Session a = Session::Create(std::move(auto_cfg)).value();
    CHECK(a.Rewire(MakeRandomRegular(400, 16, &rng)).ok());
    CHECK(a.target_rounds() == a.mixing_rounds());

    // RequireMixedRounds survives rewiring: a fixed target that passed the
    // old graph's floor is re-checked against the slow-mixing replacement.
    SessionConfig strict_cfg;
    strict_cfg.SetGraph(MakeRandomRegular(400, 8, &rng))
        .SetEpsilon0(1.0)
        .SetRounds(500)
        .RequireMixedRounds();
    Session strict = Session::Create(std::move(strict_cfg)).value();
    CHECK(strict.Rewire(MakeCirculant(400, 4)).code() ==
          StatusCode::kRoundsBelowMixingFloor);

    // After a rewire the session certifies exactly what a fresh session on
    // the final topology does: the gap and the stationary moments are both
    // re-derived, here across a regular -> irregular swap.
    Rng ba_rng(22);
    const Graph irregular = MakeBarabasiAlbert(400, 4, &ba_rng);
    SessionConfig rewired_cfg;
    rewired_cfg.SetGraph(SmallExpander(400, 8, 21)).SetEpsilon0(1.0);
    Session rewired = Session::Create(std::move(rewired_cfg)).value();
    (void)rewired.RawGuaranteeAt(8, 1.0);
    CHECK(rewired.Rewire(Graph(irregular)).ok());
    SessionConfig fresh_cfg;
    fresh_cfg.SetGraph(Graph(irregular)).SetEpsilon0(1.0);
    Session fresh = Session::Create(std::move(fresh_cfg)).value();
    CHECK_NEAR(rewired.RawGuaranteeAt(10, 1.0).epsilon,
               fresh.RawGuaranteeAt(10, 1.0).epsilon, 0.0);
  }

  // ---- Fail closed on an unresolved spectral gap --------------------------
  {
    // C(5001, {1, 2}) has absolute gap 2.0e-6, too small for the Lanczos
    // estimate to resolve within its iteration cap: no session certifies on
    // it.
    SessionConfig slow;
    slow.SetGraph(MakeCirculant(5001, 4));
    CHECK(CreateError(std::move(slow)) == StatusCode::kSpectralGapUnresolved);

    // A Rewire onto it fails the same way and changes nothing.
    Rng rng(41);
    SessionConfig cfg;
    cfg.SetGraph(MakeRandomRegular(5001, 8, &rng)).SetEpsilon0(1.0);
    Session s = Session::Create(std::move(cfg)).value();
    const double gap = s.spectral_gap();
    const size_t mixing = s.mixing_rounds();
    const size_t target = s.target_rounds();
    CHECK(gap > 0.0);
    CHECK(s.Step(2).ok());
    CHECK(s.Rewire(MakeCirculant(5001, 4)).code() ==
          StatusCode::kSpectralGapUnresolved);
    CHECK(s.spectral_gap() == gap);
    CHECK(s.mixing_rounds() == mixing);
    CHECK(s.target_rounds() == target);
    CHECK(s.current_round() == 2);
    CHECK(s.graph().degree(0) == 8);

    // AllowNonErgodic graphs still create, with gap exactly 0.
    SessionConfig split;
    split.SetGraph(Graph::FromEdges(
                       6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}))
        .AllowNonErgodic();
    Expected<Session> disconnected = Session::Create(std::move(split));
    CHECK(disconnected.ok());
    CHECK(disconnected.value().spectral_gap() == 0.0);
    SessionConfig even;
    even.SetGraph(MakeTorus(8, 8)).AllowNonErgodic();
    Expected<Session> bipartite = Session::Create(std::move(even));
    CHECK(bipartite.ok());
    CHECK(bipartite.value().spectral_gap() == 0.0);
  }

  // ---- Expected semantics -------------------------------------------------
  {
    Expected<int> good(42);
    CHECK(good.ok());
    CHECK(good.value() == 42);
    Expected<int> bad(Status::Error(StatusCode::kInvalidArgument, "nope"));
    CHECK(!bad.ok());
    CHECK(bad.status().code() == StatusCode::kInvalidArgument);
    CHECK(std::string(StatusCodeName(StatusCode::kNonErgodicGraph)) ==
          "kNonErgodicGraph");
    CHECK(Status::Ok().ToString() == "OK");
  }
  return 0;
}
