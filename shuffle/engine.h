// The network-shuffling exchange engine: every user injects one report, and
// each round every held report takes one random-walk hop to a uniformly
// chosen neighbor of its holder.  Each report walks on its own coins, so
// the engine keeps every report's holder as a column, walks every report
// through all of a call's rounds in one pass, and sorts the column into the
// per-user holdings once per call (DESIGN.md §4c, §4e).

#ifndef NETSHUFFLE_SHUFFLE_ENGINE_H_
#define NETSHUFFLE_SHUFFLE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/status.h"
#include "graph/graph.h"
#include "shuffle/fault.h"
#include "shuffle/payload.h"
#include "shuffle/protocol.h"
#include "shuffle/store.h"

namespace netshuffle {

/// Complexity counters shared by the network engine and the Table-3
/// baselines (baselines/prochlo.h, baselines/mixnet.h).
///
/// Not internally synchronized: the exchange engine writes it only from the
/// coordinating thread, between rounds, so the totals are thread-count
/// invariant.  The serial baselines call the mutators directly.
class ShuffleMetrics {
 public:
  explicit ShuffleMetrics(size_t num_users)
      : traffic_(num_users, 0), peak_holdings_(num_users, 0) {}

  void AddUserTraffic(NodeId u, uint64_t sends) { traffic_[u] += sends; }
  void ObserveUserHoldings(NodeId u, size_t held) {
    if (held > peak_holdings_[u]) peak_holdings_[u] = held;
  }
  void ObserveEntityBuffer(size_t buffered) {
    if (buffered > peak_entity_memory_) peak_entity_memory_ = buffered;
  }

  /// Peak reports buffered at any dedicated shuffling entity (0 for the
  /// entity-free network protocol).
  size_t peak_entity_memory() const { return peak_entity_memory_; }
  uint64_t max_user_traffic() const;
  double mean_user_traffic() const;
  /// Peak reports simultaneously held by any single user.
  size_t max_user_memory() const;

 private:
  std::vector<uint64_t> traffic_;
  std::vector<size_t> peak_holdings_;
  size_t peak_entity_memory_ = 0;
};

struct ExchangeOptions {
  /// Number of exchange rounds executed by this call.  Must be positive:
  /// the engine has no mixing-time default and rejects 0 with a fatal error
  /// (see ValidateExchangeOptions).  The mixing-time default — rounds
  /// = 0 meaning "the mixing time alpha^-1 log n" — lives in ONE place:
  /// core/session.h SessionConfig::SetRounds.
  size_t rounds = 1;
  uint64_t seed = 1;
  /// Optional availability model; nullptr = everyone always awake.
  const FaultModel* faults = nullptr;
  /// Optional complexity counters, filled during the run.  With a sink the
  /// engine walks round by round, counting in between (the Table 3 path);
  /// the holdings are identical either way.
  ShuffleMetrics* metrics = nullptr;
};

struct ExchangeResult {
  /// Flat routing store: user u's holdings after the last round are the
  /// contiguous ReportId slice holdings.reports(u), in ascending report id
  /// (see shuffle/store.h).  Reports are conserved, so
  /// holdings.num_reports() == n for the whole run.
  ReportStore holdings;
  /// holders[r] is report r's current holder: the walk's state, which
  /// holdings is sorted from.  Empty after StartExchange; ResumeExchange
  /// derives it from holdings on first use and keeps it current, so a
  /// resumed call never rebuilds it.  A caller that edits holdings directly
  /// must clear it.
  std::vector<NodeId> holders;
  /// The immutable origin/payload columns the routed ids index into
  /// (shuffle/payload.h), frozen at injection and shared with every
  /// ProtocolResult finalized from this state.
  std::shared_ptr<const PayloadArena> payloads;
  /// Total rounds this state has been advanced (across resumed chunks).
  size_t rounds = 0;
};

class ExchangeWorkspace;

/// Advances `prior` (from StartExchange or a previous call) by
/// options.rounds further rounds.  In absolute round t = prior.rounds + i,
/// report r held by v moves to neighbors(v)[MapToBound(FirstRawDraw(
/// ExchangeStreamSeed(ReportWalkSeed(seed), t, r)), deg v)] (util/rng.h); a
/// holder that is isolated, or asleep on its own per-(seed, t, v)
/// availability stream under options.faults, keeps its reports.  Every
/// report walks all options.rounds hops in one pass, and the holdings are
/// sorted from the holder column once, at the end.  So a run split into
/// Session::Step chunks ends in exactly the holdings of the equivalent
/// one-shot RunExchange.  Fatal on options.rounds == 0.
///
/// A null `workspace` allocates scratch for this call only; incremental
/// callers (Session::Step) pass a persistent one so repeated short calls
/// reuse the sort's tables.  Results are bit-identical either way.
ExchangeResult ResumeExchange(const Graph& g, ExchangeResult prior,
                              const ExchangeOptions& options,
                              ExchangeWorkspace* workspace = nullptr);

/// Reusable scratch for the engine's one sort per call — ResumeExchange's
/// by holder, SealAndInject's by origin (DESIGN.md §4c, §4e, §8): the
/// per-destination-shard (id, user) blocks, their start grid and the
/// destination shards' user bounds.  The walk itself needs no heap
/// scratch (a few KB of stack per block).  Hoisted out of the engine so a
/// serving loop stepping one round at a time (Session::Step(1)) pays the
/// O(n) allocation once per session instead of once per call; buffer sizing
/// is idempotent, so the steady state allocates nothing (pinned by an
/// allocation-count regression test in tests/test_session_incremental.cc).
///
/// Purely scratch: nothing ever reads workspace contents from a previous
/// call, so reusing one workspace across exchanges (graphs of different
/// sizes, heap or file-backed payloads) cannot change results.  Every
/// buffer here is heap memory under both storage backends: only the
/// write-once payload columns are file-backed (DESIGN.md §9).  Not
/// thread-safe — one workspace per concurrently executing exchange.
class ExchangeWorkspace {
 public:
  ExchangeWorkspace() = default;
  ExchangeWorkspace(const ExchangeWorkspace&) = delete;
  ExchangeWorkspace& operator=(const ExchangeWorkspace&) = delete;
  ExchangeWorkspace(ExchangeWorkspace&&) = default;
  ExchangeWorkspace& operator=(ExchangeWorkspace&&) = default;

  /// Heap footprint of the scratch buffers (benches report this; the
  /// dominant term is the 8 B/report of blocks).
  size_t MemoryBytes() const;

 private:
  friend class ExchangeSort;  // engine.cc: the one sort that fills these

  std::vector<size_t> bounds_;    // destination shards' user bounds
  // Per-destination-shard blocks, laid over each source shard's report-id
  // range: (id, holder), the latter overwritten by the claimed slot.
  std::vector<ReportId> block_ids_;
  std::vector<uint32_t> block_dests_;
  std::vector<uint32_t> grid_;    // block starts (shards x (shards + 1))
};

/// Typed pre-flight check for the exchange entry points below; they fatal on
/// exactly the configurations this rejects.  Today that is the zero-round
/// footgun (silently returning unshuffled holdings would certify privacy
/// that was never delivered).
Status ValidateExchangeOptions(const ExchangeOptions& options);

/// Injects one report per user (holdings[u] = {u's report id}) over an
/// identity PayloadArena (origin(r) == r, zero payload bytes) and records
/// the initial metrics observation — round 0 of an exchange.  Advance the
/// returned state with ResumeExchange.
ExchangeResult StartExchange(const Graph& g, ShuffleMetrics* metrics = nullptr);

/// The serving epoch's seal point and injection in one sharded pass
/// (DESIGN.md §8) over num_users users: hands each report id to its origin
/// (holdings[u] = ids with origin(id) == u, in ascending id order) with the
/// exchange's own sort, the origin column standing in for the holder
/// column.  The sort is
/// also the one-report-per-user check: a short arena, an origin out of
/// range, or an origin whose load in its receiving shard is not 1 returns
/// a typed kPayloadMismatch (a hosted arena's write or map failure,
/// kIoError), and *payloads stays as it was, unfrozen.  On success
/// *payloads is frozen and moved into the result.  `workspace` as in
/// ResumeExchange; results are bit-identical at any pool width.
Expected<ExchangeResult> SealAndInject(size_t num_users,
                                       PayloadArena* payloads,
                                       ShuffleMetrics* metrics = nullptr,
                                       ExchangeWorkspace* workspace = nullptr);

/// SealAndInject for callers that have already checked the arena
/// (Session::Validate): fatal on what SealAndInject reports.
ExchangeResult StartExchange(const Graph& g, PayloadArena payloads,
                             ShuffleMetrics* metrics = nullptr);

/// Runs a fresh report exchange (StartExchange + ResumeExchange).  Reports
/// are conserved: every one of the n injected reports is held by exactly one
/// user afterwards.  Fatal on options.rounds == 0.
ExchangeResult RunExchange(const Graph& g, const ExchangeOptions& options);

/// Applies a reporting protocol to finished holdings, producing the
/// curator's inbox.  Read-only on the exchange state, so mid-run audits can
/// finalize repeatedly without copying it.  kAll fills the inbox on the
/// pool, by user shard: the report in CSR slot i lands at inbox[i].  kSingle
/// draws every user's pick from one serial stream, in user order.
ProtocolResult FinalizeProtocol(const ExchangeResult& exchange,
                                ReportingProtocol protocol, uint64_t seed);

}  // namespace netshuffle

#endif  // NETSHUFFLE_SHUFFLE_ENGINE_H_
