// The network-shuffling exchange engine: every user injects one report, and
// each round every held report takes one random-walk hop to a uniformly
// chosen neighbor of its holder.

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
/// Not internally synchronized: the parallel exchange engine accumulates
/// per-shard counters on its workers and merges them into this object from
/// the coordinating thread at the end of every round (in shard order, so the
/// totals are thread-count invariant).  The serial baselines call the
/// mutators directly.
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
  /// Optional complexity counters, filled during the run.
  ShuffleMetrics* metrics = nullptr;
};

struct ExchangeResult {
  /// Flat routing store: user u's holdings after the last round are the
  /// contiguous ReportId slice holdings.reports(u) (see shuffle/store.h).
  /// Reports are conserved, so holdings.num_reports() == n for the whole
  /// run.
  ReportStore holdings;
  /// The immutable origin/payload columns the routed ids index into
  /// (shuffle/payload.h), frozen at injection and shared with every
  /// ProtocolResult finalized from this state.
  std::shared_ptr<const PayloadArena> payloads;
  /// Total rounds this state has been advanced (across resumed chunks).
  size_t rounds = 0;
};

class ExchangeWorkspace;

/// Advances `prior` (from StartExchange or a previous call) by
/// options.rounds further rounds.  Every coin is drawn from a stream keyed
/// on (seed, prior.rounds + i, user), so a run split into Session::Step
/// chunks draws exactly the coins of the equivalent one-shot RunExchange.
/// Fatal on options.rounds == 0.
///
/// A null `workspace` allocates scratch for this call only; incremental
/// callers (Session::Step) pass a persistent one so repeated short calls
/// reuse the routing tables.  Results are bit-identical either way.
ExchangeResult ResumeExchange(const Graph& g, ExchangeResult prior,
                              const ExchangeOptions& options,
                              ExchangeWorkspace* workspace = nullptr);

/// Reusable scratch for ResumeExchange (DESIGN.md §4e): the double-buffer
/// partner store plus the per-round routing tables — destination/slot
/// column, the per-destination-shard (id, destination) blocks and their
/// start grid, the per-shard holder-list segments the batched hop kernels
/// iterate, per-shard coin/address tiles, per-shard traffic buffers.
/// Hoisted out of the engine so a serving loop stepping one round at a time
/// (Session::Step(1)) pays the O(n) allocation once per session instead of
/// once per call; buffer sizing is idempotent, so the steady state
/// allocates nothing (pinned by an allocation-count regression test in
/// tests/test_session_incremental.cc).
///
/// Purely scratch: no routing decision ever reads workspace contents from a
/// previous round, so reusing one workspace across exchanges (graphs of
/// different sizes, heap or file-backed payloads) cannot change results.
/// Every buffer here is heap memory under both storage backends: only the
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
  /// dominant terms are the ~8 B/user partner store, the 4 B/report
  /// dest/slot column, the 8 B/report blocks when there is more than one
  /// shard, and the ~8 B/user holder list).
  size_t MemoryBytes() const;

 private:
  friend ExchangeResult ResumeExchange(const Graph&, ExchangeResult,
                                       const ExchangeOptions&,
                                       ExchangeWorkspace*);

  ReportStore next_;              // double-buffer scatter partner
  std::vector<uint32_t> dests_;   // per-slot destination, then claimed slot
  std::vector<size_t> bounds_;    // shard user boundaries (shards + 1)
  // Per-destination-shard blocks, laid over each source shard's arena
  // range: (id, destination), the latter overwritten by the claimed slot.
  // Sized only when there is more than one shard.
  std::vector<ReportId> block_ids_;
  std::vector<uint32_t> block_dests_;
  std::vector<uint32_t> grid_;    // block starts (shards x (shards + 1))
  // The round's holder list, one segment per shard: users holding >= 1
  // report (ascending) and where each one's arena run begins, then a
  // sentinel entry — the branch-free iteration structure of the batched
  // hop (DESIGN.md §4e).  Segment c starts at bounds_[c] + c.
  std::vector<uint32_t> holder_v_;     // holder user ids (n + shards)
  std::vector<uint32_t> holder_b_;     // holder arena-run starts (n + shards)
  std::vector<size_t> segment_end_;    // per-segment sentinel index (shards)
  std::vector<std::vector<uint64_t>> coins_;  // per-shard coin tiles
  std::vector<std::vector<const NodeId*>> addrs_;  // per-shard address tiles
  std::vector<std::vector<uint64_t>> streams_;  // per-shard stream-seed tiles
  std::vector<std::vector<uint64_t>> firsts_;   // per-shard first-word tiles
  std::vector<std::vector<uint32_t>> multi_;    // per-shard multi-holder list
  std::vector<std::vector<std::pair<NodeId, uint64_t>>> traffic_;
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

/// Injection over an explicit payload arena: freezes it, then hands each
/// report id to its origin (holdings[u] = ids with origin(id) == u, in
/// ascending id order).  The protocol injects exactly one report per user,
/// so the arena must hold g.num_nodes() reports with every origin in range
/// — fatal otherwise (Session::Validate surfaces the same condition as a
/// typed kPayloadMismatch first).
ExchangeResult StartExchange(const Graph& g, PayloadArena payloads,
                             ShuffleMetrics* metrics = nullptr);

/// Runs a fresh report exchange (StartExchange + ResumeExchange).  Reports
/// are conserved: every one of the n injected reports is held by exactly one
/// user afterwards.  Fatal on options.rounds == 0.
ExchangeResult RunExchange(const Graph& g, const ExchangeOptions& options);

/// Applies a reporting protocol to finished holdings, producing the
/// curator's inbox.  Read-only on the exchange state, so mid-run audits can
/// finalize repeatedly without copying it.
ProtocolResult FinalizeProtocol(const ExchangeResult& exchange,
                                ReportingProtocol protocol, uint64_t seed);

}  // namespace netshuffle

#endif  // NETSHUFFLE_SHUFFLE_ENGINE_H_
