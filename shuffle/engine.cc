#include "shuffle/engine.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/parallel.h"
#include "util/rng.h"

namespace netshuffle {

uint64_t ShuffleMetrics::max_user_traffic() const {
  uint64_t best = 0;
  for (uint64_t t : traffic_) best = std::max(best, t);
  return best;
}

double ShuffleMetrics::mean_user_traffic() const {
  if (traffic_.empty()) return 0.0;
  double total = 0.0;
  for (uint64_t t : traffic_) total += static_cast<double>(t);
  return total / static_cast<double>(traffic_.size());
}

size_t ShuffleMetrics::max_user_memory() const {
  size_t best = 0;
  for (size_t h : peak_holdings_) best = std::max(best, h);
  return best;
}

namespace {

// Upper bound on the number of routing shards.  Shard count is
// scheduling-only (results are bit-identical at any value).  The holder
// sort keeps shards x shards blocks, and each destination shard walks all
// of its source blocks, so the cap keeps the blocks from thinning out to a
// few reports each (and the partition's per-destination cursors on the
// stack) even under extreme NS_THREADS settings.
constexpr size_t kMaxRoutingShards = 32;

// A user's routing shard: (v * mul) >> 32, with
// mul = floor(shards * 2^32 / n) — a multiply and a shift per report, where
// a division would dominate the partition loop.  ResumeExchange derives the
// shard bounds from this same map, so the shard a report is routed to
// always owns its destination.
inline size_t ShardOf(uint32_t v, uint64_t mul) {
  return (uint64_t{v} * mul) >> 32;
}

// Reports per walk block (DESIGN.md §4e).  A block's ids, coins, addresses
// and holders stay in L1 through every round of a call, so the only memory
// a hop touches outside the block is the graph.  The four stack arrays in
// WalkBlock (~14 KB) are the walk's whole scratch.
constexpr uint32_t kWalkBlock = 512;

// Claim/place tile of the scatter (ScatterShard): the dest/slot slice of a
// tile stays cache-resident between the two sub-passes.
constexpr uint32_t kScatterTile = 4096;

// Software-prefetch lookahead for the dependent random accesses (scatter
// cursor claims and arena placements).  The tables are O(n) and miss L1/L2
// at the million-user scale; ~40 slots of lookahead hides most of the miss
// latency at these loop costs without thrashing the prefetch queues (16-64
// measure within noise of each other; shorter distances leave latency
// exposed).
constexpr uint32_t kPrefetchAhead = 40;

// Whether holder v's reports hop in absolute round t: v has a neighbor and,
// under a fault model, is awake on its per-(seed, t, v) availability stream.
// Every report at v reads the same stream, so they all stay or all go.
bool Hops(const Graph& g, const ExchangeOptions& options, NodeId v,
          size_t t) {
  if (g.degree(v) == 0) return false;
  if (options.faults == nullptr) return true;
  Rng rng(ExchangeStreamSeed(options.seed, t, v));
  return options.faults->Awake(v, t, &rng);
}

// Moves reports [begin, begin + count) (count <= kWalkBlock) through
// absolute rounds [t_begin, t_end).  In round t report r at holder v moves
// to neighbors(v)[MapToBound(FirstRawDraw(ExchangeStreamSeed(report_seed,
// t, r)), deg v)]; an isolated or asleep holder keeps it.  Each report's
// walk reads only its own coins and its own holder, so blocks are
// independent and the result does not depend on how they are scheduled.
void WalkBlock(const Graph& g, const ExchangeOptions& options,
               uint64_t report_seed, size_t t_begin, size_t t_end,
               uint32_t begin, uint32_t count, NodeId* holder) {
  uint32_t ids[kWalkBlock];
  uint64_t streams[kWalkBlock];
  uint64_t coins[kWalkBlock];
  const NodeId* addrs[kWalkBlock];
  for (uint32_t i = 0; i < count; ++i) ids[i] = begin + i;
  NodeId* const h = holder + begin;
  for (size_t t = t_begin; t < t_end; ++t) {
    BatchStreamSeeds(ids, count, report_seed, t, streams, coins);
    if (options.faults == nullptr) {
      // Two passes: every destination's address is computed and prefetched
      // before any is read, so the block's adjacency misses overlap.  An
      // isolated holder's address is its own holder slot (it stays put).
      // Kept apart from the fault loop below: folding the availability
      // check into this loop measured 2x slower (BM_StepToTarget).
      for (uint32_t i = 0; i < count; ++i) {
        const NodeId v = h[i];
        const size_t deg = g.degree(v);
        const NodeId* a =
            deg != 0 ? g.neighbors_begin(v) + MapToBound(coins[i], deg) : h + i;
        addrs[i] = a;
        __builtin_prefetch(a, 0, 1);
      }
      for (uint32_t i = 0; i < count; ++i) h[i] = *addrs[i];
    } else {
      for (uint32_t i = 0; i < count; ++i) {
        const NodeId v = h[i];
        if (Hops(g, options, v, t)) {
          h[i] = g.neighbors_begin(v)[MapToBound(coins[i], g.degree(v))];
        }
      }
    }
  }
}

// One source shard's partition of reports [begin, end) by their holder's
// destination shard: counts them per destination shard, lays one block per
// destination shard over the same range of the block columns in
// destination-shard order (row[d] = block d's start, row[shards] = end),
// then copies each (id, holder) into its block in ascending id order.
void PartitionShard(uint32_t begin, uint32_t end, size_t shards, uint64_t mul,
                    const NodeId* holder, uint32_t* row, ReportId* block_ids,
                    uint32_t* block_dests) {
  uint32_t cursor[kMaxRoutingShards] = {};
  for (uint32_t i = begin; i < end; ++i) ++cursor[ShardOf(holder[i], mul)];
  uint32_t run = begin;
  for (size_t d = 0; d < shards; ++d) {
    row[d] = run;
    run += cursor[d];
    cursor[d] = row[d];
  }
  row[shards] = end;
  for (uint32_t i = begin; i < end; ++i) {
    const uint32_t pos = cursor[ShardOf(holder[i], mul)]++;
    block_ids[pos] = i;
    block_dests[pos] = holder[i];
  }
}

// Claim every report's slot in [begin, end) from the cursor column (random
// read-modify-write, prefetched; the claimed slot overwrites the dest
// column in place), then place the ids at the claimed slots (random write,
// prefetched).  Splitting claim from placement is what makes the placement
// address known kPrefetchAhead iterations early.  The cursor must already
// hold each destination's next free slot (ReceiveShard's prefix).
void ScatterShard(uint32_t* cursor, uint32_t begin, uint32_t end,
                  uint32_t* dests, const ReportId* ids, ReportId* arena) {
  for (uint32_t tile = begin; tile < end; tile += kScatterTile) {
    const uint32_t tile_end = std::min(end, tile + kScatterTile);
    for (uint32_t i = tile; i < tile_end; ++i) {
      if (i + kPrefetchAhead < tile_end) {
        __builtin_prefetch(cursor + dests[i + kPrefetchAhead], 1, 1);
      }
      dests[i] = cursor[dests[i]]++;
    }
    for (uint32_t i = tile; i < tile_end; ++i) {
      if (i + kPrefetchAhead < tile_end) {
        __builtin_prefetch(arena + dests[i + kPrefetchAhead], 1, 0);
      }
      arena[dests[i]] = ids[i];
    }
  }
}

// One destination shard's pass, after every source shard's partition: it
// owns users [bounds[d], bounds[d + 1]) and block d of every source's grid
// row.  It visits those blocks in ascending source order, each in ascending
// id order, so every slice it fills comes out in ascending report id.
//   1. Histogram its users' loads into cursor[v].
//   2. Prefix from the count of reports bound for lower shards: each load
//      becomes its slice start.
//   3. Claim and place every block's ids (ScatterShard).
// cursor is offsets + 1, so once placed cursor[v] has advanced to exactly
// the CSR offset of v + 1.
void ReceiveShard(size_t d, size_t shards, const size_t* bounds,
                  const uint32_t* grid, uint32_t* block_dests,
                  const ReportId* block_ids, uint32_t* cursor,
                  ReportId* arena) {
  const size_t row = shards + 1;
  const size_t u_begin = bounds[d], u_end = bounds[d + 1];
  uint32_t run = 0;
  for (size_t c = 0; c < shards; ++c) run += grid[c * row + d] - grid[c * row];

  std::fill(cursor + u_begin, cursor + u_end, 0u);
  for (size_t c = 0; c < shards; ++c) {
    for (uint32_t i = grid[c * row + d]; i < grid[c * row + d + 1]; ++i) {
      ++cursor[block_dests[i]];
    }
  }
  for (size_t v = u_begin; v < u_end; ++v) {
    const uint32_t load = cursor[v];
    cursor[v] = run;
    run += load;
  }
  for (size_t c = 0; c < shards; ++c) {
    ScatterShard(cursor, grid[c * row + d], grid[c * row + d + 1],
                 block_dests, block_ids, arena);
  }
}

}  // namespace

size_t ExchangeWorkspace::MemoryBytes() const {
  return block_ids_.capacity() * sizeof(ReportId) +
         block_dests_.capacity() * sizeof(uint32_t) +
         grid_.capacity() * sizeof(uint32_t) +
         bounds_.capacity() * sizeof(size_t);
}

Status ValidateExchangeOptions(const ExchangeOptions& options) {
  if (options.rounds == 0) {
    return Status::Error(
        StatusCode::kZeroRounds,
        "ExchangeOptions.rounds == 0: the engine has no mixing-time default "
        "and a zero-round exchange would deliver unshuffled reports; pick "
        "rounds explicitly, or let SessionConfig::SetRounds(0) resolve the "
        "mixing time (core/session.h is the one place that default lives)");
  }
  return Status::Ok();
}

ExchangeResult StartExchange(const Graph& g, ShuffleMetrics* metrics) {
  const size_t n = g.num_nodes();
  ExchangeResult result;
  result.holdings.InitOnePerUser(n);
  result.payloads =
      std::make_shared<const PayloadArena>(PayloadArena::Identity(n));
  if (metrics != nullptr) {
    for (NodeId u = 0; u < n; ++u) metrics->ObserveUserHoldings(u, 1);
  }
  return result;
}

ExchangeResult StartExchange(const Graph& g, PayloadArena payloads,
                             ShuffleMetrics* metrics) {
  const size_t n = g.num_nodes();
  if (payloads.num_reports() != n) {
    NETSHUFFLE_FATAL("StartExchange: arena holds " +
                     std::to_string(payloads.num_reports()) +
                     " reports for " + std::to_string(n) +
                     " users (the protocol injects exactly one per user)");
  }
  payloads.Freeze();

  ExchangeResult result;
  ReportStore& store = result.holdings;
  store.AllocateFor(n, n);
  // Counting-sort injection: holdings[u] = ids with origin u, ascending.
  uint32_t* offsets = store.mutable_offsets();
  std::fill(offsets, offsets + n + 1, 0u);
  for (ReportId r = 0; r < static_cast<ReportId>(n); ++r) {
    const NodeId o = payloads.origin(r);
    if (static_cast<size_t>(o) >= n) {
      NETSHUFFLE_FATAL("StartExchange: report " + std::to_string(r) +
                       " has origin " + std::to_string(o) + " outside the " +
                       std::to_string(n) + "-user population");
    }
    ++offsets[o + 1];
  }
  for (size_t u = 0; u < n; ++u) {
    if (offsets[u + 1] != 1) {
      // With exactly n reports, any user injecting more than one implies
      // another injects none — a double eps0 spend the certificate cannot
      // see (Session::Validate reports the same condition as a typed
      // kPayloadMismatch first).
      NETSHUFFLE_FATAL("StartExchange: origin " + std::to_string(u) +
                       " injects " + std::to_string(offsets[u + 1]) +
                       " reports; the protocol is one report per user");
    }
    offsets[u + 1] += offsets[u];
  }
  std::vector<uint32_t> cursor(offsets, offsets + n);
  ReportId* arena = store.mutable_arena();
  for (ReportId r = 0; r < static_cast<ReportId>(n); ++r) {
    arena[cursor[payloads.origin(r)]++] = r;
  }

  result.payloads =
      std::make_shared<const PayloadArena>(std::move(payloads));
  if (metrics != nullptr) {
    for (NodeId u = 0; u < n; ++u) {
      metrics->ObserveUserHoldings(u, store.count(u));
    }
  }
  return result;
}

ExchangeResult ResumeExchange(const Graph& g, ExchangeResult prior,
                              const ExchangeOptions& options,
                              ExchangeWorkspace* workspace) {
  const Status valid = ValidateExchangeOptions(options);
  if (!valid.ok()) NETSHUFFLE_FATAL(valid.ToString());
  std::optional<ExchangeWorkspace> call_scratch;
  if (workspace == nullptr) workspace = &call_scratch.emplace();

  const size_t n = g.num_nodes();
  ExchangeResult result = std::move(prior);
  const size_t t_begin = result.rounds;
  result.rounds += options.rounds;
  const size_t t_end = result.rounds;
  if (n == 0) return result;

  ReportStore& store = result.holdings;
  const uint32_t total =
      CheckedNarrow32(store.num_reports(), "exchange report count");

  // Shards, one per pool slot: shard c walks and partitions the contiguous
  // report-id range [first_report(c), first_report(c + 1)), and receives
  // the contiguous user range [bounds[c], bounds[c + 1]).  The shard count
  // only affects scheduling: every coin comes from a per-(round, report)
  // stream, and every slice is filled in ascending report id
  // (ReceiveShard), so the holdings are bit-identical for any thread count
  // (including 1).  The user bounds come from ShardOf's map: shard c starts
  // at the first user v with (v * mul) >> 32 >= c.
  const size_t shards = std::min(
      {std::max<size_t>(ThreadCount(), 1), n, kMaxRoutingShards});
  const uint64_t mul = (uint64_t{shards} << 32) / n;
  auto first_report = [&](size_t c) {
    // ns-lint: allow(narrow32): c <= shards, so the quotient is <= total,
    // itself narrowed by CheckedNarrow32 above.
    return static_cast<uint32_t>(uint64_t{total} * c / shards);
  };

  // Size the reusable scratch.  Every resize target depends only on
  // (n, total, shards), so for a fixed session this settles at the first
  // call and incremental Step(1) loops re-enter allocation-free (pinned by
  // tests/test_session_incremental.cc):
  //   block_ids/dests — the per-destination-shard (id, holder) blocks, the
  //                     holder overwritten by the claimed slot;
  //   grid            — the block starts, one row per source shard;
  //   bounds          — the destination shards' user bounds.
  ExchangeWorkspace& ws = *workspace;
  ws.block_ids_.resize(total);
  ws.block_dests_.resize(total);
  ws.bounds_.resize(shards + 1);
  ws.grid_.resize(shards * (shards + 1));
  for (size_t c = 0; c <= shards; ++c) {
    ws.bounds_[c] = std::min<size_t>(n, ((uint64_t{c} << 32) + mul - 1) / mul);
  }
  const size_t* bounds = ws.bounds_.data();
  uint32_t* grid = ws.grid_.data();
  ReportId* block_ids = ws.block_ids_.data();
  uint32_t* block_dests = ws.block_dests_.data();

  // The holder column is the walk's state.  A state fresh from
  // StartExchange has only the CSR, so the column is derived from it once;
  // every later call reads the column the previous one left.
  std::vector<NodeId>& holders = result.holders;
  if (holders.size() != total) {
    holders.resize(total);
    const uint32_t* offsets = store.offsets_data();
    const ReportId* arena = store.arena_data();
    GlobalPool().RunChunks(shards, [&](size_t d) {
      for (size_t v = bounds[d]; v < bounds[d + 1]; ++v) {
        for (uint32_t i = offsets[v]; i < offsets[v + 1]; ++i) {
          holders[arena[i]] = static_cast<NodeId>(v);
        }
      }
    });
  }
  NodeId* holder = holders.data();

  const uint64_t report_seed = ReportWalkSeed(options.seed);
  auto walk = [&](size_t c, size_t from, size_t to) {
    const uint32_t end = first_report(c + 1);
    for (uint32_t b = first_report(c); b < end; b += kWalkBlock) {
      WalkBlock(g, options, report_seed, from, to, b,
                std::min(kWalkBlock, end - b), holder);
    }
  };

  // Table 3's complexity counters need every round's sends and loads, so
  // with a sink the walk goes round by round and counts in between, on the
  // coordinating thread: a holder that hops sends its whole load.
  if (options.metrics != nullptr) {
    std::vector<uint32_t> load(n, 0);
    for (uint32_t r = 0; r < total; ++r) ++load[holder[r]];
    for (size_t t = t_begin; t < t_end; ++t) {
      for (NodeId v = 0; v < n; ++v) {
        if (load[v] != 0 && Hops(g, options, v, t)) {
          options.metrics->AddUserTraffic(v, load[v]);
        }
      }
      GlobalPool().RunChunks(shards, [&](size_t c) { walk(c, t, t + 1); });
      std::fill(load.begin(), load.end(), 0u);
      for (uint32_t r = 0; r < total; ++r) ++load[holder[r]];
      for (NodeId v = 0; v < n; ++v) {
        options.metrics->ObserveUserHoldings(v, load[v]);
      }
    }
  }

  // Source phase (parallel over shards): every report of the shard walks
  // all of this call's rounds, block by block, then the shard partitions
  // its reports by destination shard.  The block schedule measured 10-18%
  // faster than a pass per round at 4 threads (DESIGN.md §4e).
  GlobalPool().RunChunks(shards, [&](size_t c) {
    if (options.metrics == nullptr) walk(c, t_begin, t_end);
    PartitionShard(first_report(c), first_report(c + 1), shards, mul, holder,
                   grid + c * (shards + 1), block_ids, block_dests);
  });

  // Destination phase (parallel over shards): each shard histograms,
  // prefixes and scatters the blocks addressed to it, writing its users'
  // CSR offsets and slices — disjoint between shards (ReceiveShard above).
  // The CSR is a function of the holder column alone, so it is rebuilt in
  // place: nothing reads the previous one.
  uint32_t* offsets = store.mutable_offsets();
  ReportId* arena = store.mutable_arena();
  offsets[0] = 0;
  GlobalPool().RunChunks(shards, [&](size_t d) {
    ReceiveShard(d, shards, bounds, grid, block_dests, block_ids, offsets + 1,
                 arena);
  });
  return result;
}

ExchangeResult RunExchange(const Graph& g, const ExchangeOptions& options) {
  return ResumeExchange(g, StartExchange(g, options.metrics), options);
}

ProtocolResult FinalizeProtocol(const ExchangeResult& exchange,
                                ReportingProtocol protocol, uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  ProtocolResult out;
  out.rounds = exchange.rounds;
  out.payloads = exchange.payloads;
  const ReportStore& store = exchange.holdings;
  const PayloadArena& arena = *exchange.payloads;
  out.server_inbox.reserve(store.num_users());

  for (NodeId u = 0; u < store.num_users(); ++u) {
    const ReportSpan held = store.reports(u);
    if (held.empty()) {
      ++out.dummy_reports;
      continue;
    }
    if (protocol == ReportingProtocol::kAll) {
      for (const ReportId id : held) {
        out.server_inbox.push_back(FinalReport{id, arena.origin(id), u});
      }
    } else {
      const ReportId id = held[rng.UniformInt(held.size())];
      out.server_inbox.push_back(FinalReport{id, arena.origin(id), u});
      out.dropped_reports += held.size() - 1;
    }
  }
  return out;
}

}  // namespace netshuffle
