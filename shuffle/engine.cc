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
// Kept out of line: inlined into WalkBlock, it costs the fault-free loop
// registers (GCC 12 spills the block count to the stack).
__attribute__((noinline)) bool Hops(const Graph& g,
                                    const ExchangeOptions& options, NodeId v,
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

// One sort of report ids [0, total) into the per-user CSR by a column of
// users (DESIGN.md §4c): the exchange sorts by the holder column, injection
// by the origin column.  Shard c partitions the contiguous report-id range
// [first_report(c), first_report(c + 1)) and receives the contiguous user
// range [bounds[c], bounds[c + 1]).  The shard count only affects
// scheduling: every slice is filled in ascending report id (ReceiveShard),
// so the CSR is bit-identical for any thread count (including 1).  The
// user bounds come from ShardOf's map: shard c starts at the first user v
// with (v * mul) >> 32 >= c.
class ExchangeSort {
 public:
  // n > 0 users, `total` reports.  Every resize target depends only on
  // (n, total, shards), so for a fixed session the workspace settles at the
  // first call and incremental Step(1) loops re-enter allocation-free
  // (pinned by tests/test_session_incremental.cc):
  //   block_ids/dests — the per-destination-shard (id, user) blocks, the
  //                     user overwritten by the claimed slot;
  //   grid            — the block starts, one row per source shard;
  //   bounds          — the destination shards' user bounds.
  ExchangeSort(ExchangeWorkspace* ws, size_t n, uint32_t total)
      : ws_(*ws),
        total_(total),
        shards_(std::min(
            {std::max<size_t>(ThreadCount(), 1), n, kMaxRoutingShards})),
        mul_((uint64_t{shards_} << 32) / n) {
    ws_.block_ids_.resize(total);
    ws_.block_dests_.resize(total);
    ws_.bounds_.resize(shards_ + 1);
    ws_.grid_.resize(shards_ * (shards_ + 1));
    for (size_t c = 0; c <= shards_; ++c) {
      ws_.bounds_[c] =
          std::min<size_t>(n, ((uint64_t{c} << 32) + mul_ - 1) / mul_);
    }
  }

  size_t shards() const { return shards_; }
  const size_t* bounds() const { return ws_.bounds_.data(); }
  uint32_t first_report(size_t c) const {
    // ns-lint: allow(narrow32): c <= shards, so the quotient is <= total,
    // itself a uint32.
    return static_cast<uint32_t>(uint64_t{total_} * c / shards_);
  }

  // Source shard c's partition of its reports by column[r]'s destination
  // shard.  Every column entry in the shard's range must be < n.
  void Partition(size_t c, const NodeId* column) {
    PartitionShard(first_report(c), first_report(c + 1), shards_, mul_,
                   column, ws_.grid_.data() + c * (shards_ + 1),
                   ws_.block_ids_.data(), ws_.block_dests_.data());
  }

  // Destination phase, after every source shard's Partition (parallel over
  // shards): each shard histograms, prefixes and scatters the blocks
  // addressed to it, writing its users' CSR offsets and slices — disjoint
  // between shards (ReceiveShard).  The CSR is a function of the column
  // alone, so it is rebuilt in place: nothing reads the previous one.
  // then(d) runs in the same chunk, once shard d's slices are placed.
  template <typename Then>
  void Receive(ReportStore* store, const Then& then) {
    uint32_t* offsets = store->mutable_offsets();
    ReportId* arena = store->mutable_arena();
    offsets[0] = 0;
    GlobalPool().RunChunks(shards_, [&](size_t d) {
      ReceiveShard(d, shards_, ws_.bounds_.data(), ws_.grid_.data(),
                   ws_.block_dests_.data(), ws_.block_ids_.data(),
                   offsets + 1, arena);
      then(d);
    });
  }

 private:
  ExchangeWorkspace& ws_;
  uint32_t total_;
  size_t shards_;
  uint64_t mul_;
};

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

ExchangeResult StartExchange(const Graph& g) {
  const size_t n = g.num_nodes();
  ExchangeResult result;
  result.holdings.InitOnePerUser(n);
  result.payloads =
      std::make_shared<const PayloadArena>(PayloadArena::Identity(n));
  return result;
}

Expected<ExchangeResult> SealAndInject(size_t n, PayloadArena* payloads,
                                       ExchangeWorkspace* workspace) {
  const Expected<const NodeId*> column = payloads->Origins();
  if (!column.ok()) return column.status();
  // A violation found below is reported by the arena's own check, which
  // names it the same way whichever seal found it.
  if (payloads->num_reports() != n) return payloads->ValidateOnePerUser(n);
  const NodeId* origins = column.value();
  std::optional<ExchangeWorkspace> call_scratch;
  if (workspace == nullptr) workspace = &call_scratch.emplace();

  ExchangeResult result;
  ReportStore& store = result.holdings;
  store.AllocateFor(n, n);
  store.mutable_offsets()[0] = 0;
  if (n != 0) {
    ExchangeSort sort(workspace, n, CheckedNarrow32(n, "report count"));
    std::vector<uint8_t> bad(sort.shards(), 0);
    // Source phase: a shard with an origin out of range stops before
    // partitioning (ShardOf needs origins < n).
    GlobalPool().RunChunks(sort.shards(), [&](size_t c) {
      const uint32_t end = sort.first_report(c + 1);
      for (uint32_t r = sort.first_report(c); r < end; ++r) {
        if (origins[r] >= n) {
          bad[c] = 1;
          return;
        }
      }
      sort.Partition(c, origins);
    });
    if (std::count(bad.begin(), bad.end(), 1) != 0) {
      return payloads->ValidateOnePerUser(n);
    }
    // Destination phase: n in-range reports, so a duplicated origin leaves
    // another user without one.  Either shows as a load != 1 in the
    // receiving shard: loads are all 1 iff every offset is the identity.
    // Each shard reads only the offsets it wrote.
    const uint32_t* offsets = store.offsets_data();
    sort.Receive(&store, [&](size_t d) {
      const size_t end = sort.bounds()[d + 1];
      for (size_t v = sort.bounds()[d]; v < end; ++v) {
        if (offsets[v + 1] != v + 1) {
          bad[d] = 1;
          return;
        }
      }
    });
    if (std::count(bad.begin(), bad.end(), 1) != 0) {
      return payloads->ValidateOnePerUser(n);
    }
  }

  payloads->Freeze();
  result.payloads = std::make_shared<const PayloadArena>(std::move(*payloads));
  return result;
}

ExchangeResult StartExchange(const Graph& g, PayloadArena payloads) {
  Expected<ExchangeResult> injected = SealAndInject(g.num_nodes(), &payloads);
  if (!injected.ok()) {
    NETSHUFFLE_FATAL("StartExchange: " + injected.status().ToString());
  }
  return std::move(injected).value();
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
  ExchangeSort sort(workspace, n, total);
  const size_t shards = sort.shards();
  const size_t* bounds = sort.bounds();

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

  // Every coin comes from a per-(round, report) stream, so the walk, like
  // the sort, is bit-identical at any shard count.
  const uint64_t report_seed = ReportWalkSeed(options.seed);
  // Source phase (parallel over shards): every report of the shard walks
  // all of this call's rounds, block by block, then the shard partitions
  // its reports by destination shard.  The block schedule measured 10-18%
  // faster than a pass per round at 4 threads (DESIGN.md §4e).
  GlobalPool().RunChunks(shards, [&](size_t c) {
    const uint32_t end = sort.first_report(c + 1);
    for (uint32_t b = sort.first_report(c); b < end; b += kWalkBlock) {
      WalkBlock(g, options, report_seed, t_begin, t_end, b,
                std::min(kWalkBlock, end - b), holder);
    }
    sort.Partition(c, holder);
  });
  sort.Receive(&store, [](size_t) {});
  return result;
}

ExchangeResult RunExchange(const Graph& g, const ExchangeOptions& options) {
  return ResumeExchange(g, StartExchange(g), options);
}

ExchangeResult ObserveEachRound(const Graph& g, ExchangeResult state,
                                const ExchangeOptions& options,
                                const RoundObserver& observe,
                                ExchangeWorkspace* workspace) {
  ExchangeOptions one = options;
  one.rounds = 1;
  std::vector<NodeId> before;
  for (size_t i = 0; i < options.rounds; ++i) {
    // The holdings name every report's holder, also where the holder column
    // is not built yet (a fresh injection).
    before.resize(state.holdings.num_reports());
    for (NodeId v = 0; v < state.holdings.num_users(); ++v) {
      for (const ReportId r : state.holdings.reports(v)) before[r] = v;
    }
    state = ResumeExchange(g, std::move(state), one, workspace);
    observe(before, state.holders);
  }
  return state;
}

ExchangeResult RunCountedExchange(const Graph& g,
                                  const ExchangeOptions& options,
                                  ShuffleMetrics* metrics) {
  const Status valid = ValidateExchangeOptions(options);
  if (!valid.ok()) NETSHUFFLE_FATAL(valid.ToString());
  const size_t n = g.num_nodes();
  // Injection hands every user its own report.
  for (NodeId v = 0; v < n; ++v) metrics->ObserveUserHoldings(v, 1);
  std::vector<uint32_t> load(n);
  const auto count = [&](const std::vector<NodeId>& before,
                         const std::vector<NodeId>& after) {
    std::fill(load.begin(), load.end(), 0u);
    for (size_t r = 0; r < after.size(); ++r) {
      if (before[r] != after[r]) metrics->AddUserTraffic(before[r], 1);
      ++load[after[r]];
    }
    for (NodeId v = 0; v < n; ++v) metrics->ObserveUserHoldings(v, load[v]);
  };
  ExchangeWorkspace workspace;
  return ObserveEachRound(g, StartExchange(g), options, count, &workspace);
}

ProtocolResult FinalizeProtocol(const ExchangeResult& exchange,
                                ReportingProtocol protocol, uint64_t seed) {
  ProtocolResult out;
  out.rounds = exchange.rounds;
  out.payloads = exchange.payloads;
  const ReportStore& store = exchange.holdings;
  const size_t users = store.num_users();
  const uint32_t* offsets = store.offsets_data();
  const ReportId* ids = store.arena_data();
  const NodeId* origins = exchange.payloads->Origins().value();

  if (protocol == ReportingProtocol::kAll) {
    // Every user submits its whole slice in user order, so the report in
    // CSR slot i lands at inbox[i]: user blocks fill disjoint inbox ranges,
    // and each returns its count of empty holders (exact as a double).
    out.server_inbox.resize(store.num_reports());
    FinalReport* inbox = out.server_inbox.data();
    out.dummy_reports = static_cast<size_t>(
        ParallelBlockSum(users, [&](size_t begin, size_t end) {
          size_t empty = 0;
          for (size_t u = begin; u < end; ++u) {
            empty += offsets[u] == offsets[u + 1] ? 1 : 0;
            for (uint32_t i = offsets[u]; i < offsets[u + 1]; ++i) {
              inbox[i] =
                  FinalReport{ids[i], origins[ids[i]], static_cast<NodeId>(u)};
            }
          }
          return static_cast<double>(empty);
        }));
    return out;
  }

  // kSingle: one serial stream, one draw per non-empty holder in user order.
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  out.server_inbox.reserve(users);
  for (NodeId u = 0; u < users; ++u) {
    const uint32_t held = offsets[u + 1] - offsets[u];
    if (held == 0) {
      ++out.dummy_reports;
      continue;
    }
    const ReportId id = ids[offsets[u] + rng.UniformInt(held)];
    out.server_inbox.push_back(FinalReport{id, origins[id], u});
    out.dropped_reports += held - 1;
  }
  return out;
}

}  // namespace netshuffle
