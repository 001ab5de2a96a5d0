#include "shuffle/engine.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/parallel.h"
#include "util/rng.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define NETSHUFFLE_ENGINE_AVX512 1
#include <immintrin.h>
#endif

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
// scheduling-only (results are bit-identical at any value).  A round keeps
// shards x shards blocks, and each destination shard walks all of its
// source blocks, so the cap keeps the blocks from thinning out to a few
// reports each (and the partition's per-destination cursors on the stack)
// even under extreme NS_THREADS settings.
constexpr size_t kMaxRoutingShards = 32;

// A user's routing shard: (v * mul) >> 32, with
// mul = floor(shards * 2^32 / n) — a multiply and a shift per report, where
// a division would dominate the partition loop.  ResumeExchange derives the
// shard bounds from this same map, so the shard a report is routed to
// always owns its destination.
inline size_t ShardOf(uint32_t v, uint64_t mul) {
  return (uint64_t{v} * mul) >> 32;
}

// Holders per hop tile (DESIGN.md §4e): each shard processes this many
// holders' coins before mapping them to destinations, so the coin column,
// the address column, and the matching dest slice stay cache-resident
// between the fill / map / dereference sub-passes (at stationarity the mean
// holding is ~1 report, so a tile is a few tens of KB; skewed holdings —
// a hub on a star-like graph — just grow the per-report columns to fit).
// Tiling is scheduling-only and never splits one user's draw sequence
// across fills.
constexpr uint32_t kCoinTile = 4096;

// Software-prefetch lookahead for the dependent random accesses (scatter
// cursor claims and arena placements).  The tables are O(n) and miss L1/L2
// at the million-user scale; ~40 slots of lookahead hides most of the miss
// latency at these loop costs without thrashing the prefetch queues (16-64
// measure within noise of each other; shorter distances leave latency
// exposed).
constexpr uint32_t kPrefetchAhead = 40;

// Dereference the per-tile neighbor addresses into the dest column — the
// only pass of the hop that touches random adjacency lines.  The AVX-512
// body gathers 8 lines per instruction, widening the out-of-order miss
// window far beyond what the scalar loop's speculation reaches.  The
// loop does nothing else: histogramming the destinations here as well
// measured no faster than ReceiveShard's separate pass, even at one shard
// (DESIGN.md §4e).  Bit-identical to the scalar tail by construction.
#if NETSHUFFLE_ENGINE_AVX512
__attribute__((target("avx512f"))) void DerefAvx512(
    const NodeId* const* addrs, uint32_t base, uint32_t end_off,
    uint32_t* dests) {
  uint32_t i = base;
  for (; i + 8 <= end_off; i += 8) {
    const __m512i a = _mm512_loadu_si512(addrs + (i - base));
    const __m256i d8 = _mm512_i64gather_epi32(a, nullptr, 1);
    // ns-lint: allow(wire): SIMD register store into the local uint32 dest
    // column — an intrinsic-mandated pointer cast, nothing serialized
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dests + i), d8);
  }
  for (; i < end_off; ++i) dests[i] = *addrs[i - base];
}
#endif  // NETSHUFFLE_ENGINE_AVX512

void Deref(const NodeId* const* addrs, uint32_t base, uint32_t end_off,
           uint32_t* dests) {
#if NETSHUFFLE_ENGINE_AVX512
  static const bool kHasAvx512 = __builtin_cpu_supports("avx512f");
  if (kHasAvx512) {
    DerefAvx512(addrs, base, end_off, dests);
    return;
  }
#endif
  for (uint32_t i = base; i < end_off; ++i) dests[i] = *addrs[i - base];
}

// Fault-path hop for one shard's holder slice: Awake consumes an unknowable
// number of words from the per-(seed, round, user) stream before the
// destination draws, so each holder's stream runs through a real Rng and
// the destinations are drawn scalar — same words, same order, as the
// fast path below would consume from its batch-filled coin column.
// Availability is an exceptional regime; this path is kept simple rather
// than fast.
void FaultHopShard(const Graph& g, const ExchangeOptions& options,
                   size_t round, size_t h_begin, size_t h_end,
                   const uint32_t* holder_v, const uint32_t* holder_b,
                   uint32_t* dests,
                   std::vector<std::pair<NodeId, uint64_t>>* traffic) {
  for (size_t h = h_begin; h < h_end; ++h) {
    const NodeId v = holder_v[h];
    const uint32_t b = holder_b[h], e = holder_b[h + 1];
    Rng rng(ExchangeStreamSeed(options.seed, round, v));
    const bool is_awake = options.faults->Awake(v, round, &rng);
    const size_t deg = g.degree(v);
    if (!is_awake || deg == 0) {
      // Asleep or isolated: every held report stays put, no draws.
      for (uint32_t i = b; i < e; ++i) dests[i] = v;
      continue;
    }
    const NodeId* nbr = g.neighbors_begin(v);
    for (uint32_t i = b; i < e; ++i) dests[i] = nbr[rng.UniformInt(deg)];
    if (options.metrics != nullptr) {
      traffic->emplace_back(v, static_cast<uint64_t>(e - b));
    }
  }
}

// One source shard's hop pass for one round, over its segment of the
// round's holder list (its users with at least one held report, in
// ascending user order — built branchlessly by the destination pass; see
// ReceiveShard).  Tile by tile over holders:
//   A1. stream seeds + first words for every holder in the tile, as one
//       flat batch (util/rng.h BatchStreamSeeds — AVX-512 when available);
//   A2. branch-free pack: every holder's first word lands at its first coin
//       slot unconditionally; holders with more than one report are
//       compacted into a (typically near-empty) side list;
//   A3. those multi-holders expand their full streams over their coin runs
//       (Xoshiro256 continuation, bit-identical to sequential draws);
//   B1. map coins to neighbor ADDRESSES per degree class — a pure shift for
//       power-of-two degrees, the multiply-shift MapToBound otherwise — and
//       software-prefetch each address; isolated users' slots point at the
//       holder id itself (stay-in-place, no draw);
//   B2. dereference the addresses into destinations (Deref above).
// The coin schedule and the per-slice draw order are exactly the scalar
// engine's, so determinism is untouched (DESIGN.md §4e; pinned by
// tests/test_kernel_differential.cc).  streams/firsts/multi hold kCoinTile
// entries, and the coin and address tiles grow on demand.
void HopShard(const Graph& g, const ExchangeOptions& options, size_t round,
              size_t h_begin, size_t h_end, const uint32_t* holder_v,
              const uint32_t* holder_b, uint32_t* dests, uint64_t* streams,
              uint64_t* firsts,
              uint32_t* multi, std::vector<uint64_t>* coin_buf,
              std::vector<const NodeId*>* addr_buf,
              std::vector<std::pair<NodeId, uint64_t>>* traffic) {
  traffic->clear();

  if (options.faults != nullptr) {
    FaultHopShard(g, options, round, h_begin, h_end, holder_v, holder_b,
                  dests, traffic);
    return;
  }

  size_t h0 = h_begin;
  while (h0 < h_end) {
    // Tile boundary: a fixed holder count, so no boundary scan is needed.
    // The tile's report span is usually a small multiple of the holder
    // count (mean holding is ~1 at stationarity); skewed holdings just grow
    // the per-report columns to fit.
    const uint32_t base = holder_b[h0];
    const size_t h1 = std::min(h0 + kCoinTile, h_end);
    const uint32_t end_off = holder_b[h1];
    if (coin_buf->size() < end_off - base) {
      coin_buf->resize(std::max<size_t>(end_off - base, kCoinTile));
      addr_buf->resize(coin_buf->size());
    }
    uint64_t* const coins = coin_buf->data();
    const NodeId** const addrs = addr_buf->data();

    // ---- A1: stream seeds + first words, one flat batch.
    BatchStreamSeeds(holder_v + h0, h1 - h0, options.seed, round, streams,
                     firsts);

    // ---- A2: branch-free pack + multi-holder compaction.  Writing the
    // first word unconditionally is correct for every holder (it IS the
    // first draw); multi-holders just overwrite their run in A3.
    size_t m = 0;
    for (size_t h = h0; h < h1; ++h) {
      const uint32_t b = holder_b[h], e = holder_b[h + 1];
      coins[b - base] = firsts[h - h0];
      // ns-lint: allow(narrow32): hot kernel; h - h0 < the holder count,
      // itself <= the user count narrowed at store allocation.
      multi[m] = static_cast<uint32_t>(h - h0);
      m += (e - b > 1) ? 1 : 0;
    }

    // ---- A3: expand multi-holders' streams over their coin runs.
    for (size_t j = 0; j < m; ++j) {
      const size_t h = h0 + multi[j];
      const uint32_t b = holder_b[h], e = holder_b[h + 1];
      Xoshiro256 x = Xoshiro256::Seeded(streams[multi[j]]);
      for (uint32_t i = b; i < e; ++i) coins[i - base] = x.Next();
    }

    // ---- B1: map coins to neighbor addresses, one degree class per
    // holder, prefetching each address so the B2 dereference hits.
    for (size_t h = h0; h < h1; ++h) {
      const NodeId v = holder_v[h];
      const uint32_t b = holder_b[h], e = holder_b[h + 1];
      const size_t deg = g.degree(v);
      if (deg == 0) {
        // Isolated: keeps its reports, draws none.  Its slots point at the
        // holder-list entry itself, so B2's dereference yields v — the
        // stay-in-place destination — with no special case.
        for (uint32_t i = b; i < e; ++i) addrs[i - base] = holder_v + h;
        continue;
      }
      const NodeId* nbr = g.neighbors_begin(v);
      if (deg >= 2 && (deg & (deg - 1)) == 0) {
        // 2^k neighbors: MapToBound(x, 2^k) == x >> (64 - k), bit-exactly.
        const int shift = 64 - __builtin_ctzll(deg);
        for (uint32_t i = b; i < e; ++i) {
          const NodeId* a = nbr + (coins[i - base] >> shift);
          addrs[i - base] = a;
          __builtin_prefetch(a, 0, 1);
        }
      } else {
        for (uint32_t i = b; i < e; ++i) {
          const NodeId* a = nbr + MapToBound(coins[i - base], deg);
          addrs[i - base] = a;
          __builtin_prefetch(a, 0, 1);
        }
      }
      if (options.metrics != nullptr) {
        traffic->emplace_back(v, static_cast<uint64_t>(e - b));
      }
    }

    // ---- B2: dereference.
    Deref(addrs, base, end_off, dests);

    h0 = h1;
  }
}

// Writes one shard's first holder-list segment from the incoming store's
// CSR offsets: users [u_begin, u_end) holding at least one report, from
// index h, then the sentinel whose run start is the shard's arena end.
// Branch-free: the candidate entry is written unconditionally and the
// length advances only for holders.  Returns the sentinel's index.  Later
// rounds' segments come out of ReceiveShard's prefix for free.
size_t BuildHolderSegment(const uint32_t* offsets, size_t u_begin,
                          size_t u_end, size_t h, uint32_t* holder_v,
                          uint32_t* holder_b) {
  for (size_t v = u_begin; v < u_end; ++v) {
    // ns-lint: allow(narrow32): hot kernel; v < n and n/total passed
    // CheckedNarrow32 when the store's offset columns were allocated.
    holder_v[h] = static_cast<uint32_t>(v);
    holder_b[h] = offsets[v];
    h += (offsets[v + 1] > offsets[v]) ? 1 : 0;
  }
  // ns-lint: allow(narrow32): sentinel; u_end <= n, narrowed as above.
  holder_v[h] = static_cast<uint32_t>(u_end);
  holder_b[h] = offsets[u_end];
  return h;
}

// One source shard's partition, right after its hop: counts its reports
// per destination shard, lays one block per destination shard over its own
// arena range [begin, end) in destination-shard order (row[d] = block d's
// start, row[shards] = end), then copies each (id, destination) into its
// block in arena order.  Only rounds with more than one shard partition;
// the one-shard round's only block is the source range itself.
void PartitionShard(uint32_t begin, uint32_t end, size_t shards, uint64_t mul,
                    const uint32_t* dests, const ReportId* arena,
                    uint32_t* row, ReportId* block_ids,
                    uint32_t* block_dests) {
  uint32_t cursor[kMaxRoutingShards] = {};
  for (uint32_t i = begin; i < end; ++i) ++cursor[ShardOf(dests[i], mul)];
  uint32_t run = begin;
  for (size_t d = 0; d < shards; ++d) {
    row[d] = run;
    run += cursor[d];
    cursor[d] = row[d];
  }
  row[shards] = end;
  for (uint32_t i = begin; i < end; ++i) {
    const uint32_t pos = cursor[ShardOf(dests[i], mul)]++;
    block_ids[pos] = arena[i];
    block_dests[pos] = dests[i];
  }
}

// Claim every report's slot in [begin, end) from the cursor column (random
// read-modify-write, prefetched; the claimed slot overwrites the dest
// column in place), then place the ids at the claimed slots (random write,
// prefetched).  Splitting claim from placement is what makes the placement
// address known kPrefetchAhead iterations early — the scalar engine's fused
// cursor[dests[i]]++ write had nothing to prefetch.  Slot assignment is
// identical either way.  The cursor must already hold each destination's
// next free slot (ReceiveShard's prefix).
void ScatterShard(uint32_t* cursor, uint32_t begin, uint32_t end,
                  uint32_t* dests, const ReportId* arena,
                  ReportId* next_arena) {
  for (uint32_t tile = begin; tile < end; tile += kCoinTile) {
    const uint32_t tile_end = std::min(end, tile + kCoinTile);
    for (uint32_t i = tile; i < tile_end; ++i) {
      if (i + kPrefetchAhead < tile_end) {
        __builtin_prefetch(cursor + dests[i + kPrefetchAhead], 1, 1);
      }
      dests[i] = cursor[dests[i]]++;
    }
    for (uint32_t i = tile; i < tile_end; ++i) {
      if (i + kPrefetchAhead < tile_end) {
        __builtin_prefetch(next_arena + dests[i + kPrefetchAhead], 1, 0);
      }
      next_arena[dests[i]] = arena[i];
    }
  }
}

// One destination shard's pass, after every source shard's hop and
// partition: it owns users [bounds[d], bounds[d + 1]) and block d of every
// source's grid row.  It visits those blocks in ascending source order,
// each in arena order — ascending sender order, so every slice it fills
// comes out exactly as the one-shard round's.
//   1. Histogram its users' loads into cursor[v].
//   2. Prefix from the count of reports bound for lower shards: each load
//      becomes its slice start, and each user with a nonzero load is
//      appended (branch-free) to the shard's next holder-list segment.
//   3. Claim and place every block's ids (ScatterShard).
// cursor is next_offsets + 1, so once placed cursor[v] has advanced to
// exactly the next CSR offset of v + 1.  Returns the segment's sentinel
// index.
size_t ReceiveShard(size_t d, size_t shards, const size_t* bounds,
                    const uint32_t* grid, uint32_t* block_dests,
                    const ReportId* block_ids, uint32_t* cursor,
                    ReportId* next_arena, uint32_t* holder_v,
                    uint32_t* holder_b) {
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

  size_t h = u_begin + d;
  for (size_t v = u_begin; v < u_end; ++v) {
    const uint32_t load = cursor[v];
    // ns-lint: allow(narrow32): hot kernel; v < n, narrowed at store
    // allocation.
    holder_v[h] = static_cast<uint32_t>(v);
    holder_b[h] = run;
    cursor[v] = run;
    run += load;
    h += (load > 0) ? 1 : 0;
  }
  // ns-lint: allow(narrow32): sentinel; u_end <= n, narrowed as above.
  holder_v[h] = static_cast<uint32_t>(u_end);
  holder_b[h] = run;

  for (size_t c = 0; c < shards; ++c) {
    ScatterShard(cursor, grid[c * row + d], grid[c * row + d + 1],
                 block_dests, block_ids, next_arena);
  }
  return h;
}

}  // namespace

size_t ExchangeWorkspace::MemoryBytes() const {
  size_t bytes = next_.MemoryBytes() +
                 dests_.capacity() * sizeof(uint32_t) +
                 block_ids_.capacity() * sizeof(ReportId) +
                 block_dests_.capacity() * sizeof(uint32_t) +
                 grid_.capacity() * sizeof(uint32_t) +
                 holder_v_.capacity() * sizeof(uint32_t) +
                 holder_b_.capacity() * sizeof(uint32_t) +
                 segment_end_.capacity() * sizeof(size_t) +
                 bounds_.capacity() * sizeof(size_t);
  for (const auto& t : coins_) bytes += t.capacity() * sizeof(uint64_t);
  for (const auto& t : addrs_) bytes += t.capacity() * sizeof(const NodeId*);
  for (const auto& t : streams_) bytes += t.capacity() * sizeof(uint64_t);
  for (const auto& t : firsts_) bytes += t.capacity() * sizeof(uint64_t);
  for (const auto& t : multi_) bytes += t.capacity() * sizeof(uint32_t);
  for (const auto& t : traffic_) {
    bytes += t.capacity() * sizeof(std::pair<NodeId, uint64_t>);
  }
  return bytes;
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
  const size_t prior_rounds = result.rounds;
  result.rounds += options.rounds;
  if (n == 0) return result;

  ReportStore& store = result.holdings;
  const size_t total = store.num_reports();

  // Users are sharded into contiguous ranges, one shard per pool slot; a
  // shard is both a source (its users' hops) and a destination (its users'
  // incoming slices).  The shard count only affects scheduling: every RNG
  // draw comes from a per-(round, user) stream, and every destination slice
  // is filled in ascending sender order (ReceiveShard), so the holdings are
  // bit-identical for any thread count (including 1).  The bounds come from
  // ShardOf's map: shard c starts at the first user v with
  // (v * mul) >> 32 >= c.
  const size_t shards = std::min(
      {std::max<size_t>(ThreadCount(), 1), n, kMaxRoutingShards});
  const uint64_t mul = (uint64_t{shards} << 32) / n;

  // Size the reusable scratch.  Every resize target depends only on
  // (n, total, shards) — the coin/address tiles additionally grow to the
  // largest single holding seen — so for a fixed session this settles after
  // the first rounds and incremental Step(1) loops re-enter allocation-free
  // (pinned by tests/test_session_incremental.cc):
  //   next          — the double-buffer partner each round scatters into;
  //   dests         — per arena slot, this round's destination, then (in
  //                   the one-shard scatter) the claimed slot;
  //   block_ids/dests — the per-destination-shard blocks (not needed by
  //                   the one-shard round, whose block is the arena);
  //   grid          — the block starts, one row per source shard;
  //   holder_v/b    — the round's holder list, one segment per shard — what
  //                   lets the hop kernels iterate holders with no
  //                   empty-user branches;
  //   segment_end   — each segment's sentinel index;
  //   streams/firsts/multi/coins/addrs — per-shard hop-tile columns;
  //   traffic       — per-shard (user, sends) counters, merged into the
  //                   shared ShuffleMetrics at round end instead of racing
  //                   on it.
  ExchangeWorkspace& ws = *workspace;
  ws.next_.AllocateFor(n, total);
  ws.dests_.resize(total);
  if (shards > 1) {
    ws.block_ids_.resize(total);
    ws.block_dests_.resize(total);
  }
  ws.bounds_.resize(shards + 1);
  ws.grid_.resize(shards * (shards + 1));
  ws.segment_end_.resize(shards);
  ws.holder_v_.resize(n + shards);
  ws.holder_b_.resize(n + shards);
  ws.coins_.resize(shards);
  ws.addrs_.resize(shards);
  ws.streams_.resize(shards);
  ws.firsts_.resize(shards);
  ws.multi_.resize(shards);
  for (size_t c = 0; c < shards; ++c) {
    // A hop tile holds at most kCoinTile holders (each holder holds at
    // least one report), so the per-holder side buffers have a fixed bound;
    // coins_/addrs_ are per-report and grow inside HopShard if a single
    // holding outgrows the tile budget.
    ws.streams_[c].resize(kCoinTile);
    ws.firsts_[c].resize(kCoinTile);
    ws.multi_[c].resize(kCoinTile);
  }
  ws.traffic_.resize(shards);
  for (size_t c = 0; c <= shards; ++c) {
    ws.bounds_[c] = std::min<size_t>(n, ((uint64_t{c} << 32) + mul - 1) / mul);
  }
  const size_t* bounds = ws.bounds_.data();
  uint32_t* dests = ws.dests_.data();
  uint32_t* grid = ws.grid_.data();
  uint32_t* block_dests = shards > 1 ? ws.block_dests_.data() : dests;
  uint32_t* holder_v = ws.holder_v_.data();
  uint32_t* holder_b = ws.holder_b_.data();
  if (shards == 1) {
    // The one-shard round's only block is the whole arena.
    grid[0] = 0;
    grid[1] = CheckedNarrow32(total, "exchange report count");
  }

  for (size_t step = 0; step < options.rounds; ++step) {
    // The absolute round index keys the RNG streams, so resumed chunks draw
    // exactly the coins the one-shot schedule would.
    const size_t round = prior_rounds + step;
    const uint32_t* offsets = store.offsets_data();
    const ReportId* arena = store.arena_data();
    uint32_t* next_offsets = ws.next_.mutable_offsets();
    ReportId* next_arena = ws.next_.mutable_arena();

    // Source phase (parallel over shards): batched coin fill, degree-class
    // address mapping and the destination gather (HopShard, DESIGN.md
    // §4e), then the partition into per-destination blocks.  The first
    // round builds its holder segment from the incoming store here; later
    // rounds reuse the one the previous round's destination pass wrote.
    // The one-shard round skips the partition: its only block is the
    // arena itself.
    GlobalPool().RunChunks(shards, [&](size_t c) {
      if (step == 0) {
        ws.segment_end_[c] = BuildHolderSegment(
            offsets, bounds[c], bounds[c + 1], bounds[c] + c, holder_v,
            holder_b);
      }
      HopShard(g, options, round, bounds[c] + c, ws.segment_end_[c], holder_v,
               holder_b, dests, ws.streams_[c].data(), ws.firsts_[c].data(),
               ws.multi_[c].data(), &ws.coins_[c], &ws.addrs_[c],
               &ws.traffic_[c]);
      if (shards > 1) {
        PartitionShard(offsets[bounds[c]], offsets[bounds[c + 1]], shards, mul,
                       dests, arena, grid + c * (shards + 1),
                       ws.block_ids_.data(), block_dests);
      }
    });

    // Destination phase (parallel over shards): each shard histograms,
    // prefixes and scatters the blocks addressed to it, writing its users'
    // next CSR offsets, its slices of the next arena and its next holder
    // segment — all disjoint between shards (ReceiveShard above).  The
    // 4-byte ids are all that moves (DESIGN.md §4d).
    next_offsets[0] = 0;
    const ReportId* block_ids = shards > 1 ? ws.block_ids_.data() : arena;
    GlobalPool().RunChunks(shards, [&](size_t d) {
      ws.segment_end_[d] =
          ReceiveShard(d, shards, bounds, grid, block_dests, block_ids,
                       next_offsets + 1, next_arena, holder_v, holder_b);
    });
    store.SwapWith(&ws.next_);

    // Metrics merge, on the coordinating thread, in shard order.
    if (options.metrics != nullptr) {
      for (size_t c = 0; c < shards; ++c) {
        for (const auto& t : ws.traffic_[c]) {
          options.metrics->AddUserTraffic(t.first, t.second);
        }
      }
      for (NodeId u = 0; u < n; ++u) {
        options.metrics->ObserveUserHoldings(u, store.count(u));
      }
    }
  }
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
