#include "shuffle/engine.h"

#include <algorithm>
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
// scheduling-only (results are bit-identical at any value), but each shard
// owns a full n-entry row of the counting table, so the cap bounds that
// table at 128 bytes/user even under extreme NS_THREADS settings.
constexpr size_t kMaxRoutingShards = 32;

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

// Dereference the per-tile neighbor addresses into the dest column and
// histogram them into the shard's counting row — the only pass of the hop
// that touches random adjacency lines.  The AVX-512 body gathers 8 lines
// per instruction, widening the out-of-order miss window far beyond what
// the scalar loop's speculation reaches; the histogram increments then hit
// in registers/L1.  Bit-identical to the scalar tail by construction.
#if NETSHUFFLE_ENGINE_AVX512
__attribute__((target("avx512f"))) void DerefHistAvx512(
    const NodeId* const* addrs, uint32_t base, uint32_t end_off,
    uint32_t* dests, uint32_t* count) {
  uint32_t i = base;
  for (; i + 8 <= end_off; i += 8) {
    const __m512i a = _mm512_loadu_si512(addrs + (i - base));
    const __m256i d8 = _mm512_i64gather_epi32(a, nullptr, 1);
    // ns-lint: allow(wire): SIMD register stores into local uint32 rows —
    // intrinsic-mandated pointer casts, nothing serialized
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dests + i), d8);
    alignas(32) uint32_t d[8];
    // ns-lint: allow(wire): intrinsic-mandated register-store cast (above)
    _mm256_store_si256(reinterpret_cast<__m256i*>(d), d8);
    for (int j = 0; j < 8; ++j) ++count[d[j]];
  }
  for (; i < end_off; ++i) {
    const uint32_t d = *addrs[i - base];
    dests[i] = d;
    ++count[d];
  }
}
#endif  // NETSHUFFLE_ENGINE_AVX512

void DerefHist(const NodeId* const* addrs, uint32_t base, uint32_t end_off,
               uint32_t* dests, uint32_t* count) {
#if NETSHUFFLE_ENGINE_AVX512
  static const bool kHasAvx512 = __builtin_cpu_supports("avx512f");
  if (kHasAvx512) {
    DerefHistAvx512(addrs, base, end_off, dests, count);
    return;
  }
#endif
  for (uint32_t i = base; i < end_off; ++i) {
    const uint32_t d = *addrs[i - base];
    dests[i] = d;
    ++count[d];
  }
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
                   uint32_t* count, uint32_t* dests,
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
      count[v] += e - b;
      continue;
    }
    const NodeId* nbr = g.neighbors_begin(v);
    for (uint32_t i = b; i < e; ++i) {
      const uint32_t d = nbr[rng.UniformInt(deg)];
      dests[i] = d;
      ++count[d];
    }
    if (options.metrics != nullptr) {
      traffic->emplace_back(v, static_cast<uint64_t>(e - b));
    }
  }
}

// One source shard's hop pass for one round, over its slice of the round's
// holder list (users with at least one held report, in ascending user
// order — built branchlessly by the prefix pass; see ResumeExchange).
// Tile by tile over holders:
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
//   B2. dereference the addresses into destinations and histogram them into
//       this shard's counting row (DerefHist above).
// The coin schedule and the per-slice draw order are exactly the scalar
// engine's, so determinism is untouched (DESIGN.md §4e; pinned by
// tests/test_kernel_differential.cc).  The shard's counting row is zeroed
// on entry; streams/firsts/multi hold kCoinTile entries, and the coin and
// address tiles grow on demand.
void HopShard(const Graph& g, const ExchangeOptions& options, size_t round,
              size_t h_begin, size_t h_end, const uint32_t* holder_v,
              const uint32_t* holder_b, uint32_t* count, size_t n,
              uint32_t* dests, uint64_t* streams, uint64_t* firsts,
              uint32_t* multi, std::vector<uint64_t>* coin_buf,
              std::vector<const NodeId*>* addr_buf,
              std::vector<std::pair<NodeId, uint64_t>>* traffic) {
  std::fill(count, count + n, 0u);
  traffic->clear();

  if (options.faults != nullptr) {
    FaultHopShard(g, options, round, h_begin, h_end, holder_v, holder_b,
                  count, dests, traffic);
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

    // ---- B2: dereference + histogram.
    DerefHist(addrs, base, end_off, dests, count);

    h0 = h1;
  }
}

// One source shard's scatter pass: claim every report's slot from the
// shard's cursor row (random read-modify-write, prefetched; the claimed
// slot overwrites the dest column in place), then place the ids at the
// claimed slots (random write, prefetched).  Splitting claim from placement
// is what makes the placement address known kPrefetchAhead iterations early
// — the scalar engine's fused cursor[dests[i]]++ write had nothing to
// prefetch.  Slot assignment is identical either way.  The cursor row must
// already hold each destination's first slot for this shard (the prefix
// pass).
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

}  // namespace

size_t ExchangeWorkspace::MemoryBytes() const {
  size_t bytes = next_.MemoryBytes() +
                 dests_.capacity() * sizeof(uint32_t) +
                 counts_.capacity() * sizeof(uint32_t) +
                 holder_v_.capacity() * sizeof(uint32_t) +
                 holder_b_.capacity() * sizeof(uint32_t) +
                 holder_start_.capacity() * sizeof(size_t) +
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
  // A file-backed arena puts the routing columns on the same backend: the
  // exchange over 10^7+ users keeps RAM for the graph and scratch, not the
  // population's state (DESIGN.md §9).
  if (std::shared_ptr<StorageBackend> backend = payloads.backend()) {
    store.Host(backend, "route");
  }
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
      // another injects none — a double eps0 spend the accountants cannot
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
                              const ExchangeOptions& options) {
  ExchangeWorkspace workspace;
  return ResumeExchange(g, std::move(prior), options, &workspace);
}

ExchangeResult ResumeExchange(const Graph& g, ExchangeResult prior,
                              const ExchangeOptions& options,
                              ExchangeWorkspace* workspace) {
  const Status valid = ValidateExchangeOptions(options);
  if (!valid.ok()) NETSHUFFLE_FATAL(valid.ToString());
  if (options.first_round != prior.rounds) {
    // A mismatched offset would draw coins from the wrong per-round streams
    // and silently diverge from the one-shot schedule.
    NETSHUFFLE_FATAL("ResumeExchange: options.first_round (" +
                     std::to_string(options.first_round) +
                     ") must equal the rounds already executed (" +
                     std::to_string(prior.rounds) + ")");
  }

  const size_t n = g.num_nodes();
  ExchangeResult result = std::move(prior);
  result.rounds += options.rounds;
  if (n == 0) return result;

  ReportStore& store = result.holdings;
  const size_t total = store.num_reports();

  // Keep the double-buffer partner on the live store's backend (both
  // directions: a reused workspace may arrive heap-backed for a hosted
  // exchange, or hosted — possibly on a DIFFERENT backend — for a heap or
  // re-hosted one).  Matched states cost one branch, so the in-RAM steady
  // state stays allocation-free.
  if (workspace->next_.hosted() &&
      workspace->next_.backend() != store.backend()) {
    workspace->next_.Unhost();
  }
  if (store.hosted() && !workspace->next_.hosted()) {
    workspace->next_.Host(store.backend(), "route");
  }

  // Users are sharded into contiguous ranges, one shard per pool slot.  The
  // shard count only affects scheduling: every RNG draw comes from a
  // per-(round, user) stream, and the counting-sort scatter below fills each
  // destination's slice in ascending (shard, sender) order — which for
  // contiguous ascending shards is just ascending sender order — so the
  // holdings are bit-identical for any thread count (including 1).
  const size_t shards = std::min(
      {std::max<size_t>(ThreadCount(), 1), n, kMaxRoutingShards});

  // Size the reusable scratch.  Every resize target depends only on
  // (n, total, shards) — the coin/address tiles additionally grow to the
  // largest single holding seen — so for a fixed session this settles after
  // the first rounds and incremental Step(1) loops re-enter allocation-free
  // (pinned by tests/test_session_incremental.cc):
  //   next          — the double-buffer partner each round scatters into;
  //   dests         — per arena slot, this round's destination, then (in
  //                   the scatter) the claimed slot;
  //   counts        — shards x n rows: per-destination loads, converted in
  //                   place into per-shard scatter cursors by the prefix
  //                   pass;
  //   holder_v/b    — the round's holder list: users with >= 1 held report
  //                   (ascending) and where their arena run begins, plus a
  //                   sentinel — what lets the hop kernels iterate holders
  //                   with no empty-user branches;
  //   holder_start  — each shard's slice of that list;
  //   streams/firsts/multi/coins/addrs — per-shard hop-tile columns;
  //   traffic       — per-shard (user, sends) counters, merged into the
  //                   shared ShuffleMetrics at round end instead of racing
  //                   on it.
  ExchangeWorkspace& ws = *workspace;
  ws.next_.AllocateFor(n, total);
  ws.dests_.resize(total);
  ws.counts_.resize(shards * n);
  ws.bounds_.resize(shards + 1);
  ws.holder_v_.resize(n + 1);
  ws.holder_b_.resize(n + 1);
  ws.holder_start_.resize(shards + 1);
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
  for (size_t c = 0; c <= shards; ++c) ws.bounds_[c] = c * n / shards;
  const size_t* bounds = ws.bounds_.data();
  uint32_t* dests = ws.dests_.data();
  uint32_t* holder_v = ws.holder_v_.data();
  uint32_t* holder_b = ws.holder_b_.data();

  // Build the first round's holder list from the incoming store (later
  // rounds rebuild it for free inside the prefix pass).  Branch-free: the
  // candidate entry is written unconditionally and the length advances only
  // for users that actually hold something.
  size_t num_holders = 0;
  {
    const uint32_t* offsets = store.offsets_data();
    for (size_t v = 0; v < n; ++v) {
      // ns-lint: allow(narrow32): hot kernel; v < n and n/total passed
      // CheckedNarrow32 when the store's offset columns were allocated.
      holder_v[num_holders] = static_cast<uint32_t>(v);
      holder_b[num_holders] = offsets[v];
      num_holders += (offsets[v + 1] > offsets[v]) ? 1 : 0;
    }
    // ns-lint: allow(narrow32): sentinel; same bound as the loop above.
    holder_v[num_holders] = static_cast<uint32_t>(n);  // sentinel
    // ns-lint: allow(narrow32): total fits the uint32 offset column.
    holder_b[num_holders] = static_cast<uint32_t>(total);
  }

  for (size_t step = 0; step < options.rounds; ++step) {
    // The absolute round index keys the RNG streams, so resumed chunks draw
    // exactly the coins the one-shot schedule would.
    const size_t round = options.first_round + step;
    const uint32_t* offsets = store.offsets_data();
    const ReportId* arena = store.arena_data();

    // Slice the holder list by the user-range shards (shard c's holders are
    // exactly those with user id in [bounds[c], bounds[c+1])), so every hop
    // shard still covers a contiguous arena range.
    for (size_t c = 0; c <= shards; ++c) {
      // ns-lint: allow(narrow32): shard bounds are user ids, <= n.
      ws.holder_start_[c] =
          std::lower_bound(holder_v, holder_v + num_holders,
                           static_cast<uint32_t>(bounds[c])) -
          holder_v;
    }

    // Out-of-core schedule (DESIGN.md §9): prefault each shard's source
    // slice before the hop walks it, one madvise(WILLNEED) per shard slice,
    // recorded in the backend's per-block touch accounting.  Heap stores:
    // one branch, nothing else.
    if (store.hosted()) {
      for (size_t c = 0; c < shards; ++c) {
        store.AdviseWillNeed(offsets[bounds[c]], offsets[bounds[c + 1]]);
      }
    }

    // Hop phase (parallel over source shards): batched coin fill, degree-
    // class address mapping, and per-shard destination histograms — see
    // HopShard above and DESIGN.md §4e.
    GlobalPool().RunChunks(shards, [&](size_t c) {
      HopShard(g, options, round, ws.holder_start_[c], ws.holder_start_[c + 1],
               holder_v, holder_b, ws.counts_.data() + c * n, n, dests,
               ws.streams_[c].data(), ws.firsts_[c].data(),
               ws.multi_[c].data(), &ws.coins_[c], &ws.addrs_[c],
               &ws.traffic_[c]);
    });

    // Prefix pass (coordinating thread): one running sum over destinations,
    // visiting source shards in ascending order within each destination,
    // yields the next CSR offsets, every shard's private scatter cursor,
    // AND the next round's holder list (branch-free append of every
    // destination that received a nonzero load).  This fixed visit order is
    // what pins the canonical ascending-sender layout regardless of
    // scheduling.
    uint32_t* next_offsets = ws.next_.mutable_offsets();
    uint32_t run = 0;
    size_t next_holders = 0;
    for (size_t v = 0; v < n; ++v) {
      next_offsets[v] = run;
      // ns-lint: allow(narrow32): hot kernel; v < n, narrowed at store
      // allocation.
      holder_v[next_holders] = static_cast<uint32_t>(v);
      holder_b[next_holders] = run;
      const uint32_t row_start = run;
      for (size_t c = 0; c < shards; ++c) {
        uint32_t& slot = ws.counts_[c * n + v];
        const uint32_t load = slot;
        slot = run;  // shard c's first slot inside destination v's slice
        run += load;
      }
      next_holders += (run > row_start) ? 1 : 0;
    }
    next_offsets[n] = run;  // == total: reports are conserved
    // ns-lint: allow(narrow32): sentinel; n narrowed at store allocation.
    holder_v[next_holders] = static_cast<uint32_t>(n);  // sentinel
    holder_b[next_holders] = run;

    // Scatter phase (parallel over source shards): each shard walks its
    // arena range in order, claims each report's pre-assigned slot from its
    // cursor row, and places the 4-byte id — the whole point of index
    // routing (DESIGN.md §4d).  Writes are disjoint by construction, and
    // slot order reproduces the serial schedule exactly.
    ReportId* next_arena = ws.next_.mutable_arena();
    GlobalPool().RunChunks(shards, [&](size_t c) {
      ScatterShard(ws.counts_.data() + c * n, offsets[bounds[c]],
                   offsets[bounds[c + 1]], dests, arena, next_arena);
    });
    store.SwapWith(&ws.next_);
    num_holders = next_holders;

    // ws.next_ now holds the round's consumed source buffer; every byte of
    // it is rewritten before it is read again, so a file-backed buffer can
    // drop its resident pages entirely (MAP_SHARED: the kernel keeps the
    // data, only this process's RSS falls).
    if (ws.next_.hosted()) ws.next_.AdviseDontNeedAll();

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

ProtocolResult RunProtocol(const Graph& g, ReportingProtocol protocol,
                           const ExchangeOptions& options) {
  return FinalizeProtocol(RunExchange(g, options), protocol, options.seed);
}

}  // namespace netshuffle
