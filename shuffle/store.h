// Flat per-user holdings for the exchange engine: one contiguous ReportId
// arena plus CSR-style per-user offsets (DESIGN.md §4c, §4d).  The store
// holds 4-byte report HANDLES only — a report's immutable origin and
// payload bytes live in the columnar PayloadArena (shuffle/payload.h), so
// the sort moves 4 bytes per report, never the payload.
//
// Invariant: user u's holdings are the contiguous slice
// arena[offsets[u] .. offsets[u+1]), in the engine's canonical order
// (ascending report id).  Reports are conserved by the exchange, so the
// arena never grows: the engine sorts each call's final holder column
// into the same two columns in place instead of reallocating.
//
// Both columns are rewritten by every exchange call, so they stay on the
// heap under every storage backend; only the write-once payload columns
// can be file-backed (DESIGN.md §9).

#ifndef NETSHUFFLE_SHUFFLE_STORE_H_
#define NETSHUFFLE_SHUFFLE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "graph/graph.h"
#include "shuffle/protocol.h"

namespace netshuffle {

/// Read-only view of one user's contiguous holdings slice (report ids).
class ReportSpan {
 public:
  ReportSpan(const ReportId* begin, const ReportId* end)
      : begin_(begin), end_(end) {}

  const ReportId* begin() const { return begin_; }
  const ReportId* end() const { return end_; }
  size_t size() const { return static_cast<size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }
  ReportId operator[](size_t i) const { return begin_[i]; }

 private:
  const ReportId* begin_;
  const ReportId* end_;
};

class ReportStore {
 public:
  ReportStore() = default;

  /// Identity injection state: user u holds exactly {report id u} (round 0
  /// of an exchange over an identity PayloadArena).  Offsets are the
  /// identity CSR.
  void InitOnePerUser(size_t n) {
    CheckedNarrow32(n, "ReportStore user count");
    arena_.resize(n);
    offsets_.resize(n + 1);
    for (size_t u = 0; u < n; ++u) {
      arena_[u] = static_cast<ReportId>(u);
      // ns-lint: allow(narrow32): u < n, checked by the CheckedNarrow32
      // at the top of this function.
      offsets_[u] = static_cast<uint32_t>(u);
    }
    // ns-lint: allow(narrow32): n checked at the top of this function.
    offsets_[n] = static_cast<uint32_t>(n);
  }

  /// Sizes the columns without initializing contents (injection fills
  /// them).
  void AllocateFor(size_t users, size_t reports) {
    CheckedNarrow32(reports, "ReportStore report count");
    arena_.resize(reports);
    offsets_.resize(users + 1);
  }

  size_t num_users() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// Total reports across all users (== num_users() for a conserved
  /// exchange).
  size_t num_reports() const { return arena_.size(); }

  size_t count(NodeId u) const {
    BoundsCheck(u, "count");
    return offsets_[u + 1] - offsets_[u];
  }
  ReportSpan reports(NodeId u) const {
    BoundsCheck(u, "reports");
    return ReportSpan(arena_.data() + offsets_[u],
                      arena_.data() + offsets_[u + 1]);
  }

  /// Flat access for the routing pass and benches.  offsets_data() has
  /// num_users() + 1 entries; uint32 suffices because report counts are
  /// bounded by the NodeId population (guarded by CheckedNarrow32 above).
  const ReportId* arena_data() const { return arena_.data(); }
  const uint32_t* offsets_data() const { return offsets_.data(); }
  ReportId* mutable_arena() { return arena_.data(); }
  uint32_t* mutable_offsets() { return offsets_.data(); }

  /// Heap footprint of the two columns (the 10^6-node smoke test pins this
  /// to ~8 bytes/user; an exchange adds the 4 B/report holder column and
  /// its workspace's 8 B/report sort blocks).
  size_t MemoryBytes() const {
    return arena_.capacity() * sizeof(ReportId) +
           offsets_.capacity() * sizeof(uint32_t);
  }

 private:
  // An out-of-range NodeId would read a garbage slice (or past the offsets
  // column) and silently mis-route; fail loudly instead.  The check is one
  // compare — the engine's hot loops go through the flat *_data() accessors,
  // not these per-user conveniences.
  void BoundsCheck(NodeId u, const char* op) const {
    if (static_cast<size_t>(u) + 1 >= offsets_.size()) {
      NETSHUFFLE_FATAL(std::string("ReportStore::") + op + "(" +
                       std::to_string(u) + "): store has " +
                       std::to_string(num_users()) + " users");
    }
  }

  std::vector<ReportId> arena_;
  std::vector<uint32_t> offsets_;  // num_users() + 1 entries
};

}  // namespace netshuffle

#endif  // NETSHUFFLE_SHUFFLE_STORE_H_
