// Shared protocol types: report identifiers, reporting modes, and the
// curator-side shapes produced by finalization.
//
// Since the index-routing refactor (DESIGN.md §4d) the exchange routes
// compact 4-byte ReportIds; a report's immutable origin and payload bytes
// live in the columnar PayloadArena (shuffle/payload.h) and are read back
// only at finalize.

#ifndef NETSHUFFLE_SHUFFLE_PROTOCOL_H_
#define NETSHUFFLE_SHUFFLE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"

namespace netshuffle {

using Bytes = std::vector<uint8_t>;

/// Dense index of an injected report: the 4-byte handle the exchange rounds
/// actually route.  Also the row index into the PayloadArena that holds the
/// report's origin and payload bytes.
using ReportId = uint32_t;

class PayloadArena;

/// How users submit to the curator after the exchange rounds:
///  - kAll: every user submits every report it holds (empty holders submit a
///    size-padded dummy the curator can discard).
///  - kSingle: every user submits exactly one ciphertext — one uniformly
///    chosen held report, or an indistinguishable dummy if it holds none;
///    surplus held reports are dropped.
enum class ReportingProtocol { kAll, kSingle };

/// A report as it lands at the curator.  The payload bytes are NOT copied
/// here: read them through ProtocolResult::payloads->payload(id).
struct FinalReport {
  /// Row into the exchange's PayloadArena.
  ReportId id = 0;
  /// The user whose randomized datum this is (== payloads->origin(id),
  /// denormalized because every consumer needs it).
  NodeId origin = 0;
  /// The user that submitted it after the walk.
  NodeId final_holder = 0;
};

struct ProtocolResult {
  std::vector<FinalReport> server_inbox;
  /// The immutable origin/payload columns the inbox ids index into; shared
  /// with the exchange state, so FinalizeProtocol(RunExchange(...)) stays
  /// safe after the exchange state is gone.
  std::shared_ptr<const PayloadArena> payloads;
  /// Users that submitted a dummy (held nothing, or kSingle surplus slots).
  size_t dummy_reports = 0;
  /// Genuine reports not submitted (kSingle surplus).
  size_t dropped_reports = 0;
  size_t rounds = 0;
};

}  // namespace netshuffle

#endif  // NETSHUFFLE_SHUFFLE_PROTOCOL_H_
