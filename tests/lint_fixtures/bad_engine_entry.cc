// ns-lint-fixture: as=estimation/bad_engine_entry.cc expects=engine-entry,engine-entry,engine-entry
// Known-bad: an estimator running its own exchange at a private seed, so
// the run it reads is not the run any Session certified.  Each of the three
// entry-point calls fires; the engine's types and prose mentions of
// RunExchange() do not.
#include <utility>

#include "shuffle/engine.h"
#include "shuffle/protocol.h"

namespace netshuffle {

ProtocolResult BadPrivateExchange(const Graph& g, PayloadArena arena) {
  ExchangeOptions opts;
  opts.rounds = 20;
  opts.seed = 1 ^ 0xf00dULL;
  ExchangeResult ex =
      ResumeExchange(g, StartExchange(g, std::move(arena)), opts);
  return FinalizeProtocol(ex, ReportingProtocol::kAll, opts.seed);
}

}  // namespace netshuffle
