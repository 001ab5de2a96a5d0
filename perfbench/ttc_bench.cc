// Time-to-certificate benchmark: the measuring program behind run.py.
//
// Drives the public Session lifecycle from one process —
//   Create -> Ingest/EmitReport -> BeginEpoch -> (Rewire) -> StepToTarget
//   -> FinalizeEpoch -> Server::ReceiveAll -> Guarantee
// — for one workload (see kWorkloads and perfbench/README.md), checks every
// epoch's output, and writes raw samples plus, for a traced pass, the layer
// spans to a JSON file at exit.  perfbench/run.py builds this program, pins
// the pool width (NS_THREADS, read back through ThreadCount()) and turns the
// samples into metrics.
//
//   perfbench_ttc --workload W --seed S --seconds T --trace 0|1 --out FILE
//
// --trace 0 runs one untraced pass.  --trace 1 runs an untraced pass and
// then a traced pass over the same inputs, each for half of --seconds: the
// traced pass records a span around every call into a layer and steps the
// exchange with Step(1) once per round, which is bit-identical to
// StepToTarget (the per-epoch inbox checksums are compared).  Create and
// Rewire are single calls, so the traced pass attributes them by first
// calling the same public functions standalone on the same graph
// (Session::Validate, EstimateSpectralGap, StationarySumSquares,
// StartExchange) under a "*.probe" span that the end-to-end timings skip.
//
// Exit status: 0 when every output check passed, 1 when one failed (the
// JSON is still written), 2 on a usage or environment error.

#include <malloc.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/session.h"
#include "dp/ldp.h"
#include "graph/generators.h"
#include "graph/spectral.h"
#include "graph/walk.h"
#include "shuffle/engine.h"
#include "shuffle/server.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace netshuffle;

namespace {

// ---- Workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  size_t n;    // users; every graph is a seeded random 20-regular graph
  bool serve;  // serving epochs after the cold starts
  bool churn;   // Rewire to a pre-generated fresh graph every epoch
  bool reader;  // an open-loop Guarantee() reader runs beside the epochs
  // Serving workloads: cold starts at each of kSetupPoints points of an
  // untraced pass (before, amid and after the serving loop), so setup_s
  // samples the machine at several times rather than in one burst.
  size_t setups_per_point;
  // Serving epochs an untraced --trace 0 pass runs at least (half of it
  // per pass with --trace 1).
  size_t min_epochs;
};

constexpr Workload kWorkloads[] = {
    {"cold_certify", 200000, false, false, false, 0, 0},
    {"serve_steady", 100000, true, false, false, 3, 100},
    {"serve_churn", 50000, true, true, true, 3, 30},
};

constexpr size_t kDegree = 20;
constexpr double kEpsilon0 = 1.0;
constexpr size_t kCategories = 16;
// Distinct replacement graphs serve_churn cycles through.
constexpr size_t kChurnPool = 8;
constexpr size_t kSetupPoints = 3;
// Open-loop reader: one Guarantee() due every 500 us (2 kHz).  The thread
// sleeps until kSpinNs before a query is due and spins the rest, so timer
// slack does not show up as query latency.
constexpr int64_t kQueryPeriodNs = 500000;
constexpr int64_t kSpinNs = 100000;
// A pass's timed loop stops after this long even if its minimum count is not
// reached, so a run on a badly slowed machine still ends.
constexpr double kPassCapSeconds = 60.0;

// ---- Clock and tracing ------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point kOrigin = Clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kOrigin)
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

struct SpanRecord {
  int64_t parent = -1;  // index into the same tracer, -1 for a root
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  size_t epoch = 0;
  uint64_t count = 0;   // reports, rounds, iterations: what the span did
  uint64_t bytes = 0;
  int64_t due_ns = -1;  // open-loop queries: when the query was due
};

/// Spans of one thread, kept in memory until the benchmark writes them.
/// Disabled tracers record nothing; every call is one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Pre-sizes the span store so recording does not reallocate mid-run.
  void Reserve(size_t spans) {
    if (enabled_) spans_.reserve(spans);
  }

  bool enabled() const { return enabled_; }

  int64_t Open(const char* name, size_t epoch) {
    if (!enabled_) return -1;
    SpanRecord span;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.name = name;
    span.epoch = epoch;
    span.start_ns = NowNs();
    spans_.push_back(span);
    stack_.push_back(static_cast<int64_t>(spans_.size() - 1));
    return stack_.back();
  }

  void Close(int64_t id, uint64_t count, uint64_t bytes) {
    if (id < 0) return;
    SpanRecord& span = spans_[static_cast<size_t>(id)];
    span.end_ns = NowNs();
    span.count = count;
    span.bytes = bytes;
    stack_.pop_back();
  }

  /// A root span recorded after the fact (the reader's queries).
  void Record(const SpanRecord& span) {
    if (enabled_) spans_.push_back(span);
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int64_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, size_t epoch)
      : tracer_(tracer), id_(tracer->Open(name, epoch)) {}
  ~ScopedSpan() { tracer_->Close(id_, count_, bytes_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void SetCount(uint64_t count) { count_ = count; }
  void SetBytes(uint64_t bytes) { bytes_ = bytes; }

 private:
  Tracer* tracer_;
  int64_t id_;
  uint64_t count_ = 0;
  uint64_t bytes_ = 0;
};

// ---- Failure accounting and output checks -----------------------------------

/// Every Status/Expected-returning call the benchmark makes is attempted
/// once; a non-ok return is counted and the run goes on.
struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool Count(const Status& status, const char* what) {
    ++attempted;
    if (status.ok()) return true;
    ++failed;
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 status.ToString().c_str());
    return false;
  }
};

struct Checks {
  std::vector<std::string> failures;

  void Require(bool ok, const std::string& what) {
    if (ok) return;
    if (failures.size() < 20) failures.push_back(what);
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
};

bool ValidEpsilon(double eps) {
  return std::isfinite(eps) && eps > 0.0 && eps <= kEpsilon0;
}

/// FNV-1a over the inbox's (id, origin, final holder) words, in order.
uint64_t InboxChecksum(const std::vector<FinalReport>& inbox) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint32_t word) {
    h ^= word;
    h *= 0x100000001b3ULL;
  };
  for (const FinalReport& r : inbox) {
    mix(r.id);
    mix(r.origin);
    mix(r.final_holder);
  }
  return h;
}

/// The CPUs this process may run on, ascending.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

bool PinCurrentThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

double ProcStatusMb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      kb = std::atof(line + key_len);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Resets VmHWM to the current VmRSS, so the next VmHWM read is the peak
/// of what runs in between.
void ResetPeak() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  const bool reset = f != nullptr && std::fputs("5", f) >= 0;
  if (f != nullptr) std::fclose(f);
  static bool warned = false;
  if (!reset && !warned) {
    warned = true;
    std::fprintf(stderr, "perfbench: cannot reset VmHWM; peak_rss_mb then "
                 "includes everything since process start\n");
  }
}

// ---- Open-loop reader -------------------------------------------------------

/// One thread calling Guarantee() on a fixed schedule.  Each latency runs
/// from the query's due time, so a stall delays every query due during it;
/// lateness (start minus due) is kept so a stalled generator cannot hide a
/// stall in Session.
class OpenLoopReader {
 public:
  /// Starts querying `session` from a thread pinned to `cpu`, which the
  /// pool does not use: a spinning thread sharing CPUs with busy ones sees
  /// several times more multi-millisecond stalls.  Samples are appended to
  /// `latency_us`.
  OpenLoopReader(const Session* session, int cpu, Tracer* tracer,
                 std::vector<double>* latency_us)
      : session_(session),
        cpu_(cpu),
        tracer_(tracer),
        latency_us_(latency_us),
        thread_([this] { Run(); }) {}

  ~OpenLoopReader() { Stop(); }
  OpenLoopReader(const OpenLoopReader&) = delete;
  OpenLoopReader& operator=(const OpenLoopReader&) = delete;

  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  // Valid after Stop().
  int64_t max_lateness_ns() const { return max_lateness_ns_; }
  size_t bad_epsilon() const { return bad_epsilon_; }

 private:
  void Run() {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    PinCurrentThread({cpu_});
    const int64_t t0 = NowNs();
    for (int64_t i = 1;; ++i) {
      const int64_t due = t0 + i * kQueryPeriodNs;
      int64_t now = NowNs();
      if (due - now > kSpinNs) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
      }
      while ((now = NowNs()) < due) {
      }
      if (stop_.load(std::memory_order_acquire)) return;
      SpanRecord span;
      span.name = "certify";
      span.due_ns = due;
      span.start_ns = now;
      const double eps = session_->Guarantee().epsilon;
      span.epoch = session_->epoch();
      span.end_ns = NowNs();
      latency_us_->push_back(static_cast<double>(span.end_ns - due) * 1e-3);
      max_lateness_ns_ = std::max(max_lateness_ns_, now - due);
      if (!ValidEpsilon(eps)) ++bad_epsilon_;
      tracer_->Record(span);
    }
  }

  const Session* session_;
  int cpu_;
  Tracer* tracer_;                   // written by the reader thread only
  std::vector<double>* latency_us_;  // likewise
  int64_t max_lateness_ns_ = 0;
  size_t bad_epsilon_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: it runs against the members above
};

// ---- One pass ---------------------------------------------------------------

struct Inputs {
  Graph graph;                   // serving topology (serve_*)
  std::vector<Graph> churn;      // serve_churn replacement graphs
  std::vector<uint32_t> values;  // k-RR categories, indexed by (epoch, user)
};

struct PassRecord {
  explicit PassRecord(bool traced)
      : traced(traced), mutator(traced), reader(traced) {}

  bool traced;
  std::vector<double> setup_s;   // Create, per cold start
  // Time to certificate: cold, Create through the first certificate;
  // serve, the median report's wait from its ingest to its epoch's
  // certificate.
  std::vector<double> ttc_s;
  std::vector<double> epoch_ms;  // cold: post-Create epoch; serve: loop epochs
  std::vector<double> epsilon;   // certified epsilon per epoch above
  std::vector<uint64_t> setup_checksums;  // epoch 0 of each cold start
  std::vector<uint64_t> checksums;        // serving epoch e at index e - 1
  std::vector<double> spectral_gap, mixing_rounds;
  double loop_s = 0.0;   // timed loop wall, attribution probes excluded
  int64_t probe_ns = 0;  // time spent in Rewire attribution probes
  size_t epochs = 0;
  size_t sessions = 0;
  size_t reports = 0;  // reports certified in the timed loop
  double min_coverage = 1.0;
  // Memory above base_mb, the VmRSS at the start of the pass with no
  // Session alive (the benchmark's own inputs and the runtime).
  double base_mb = 0.0;
  double rss_after_setup_mb = 0.0;  // right after the first Create
  // VmHWM over each cold certification (cold_certify) or serving epoch
  // (serve_*); exactly one Session is alive in each.
  std::vector<double> peak_mb;
  std::vector<double> query_us;
  double max_lateness_ms = 0.0;
  Tracer mutator;
  Tracer reader;
};

class Bench {
 public:
  /// `reader_cpu` is the CPU the open-loop reader runs on alone (unused
  /// when the workload has no reader).
  Bench(const Workload& w, uint64_t seed, int reader_cpu)
      : w_(w), seed_(seed), reader_cpu_(reader_cpu) {}

  Ops ops;
  Checks checks;
  double input_gen_s = 0.0;

  void GenerateServingInputs() {
    const int64_t t0 = NowNs();
    Rng graph_rng(HashCombine(seed_, 0x67));
    inputs_.graph = MakeRandomRegular(w_.n, kDegree, &graph_rng);
    if (w_.churn) {
      for (size_t i = 0; i < kChurnPool; ++i) {
        inputs_.churn.push_back(MakeRandomRegular(w_.n, kDegree, &graph_rng));
      }
    }
    Rng value_rng(HashCombine(seed_, 0x76));
    inputs_.values.resize(4 * w_.n + 7);
    for (uint32_t& v : inputs_.values) {
      v = static_cast<uint32_t>(value_rng.UniformInt(kCategories));
    }
    input_gen_s += Seconds(NowNs() - t0);
  }

  /// Starts a pass: no Session is alive, so VmRSS is the benchmark's own.
  void BeginPass(PassRecord* rec) {
    malloc_trim(0);
    rec->base_mb = ProcStatusMb("VmRSS:");
  }

  /// The cold_certify loop: back-to-back cold certifications, each on a
  /// fresh graph generated before its timed region.  Each session is
  /// destroyed before the next graph is generated.  With `replay`, cold
  /// start 0's epoch is then replayed at pool width 1.
  void RunColdPass(PassRecord* rec, double budget_s, size_t min_sessions,
                   bool replay) {
    const int64_t start = NowNs();
    for (size_t i = 0;; ++i) {
      const double elapsed = Seconds(NowNs() - start);
      if ((i >= min_sessions && elapsed >= budget_s) ||
          (i > 0 && elapsed >= kPassCapSeconds)) {
        break;
      }
      Graph graph = ColdGraph(i);
      Server server(w_.n);
      const std::optional<Session> session = ColdStart(
          std::move(graph), HashCombine(seed_, 0x2000 + i), rec, &server);
      SamplePeak(rec);
      ++rec->sessions;
      if (session.has_value()) rec->reports += w_.n;
    }
    rec->loop_s = std::accumulate(rec->ttc_s.begin(), rec->ttc_s.end(), 0.0);
    if (replay && !rec->setup_checksums.empty()) {
      ReplayColdEpoch(rec->setup_checksums.front());
    }
  }

  /// The serving workloads.  `setup_points` groups of `per_point` cold
  /// starts on the serving graph are spread over the pass: the last of the
  /// first group serves, the serving loop is split into segments between
  /// the groups, and (with `replay`) the last group's final session replays
  /// serving epoch 1 at pool width 1, which must reproduce its inbox.  The
  /// serving loop runs until the budget and the minimum epoch count are
  /// both met; cold starts between segments are not part of its wall time.
  void RunServePass(PassRecord* rec, double budget_s, size_t min_epochs,
                    size_t setup_points, size_t per_point, bool replay) {
    Server server(w_.n);
    std::optional<Session> serving = ColdStarts(rec, per_point);
    if (!serving.has_value()) return;
    const size_t segments = std::max<size_t>(1, setup_points - 1);
    size_t epoch = 1;
    for (size_t seg = 0; seg < segments; ++seg) {
      const double share = 1.0 / static_cast<double>(segments);
      ServeSegment(&*serving, &server, budget_s * share,
                   kPassCapSeconds * share,
                   (min_epochs + segments - 1) / segments, &epoch, rec);
      if (seg + 1 < segments) ColdStarts(rec, per_point);
    }
    if (setup_points > 1) {
      std::optional<Session> last = ColdStarts(rec, per_point);
      if (replay && last.has_value() && !rec->checksums.empty()) {
        ReplayFirstEpoch(&*last, rec->checksums.front());
      }
    }
    for (uint64_t c : rec->setup_checksums) {
      checks.Require(c == rec->setup_checksums.front(),
                     "every cold start of one graph and seed gives one inbox");
    }
  }

 private:
  uint64_t SessionSeed() const { return HashCombine(seed_, 0x5e55); }

  SessionConfig Config(Graph graph, uint64_t session_seed) const {
    SessionConfig config;
    config.SetGraph(std::move(graph))
        .SetSeed(session_seed)
        .SetMechanism(KRandomizedResponse(kCategories, kEpsilon0));
    return config;
  }

  /// Standalone calls to the functions Create runs, on the same graph, so
  /// a traced pass can split the one Create call into layers.
  void CreateProbe(const Graph& graph, PassRecord* rec) {
    Tracer* t = &rec->mutator;
    ScopedSpan probe(t, "create.probe", 0);
    const SessionConfig config = Config(graph, SessionSeed());
    {
      ScopedSpan span(t, "validate", 0);
      ops.Count(Session::Validate(config), "Session::Validate");
    }
    {
      ScopedSpan span(t, "spectral", 0);
      span.SetCount(EstimateSpectralGap(graph).iterations);
    }
    {
      ScopedSpan span(t, "sum_squares", 0);
      checks.Require(StationarySumSquares(graph) > 0.0,
                     "StationarySumSquares is positive");
    }
    {
      ScopedSpan span(t, "inject", 0);
      const ExchangeResult injected = StartExchange(graph);
      span.SetCount(injected.holdings.num_reports());
    }
  }

  /// Same split for Rewire: Validate, spectral and sum-of-squares on the
  /// replacement graph, called standalone before the Rewire itself.
  /// Returns the probe's duration, which the epoch timings leave out.
  int64_t RewireProbe(const Graph& graph, size_t epoch, PassRecord* rec) {
    Tracer* t = &rec->mutator;
    const int64_t p0 = NowNs();
    ScopedSpan probe(t, "rewire.probe", epoch);
    const SessionConfig config = Config(graph, SessionSeed());
    {
      ScopedSpan span(t, "validate", epoch);
      ops.Count(Session::Validate(config), "Session::Validate");
    }
    {
      ScopedSpan span(t, "spectral", epoch);
      span.SetCount(EstimateSpectralGap(graph).iterations);
    }
    {
      ScopedSpan span(t, "sum_squares", epoch);
      checks.Require(StationarySumSquares(graph) > 0.0,
                     "StationarySumSquares is positive");
    }
    return NowNs() - p0;
  }

  /// Steps the current epoch to its target: StepToTarget untraced, one
  /// Step(1) per round traced.
  bool Exchange(Session* session, size_t epoch, PassRecord* rec) {
    Tracer* t = &rec->mutator;
    if (!t->enabled()) {
      return ops.Count(session->StepToTarget(), "Session::StepToTarget");
    }
    const size_t target = session->target_rounds();
    for (size_t r = session->current_round(); r < target; ++r) {
      ScopedSpan span(t, "round", epoch);
      span.SetCount(w_.n);
      if (!ops.Count(session->Step(1), "Session::Step")) return false;
    }
    return true;
  }

  /// FinalizeEpoch -> Server::ReceiveAll -> certificate, inside the
  /// caller's timed region; returns the certified epsilon.
  double FinalizeAndCertify(Session* session, Server* server, size_t epoch,
                            bool target, PassRecord* rec) {
    Tracer* t = &rec->mutator;
    ProtocolResult result;
    {
      ScopedSpan span(t, "finalize", epoch);
      result = session->FinalizeEpoch();
    }
    {
      ScopedSpan span(t, "receive", epoch);
      server->ReceiveAll(std::move(result.server_inbox));
    }
    ScopedSpan span(t, "certify", epoch);
    return target ? session->TargetGuarantee().epsilon
                  : session->Guarantee().epsilon;
  }

  /// Output checks on the epoch the server just received, then rolls the
  /// server.  Outside every timed region.  Returns the inbox checksum.
  uint64_t CheckEpoch(const Session& session, Server* server, double eps,
                      const std::string& label, PassRecord* rec) {
    checks.Require(session.current_round() == session.target_rounds(),
                   label + ": the epoch ran exactly target_rounds() rounds");
    checks.Require(server->num_received() == w_.n,
                   label + ": inbox holds exactly n reports");
    // After target_rounds() hops on a 20-regular expander a report is back
    // at its origin with probability ~1/n; an exchange that did not move
    // reports fails here.
    size_t at_origin = 0;
    for (const FinalReport& r : server->inbox()) {
      at_origin += r.final_holder == r.origin ? 1 : 0;
    }
    checks.Require(at_origin <= w_.n / 100,
                   label + ": at most 1% of reports end at their origin");
    checks.Require(server->distinct_origins() == w_.n &&
                       server->invalid_origin_count() == 0,
                   label + ": server coverage is 1.0");
    checks.Require(ValidEpsilon(eps),
                   label + ": certified epsilon is finite and in (0, eps0]");
    rec->min_coverage = std::min(rec->min_coverage, server->PayloadCoverage());
    const uint64_t checksum = InboxChecksum(server->inbox());
    server->BeginEpoch();
    return checksum;
  }

  /// Create -> StepToTarget -> FinalizeEpoch -> ReceiveAll ->
  /// TargetGuarantee on `graph`.
  std::optional<Session> ColdStart(Graph graph, uint64_t session_seed,
                                   PassRecord* rec, Server* server) {
    Tracer* t = &rec->mutator;
    ScopedSpan session_span(t, "session", 0);
    if (t->enabled()) CreateProbe(graph, rec);
    SessionConfig config = Config(std::move(graph), session_seed);

    // Every cold start begins from a trimmed heap.
    malloc_trim(0);
    ResetPeak();
    const int64_t c0 = NowNs();
    std::optional<Session> session;
    {
      ScopedSpan span(t, "create", 0);
      Expected<Session> created = Session::Create(std::move(config));
      if (!ops.Count(created.status(), "Session::Create")) return std::nullopt;
      session.emplace(std::move(created).value());
    }
    const int64_t c1 = NowNs();
    if (rec->rss_after_setup_mb == 0.0) {
      rec->rss_after_setup_mb = ProcStatusMb("VmRSS:") - rec->base_mb;
    }
    double eps = 0.0;
    {
      ScopedSpan span(t, "epoch", 0);
      if (!Exchange(&*session, 0, rec)) return std::nullopt;
      eps = FinalizeAndCertify(&*session, server, 0, /*target=*/true, rec);
    }
    const int64_t c2 = NowNs();
    rec->setup_s.push_back(Seconds(c1 - c0));
    rec->spectral_gap.push_back(session->spectral_gap());
    rec->mixing_rounds.push_back(static_cast<double>(session->target_rounds()));
    if (!w_.serve) {
      rec->ttc_s.push_back(Seconds(c2 - c0));
      rec->epoch_ms.push_back(Millis(c2 - c1));
      rec->epsilon.push_back(eps);
    }
    rec->setup_checksums.push_back(
        CheckEpoch(*session, server, eps, std::string(w_.name) + " cold start",
                   rec));
    return session;
  }

  /// Streams epoch `e`'s reports into the pending arena.  The span records
  /// the reports and payload bytes the arena then holds.
  bool Ingest(Session* session, size_t e, PassRecord* rec) {
    ScopedSpan span(&rec->mutator, "ingest", e);
    PayloadArena* pending = session->pending_arena();
    const KRandomizedResponse rr(kCategories, kEpsilon0);
    Rng mech_rng(HashCombine(seed_, 0x3000 + e));
    const size_t base = e * w_.n;
    for (size_t u = 0; u < w_.n; ++u) {
      rr.EmitReport(static_cast<NodeId>(u),
                    inputs_.values[(base + u) % inputs_.values.size()],
                    &mech_rng, pending);
    }
    span.SetCount(pending->num_reports());
    span.SetBytes(pending->total_payload_bytes());
    return true;
  }

  /// One serving epoch; returns the certified epsilon, or nothing when a
  /// call failed (the epoch then counts as missing every latency limit).
  std::optional<double> ServeEpoch(Session* session, Server* server, size_t e,
                                   std::optional<Graph> fresh,
                                   PassRecord* rec) {
    Tracer* t = &rec->mutator;
    const int64_t e0 = NowNs();
    int64_t ingested = e0;
    int64_t probe_ns = 0;
    double eps = 0.0;
    bool ok = true;
    {
      ScopedSpan epoch_span(t, "epoch", e);
      ok = Ingest(session, e, rec);
      ingested = NowNs();
      if (ok) {
        ScopedSpan span(t, "begin", e);
        ok = ops.Count(session->BeginEpoch(), "Session::BeginEpoch");
      }
      if (ok && fresh.has_value()) {
        if (t->enabled()) probe_ns = RewireProbe(*fresh, e, rec);
        ScopedSpan span(t, "rewire", e);
        ok = ops.Count(session->Rewire(std::move(*fresh)), "Session::Rewire");
      }
      ok = ok && Exchange(session, e, rec);
      if (ok) eps = FinalizeAndCertify(session, server, e, false, rec);
    }
    const int64_t e1 = NowNs() - probe_ns;
    rec->probe_ns += probe_ns;
    if (!ok) {
      session->DiscardPending();
      rec->epoch_ms.push_back(HUGE_VAL);
      rec->ttc_s.push_back(HUGE_VAL);
      rec->epsilon.push_back(HUGE_VAL);
      checks.Require(false, "serving epoch " + std::to_string(e) + " failed");
      return std::nullopt;
    }
    rec->epoch_ms.push_back(Millis(e1 - e0));
    // Reports stream in at a steady rate, so the median report was ingested
    // halfway through the ingest; it waits from then to the certificate.
    rec->ttc_s.push_back(Seconds(e1 - e0 - (ingested - e0) / 2));
    rec->epsilon.push_back(eps);
    rec->mixing_rounds.push_back(static_cast<double>(session->target_rounds()));
    rec->checksums.push_back(
        CheckEpoch(*session, server, eps, "epoch " + std::to_string(e), rec));
    return eps;
  }

  /// cold_certify's graph for cold start `i`, timed as input generation.
  Graph ColdGraph(size_t i) {
    const int64_t g0 = NowNs();
    Rng graph_rng(HashCombine(seed_, 0x1000 + i));
    Graph graph = MakeRandomRegular(w_.n, kDegree, &graph_rng);
    input_gen_s += Seconds(NowNs() - g0);
    return graph;
  }

  /// Creates cold start 0's session again at the pinned width, then runs
  /// its epoch at pool width 1; the inbox must match cold start 0's.
  void ReplayColdEpoch(uint64_t expected) {
    Expected<Session> created =
        Session::Create(Config(ColdGraph(0), HashCombine(seed_, 0x2000)));
    if (!ops.Count(created.status(), "Session::Create")) return;
    Session session = std::move(created).value();
    SetThreadCount(1);
    Server server(w_.n);
    PassRecord scratch(false);
    const bool ok = Exchange(&session, 0, &scratch);
    const double eps =
        ok ? FinalizeAndCertify(&session, &server, 0, /*target=*/true, &scratch)
           : 0.0;
    SetThreadCount(0);
    checks.Require(ok && CheckEpoch(session, &server, eps, "cold replay",
                                    &scratch) == expected,
                   "pool-width-1 replay of cold start 0 matches its inbox "
                   "checksum");
  }

  /// Replays serving epoch 1 on the first set-up session at pool width 1;
  /// its inbox must match the serving session's epoch-1 inbox.
  void ReplayFirstEpoch(Session* session, uint64_t expected) {
    SetThreadCount(1);
    Server server(w_.n);
    std::optional<Graph> fresh;
    if (w_.churn) fresh = inputs_.churn[1 % kChurnPool];
    PassRecord scratch(false);
    const std::optional<double> eps =
        ServeEpoch(session, &server, 1, std::move(fresh), &scratch);
    SetThreadCount(0);
    checks.Require(eps.has_value() && scratch.checksums.size() == 1 &&
                       scratch.checksums[0] == expected,
                   "pool-width-1 replay of epoch 1 matches its inbox checksum");
  }

  /// `count` cold starts of the serving graph, each destroyed before the
  /// next; returns the last session.
  std::optional<Session> ColdStarts(PassRecord* rec, size_t count) {
    std::optional<Session> session;
    for (size_t i = 0; i < count; ++i) {
      session.reset();
      Server server(w_.n);
      session = ColdStart(Graph(inputs_.graph), SessionSeed(), rec, &server);
      ++rec->sessions;
    }
    return session;
  }

  /// VmHWM since the last ResetPeak, above the pass's start.
  void SamplePeak(PassRecord* rec) {
    rec->peak_mb.push_back(ProcStatusMb("VmHWM:") - rec->base_mb);
  }

  /// Serving epochs numbered from *epoch on (under the open-loop reader
  /// when the workload has one), until `budget_s` and `min_epochs` are both
  /// met, or `cap_s` passes.
  void ServeSegment(Session* session, Server* server, double budget_s,
                    double cap_s, size_t min_epochs, size_t* epoch,
                    PassRecord* rec) {
    malloc_trim(0);
    std::optional<OpenLoopReader> reader;
    if (w_.reader) StartReader(&reader, session, budget_s, rec);
    const int64_t probe0 = rec->probe_ns;
    const int64_t t0 = NowNs();
    for (size_t done = 0;; ++done, ++*epoch) {
      const double elapsed = Seconds(NowNs() - t0);
      if ((done >= min_epochs && elapsed >= budget_s) || elapsed >= cap_s) {
        break;
      }
      ResetPeak();
      std::optional<Graph> fresh;
      if (w_.churn) fresh = inputs_.churn[*epoch % kChurnPool];
      const std::optional<double> eps =
          ServeEpoch(session, server, *epoch, std::move(fresh), rec);
      SamplePeak(rec);
      ++rec->epochs;
      if (eps.has_value()) rec->reports += w_.n;
    }
    rec->loop_s += Seconds(NowNs() - t0 - (rec->probe_ns - probe0));
    FinishReader(&reader, rec);
  }

  void StartReader(std::optional<OpenLoopReader>* reader,
                   const Session* session, double budget_s, PassRecord* rec) {
    // Room for the expected queries plus a margin, so neither buffer
    // reallocates while the reader is timing.
    const size_t expected = rec->query_us.size() +
                            static_cast<size_t>(budget_s * 2.5e9 /
                                                static_cast<double>(kQueryPeriodNs)) +
                            4096;
    rec->query_us.reserve(expected);
    rec->reader.Reserve(expected);
    reader->emplace(session, reader_cpu_, &rec->reader, &rec->query_us);
  }

  void FinishReader(std::optional<OpenLoopReader>* reader, PassRecord* rec) {
    if (!reader->has_value()) return;
    (*reader)->Stop();
    rec->max_lateness_ms =
        std::max(rec->max_lateness_ms, Millis((*reader)->max_lateness_ns()));
    checks.Require((*reader)->bad_epsilon() == 0,
                   "every reader query certifies a finite epsilon in (0, eps0]");
    reader->reset();
  }

  const Workload& w_;
  uint64_t seed_;
  int reader_cpu_;
  Inputs inputs_;
};

// ---- Output -----------------------------------------------------------------

/// Minimal JSON writer for the run document; non-finite numbers (a failed
/// epoch's latency) are written as 1e308 so the document stays valid.
class JsonOut {
 public:
  explicit JsonOut(std::FILE* f) : f_(f) {}

  void Key(const char* key) {
    Sep();
    std::fprintf(f_, "\"%s\":", key);
    fresh_ = true;
  }
  void Num(double v) {
    Sep();
    if (std::isfinite(v)) {
      std::fprintf(f_, "%.17g", v);
    } else {
      std::fprintf(f_, "%s", v > 0 ? "1e308" : "-1e308");
    }
  }
  void Str(const std::string& v) {
    Sep();
    std::fprintf(f_, "\"%s\"", v.c_str());
  }
  void Open(char c) {
    Sep();
    std::fputc(c, f_);
    fresh_ = true;
  }
  void Close(char c) {
    std::fputc(c, f_);
    fresh_ = false;
  }
  void Field(const char* key, double v) {
    Key(key);
    Num(v);
  }
  void Field(const char* key, const std::vector<double>& v) {
    Key(key);
    Open('[');
    for (double x : v) Num(x);
    Close(']');
  }
  void Field(const char* key, const std::vector<uint64_t>& v) {
    Key(key);
    Open('[');
    char buf[32];
    for (uint64_t x : v) {
      std::snprintf(buf, sizeof(buf), "%016llx",
                    static_cast<unsigned long long>(x));
      Str(buf);
    }
    Close(']');
  }

 private:
  void Sep() {
    if (!fresh_) std::fputc(',', f_);
    fresh_ = false;
  }

  std::FILE* f_;
  bool fresh_ = true;
};

void WriteSpans(JsonOut* out, const char* thread, const Tracer& tracer) {
  for (const SpanRecord& s : tracer.spans()) {
    out->Open('{');
    out->Key("thread");
    out->Str(thread);
    out->Field("parent", static_cast<double>(s.parent));
    out->Key("name");
    out->Str(s.name);
    out->Field("start_ns", static_cast<double>(s.start_ns));
    out->Field("end_ns", static_cast<double>(s.end_ns));
    out->Field("epoch", static_cast<double>(s.epoch));
    out->Field("count", static_cast<double>(s.count));
    out->Field("bytes", static_cast<double>(s.bytes));
    out->Field("due_ns", static_cast<double>(s.due_ns));
    out->Close('}');
  }
}

void WritePass(JsonOut* out, const PassRecord& p) {
  out->Open('{');
  out->Field("traced", p.traced ? 1.0 : 0.0);
  out->Field("setup_s", p.setup_s);
  out->Field("ttc_s", p.ttc_s);
  out->Field("epoch_ms", p.epoch_ms);
  out->Field("epsilon", p.epsilon);
  out->Field("setup_checksums", p.setup_checksums);
  out->Field("checksums", p.checksums);
  out->Field("spectral_gap", p.spectral_gap);
  out->Field("mixing_rounds", p.mixing_rounds);
  out->Field("loop_s", p.loop_s);
  out->Field("epochs", static_cast<double>(p.epochs));
  out->Field("sessions", static_cast<double>(p.sessions));
  out->Field("reports", static_cast<double>(p.reports));
  out->Field("min_coverage", p.min_coverage);
  out->Field("rss_after_setup_mb", p.rss_after_setup_mb);
  out->Field("base_mb", p.base_mb);
  out->Field("peak_rss_mb", p.peak_mb);
  out->Field("query_us", p.query_us);
  out->Field("max_lateness_ms", p.max_lateness_ms);
  out->Key("spans");
  out->Open('[');
  WriteSpans(out, "mutator", p.mutator);
  WriteSpans(out, "reader", p.reader);
  out->Close(']');
  out->Close('}');
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1) && !args->out.empty();
}

/// Passes over the same inputs must produce the same inboxes: cold starts
/// by index, serving epochs by epoch number.
void ComparePasses(const PassRecord& a, const PassRecord& b, Checks* checks) {
  auto same_prefix = [](const std::vector<uint64_t>& x,
                        const std::vector<uint64_t>& y) {
    const size_t k = std::min(x.size(), y.size());
    return k > 0 && std::equal(x.begin(), x.begin() + k, y.begin());
  };
  checks->Require(same_prefix(a.setup_checksums, b.setup_checksums),
                  "traced Step(1) cold starts match the untraced inboxes");
  if (!a.checksums.empty() || !b.checksums.empty()) {
    checks->Require(same_prefix(a.checksums, b.checksums),
                    "traced Step(1) epochs match the untraced inboxes");
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_ttc --workload W --seed S --seconds T "
                 "--trace 0|1 --out FILE\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  // The mutator and the pool share the first `threads` allowed CPUs; the
  // reader, when the workload has one, gets the next one to itself.
  const size_t threads = ThreadCount();
  const size_t needed = threads + (workload->reader ? 1 : 0);
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.size() < needed ||
      !PinCurrentThread(std::vector<int>(cpus.begin(),
                                         cpus.begin() + threads))) {
    std::fprintf(stderr, "perfbench: need %zu CPUs for a pool of %zu%s, "
                 "have %zu\n", needed, threads,
                 workload->reader ? " and the reader" : "", cpus.size());
    return 2;
  }

  Bench bench(*workload, args.seed, workload->reader ? cpus[threads] : -1);
  if (workload->serve) bench.GenerateServingInputs();
  auto run_pass = [&](PassRecord* rec, double budget_s, bool full) {
    bench.BeginPass(rec);
    if (workload->serve) {
      if (rec->traced) {
        bench.RunServePass(rec, budget_s, workload->min_epochs / 2, 1, 1,
                           false);
      } else {
        bench.RunServePass(rec, budget_s,
                           full ? workload->min_epochs : workload->min_epochs / 2,
                           kSetupPoints,
                           workload->setups_per_point, true);
      }
    } else {
      bench.RunColdPass(rec, budget_s, full ? 3 : 1, !rec->traced);
    }
  };
  std::vector<PassRecord> passes;
  passes.reserve(2);
  if (args.trace == 0) {
    passes.emplace_back(false);
    run_pass(&passes[0], args.seconds, true);
  } else {
    passes.emplace_back(false);
    run_pass(&passes[0], args.seconds / 2, false);
    passes.emplace_back(true);
    run_pass(&passes[1], args.seconds / 2, false);
    ComparePasses(passes[0], passes[1], &bench.checks);
  }

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
    return 2;
  }
  JsonOut out(f);
  out.Open('{');
  out.Key("workload");
  out.Str(workload->name);
  out.Field("seed", static_cast<double>(args.seed));
  out.Field("threads", static_cast<double>(threads));
  out.Field("n", static_cast<double>(workload->n));
  out.Field("epsilon0", kEpsilon0);
  out.Field("input_gen_s", bench.input_gen_s);
  out.Field("attempted", static_cast<double>(bench.ops.attempted));
  out.Field("failed", static_cast<double>(bench.ops.failed));
  out.Key("check_failures");
  out.Open('[');
  for (const std::string& failure : bench.checks.failures) out.Str(failure);
  out.Close(']');
  out.Key("passes");
  out.Open('[');
  for (const PassRecord& p : passes) WritePass(&out, p);
  out.Close(']');
  out.Close('}');
  const bool written = std::fputc('\n', f) != EOF && std::fclose(f) == 0;
  if (!written) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
    return 2;
  }
  return bench.checks.failures.empty() && bench.ops.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
