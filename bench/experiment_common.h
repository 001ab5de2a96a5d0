// Shared helpers for the experiment harnesses (bench/*.cc).

#ifndef NETSHUFFLE_BENCH_EXPERIMENT_COMMON_H_
#define NETSHUFFLE_BENCH_EXPERIMENT_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data/datasets.h"
#include "graph/io.h"
#include "graph/spectral.h"
#include "graph/walk.h"
#include "util/parallel.h"

namespace netshuffle {

/// Scale override for quick runs: NS_SCALE=0.1 shrinks every dataset.
/// Values in (1.0, 1e3] up-scale past the paper's sizes and are honored
/// (with a note on stderr); non-positive, unparseable, or over-cap values
/// fall back to 1.0.
inline double EnvScale() {
  const char* s = std::getenv("NS_SCALE");
  if (s == nullptr) return 1.0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v > 0.0)) {
    std::fprintf(stderr, "NS_SCALE='%s' is not a positive scale; using 1.0\n",
                 s);
    return 1.0;
  }
  if (v > 1e3) {
    std::fprintf(stderr,
                 "NS_SCALE=%s exceeds the supported maximum 1e3; using 1.0\n",
                 s);
    return 1.0;
  }
  if (v > 1.0) {
    std::fprintf(stderr,
                 "NS_SCALE=%.3f > 1: up-scaling datasets beyond their paper "
                 "sizes\n",
                 v);
  }
  return v;
}

/// Peak resident set size of this process in MB, from /proc/self/status
/// VmHWM (the kernel's high-water mark: what the box actually had to
/// provide, which is the number the out-of-core tier is judged on).
/// Returns a quiet NaN where /proc is unavailable — BenchRunner serializes
/// that as null rather than a fake 0.
inline double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nan("");
  double kb = std::nan("");
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Thread override for the parallel hot paths — the sibling knob of
/// NS_SCALE.  NS_THREADS=4 pins the pool width; unset or 0 means hardware
/// concurrency; garbage is rejected with a warning (parsing lives in
/// util/parallel.h so the library shares it).  Thread count never changes
/// results, only wall time: see DESIGN.md "Parallel execution model".
inline size_t EnvThreads() { return EnvThreadCount(); }

/// Times a harness and emits BENCH_<name>.json so the perf trajectory is
/// machine-readable across PRs.  Construct one at the top of main().  A
/// preliminary record ("completed": false) lands on disk immediately at
/// construction, so a harness that aborts, std::exit()s, or bails on a
/// rejected config under a small NS_SCALE still leaves a parseable JSON for
/// CI to archive instead of silently dropping off the perf trajectory; the
/// destructor rewrites it with the final numbers and "completed": true
/// (unless MarkFailed() ran — error paths that return from main keep the
/// honest "completed": false).
/// Schema (schema_version 2 added the version marker itself and the
/// accountant name, so cross-PR tooling can refuse to compare apples to
/// oranges; 3 added "completed"; 4 added the optional "latencies" object
/// for serving-style harnesses that measure per-operation tails; 5 added
/// "peak_rss_mb" — the process high-water mark from /proc/self/status
/// VmHWM, sampled at the final write — so the out-of-core storage tier's
/// memory win is machine-checkable in every record):
///
///   {
///     "schema_version": 5,
///     "name": "fig4_privacy_rounds",      // harness name
///     "threads": 4,                       // effective NS_THREADS
///     "scale": 0.05,                      // effective NS_SCALE
///     "accountant": "stationary_bound",   // who certified the headline
///                                         // (see SetAccountant)
///     "completed": true,                  // false = the harness died before
///                                         // its final write
///     "wall_seconds": 1.234567,           // whole-harness wall time
///     "peak_rss_mb": 412.5,               // VmHWM at write time (null where
///                                         // /proc is unavailable)
///     "headline": {"metric": "...", "value": ...},   // the one number to
///                                                    // track across PRs
///     "metrics": {"...": ..., ...},       // optional extras
///     "latencies": {                      // optional (AddLatency): per-op
///       "<op>": {"p50_ms": ..., "p99_ms": ..., "p999_ms": ...}, ...
///     }
///   }
///
/// Non-finite values are serialized as null.  Output lands in the working
/// directory unless NS_BENCH_DIR overrides it.
class BenchRunner {
 public:
  explicit BenchRunner(std::string name)
      : name_(std::move(name)),
        threads_(EnvThreads()),
        scale_(EnvScale()),
        start_(std::chrono::steady_clock::now()) {
    Write(/*completed=*/false);
  }

  BenchRunner(const BenchRunner&) = delete;
  BenchRunner& operator=(const BenchRunner&) = delete;

  /// The one number future PRs track for this harness (last call wins).
  void SetHeadline(const std::string& metric, double value) {
    headline_metric_ = metric;
    headline_value_ = value;
  }

  /// Which bound certified the headline metric ("stationary_bound" for
  /// Session's certificate and the theorems evaluated directly,
  /// "monte_carlo" for ablation (d)'s origin-0 analysis, or "none" for
  /// harnesses that do no privacy accounting).
  void SetAccountant(const std::string& name) { accountant_ = name; }

  /// Call on a harness error path before returning from main: the final
  /// record keeps "completed": false, so trajectory tooling never mistakes
  /// a bailed run for a measured data point.
  void MarkFailed() { failed_ = true; }

  /// Extra key/value pairs for the "metrics" object.
  void AddMetric(const std::string& key, double value) {
    extras_.emplace_back(key, value);
  }

  /// Per-operation latency tail for the "latencies" object (serving
  /// harnesses; milliseconds).  One entry per op name, last call wins.
  void AddLatency(const std::string& op, double p50_ms, double p99_ms,
                  double p999_ms) {
    for (auto& l : latencies_) {
      if (l.op == op) {
        l = LatencyRow{op, p50_ms, p99_ms, p999_ms};
        return;
      }
    }
    latencies_.push_back(LatencyRow{op, p50_ms, p99_ms, p999_ms});
  }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  ~BenchRunner() {
    const double wall = elapsed_seconds();
    if (Write(/*completed=*/!failed_)) {
      std::printf("[bench] %s: %.3fs at %zu thread%s -> %s\n", name_.c_str(),
                  wall, threads_, threads_ == 1 ? "" : "s",
                  OutputPath().c_str());
    }
  }

 private:
  std::string OutputPath() const {
    const char* dir = std::getenv("NS_BENCH_DIR");
    return std::string(dir != nullptr && *dir != '\0' ? dir : ".") +
           "/BENCH_" + name_ + ".json";
  }

  bool Write(bool completed) const {
    const std::string path = OutputPath();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchRunner: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema_version\": 5,\n");
    std::fprintf(f, "  \"name\": \"%s\",\n", name_.c_str());
    std::fprintf(f, "  \"threads\": %zu,\n", threads_);
    std::fprintf(f, "  \"scale\": %s,\n", Number(scale_).c_str());
    std::fprintf(f, "  \"accountant\": \"%s\",\n", accountant_.c_str());
    std::fprintf(f, "  \"completed\": %s,\n", completed ? "true" : "false");
    std::fprintf(f, "  \"wall_seconds\": %s,\n",
                 Number(elapsed_seconds()).c_str());
    std::fprintf(f, "  \"peak_rss_mb\": %s,\n", Number(PeakRssMb()).c_str());
    std::fprintf(f, "  \"headline\": {\"metric\": \"%s\", \"value\": %s},\n",
                 headline_metric_.c_str(), Number(headline_value_).c_str());
    std::fprintf(f, "  \"metrics\": {");
    for (size_t i = 0; i < extras_.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ",
                   extras_[i].first.c_str(), Number(extras_[i].second).c_str());
    }
    if (latencies_.empty()) {
      std::fprintf(f, "}\n}\n");
    } else {
      std::fprintf(f, "},\n  \"latencies\": {");
      for (size_t i = 0; i < latencies_.size(); ++i) {
        const LatencyRow& l = latencies_[i];
        std::fprintf(
            f, "%s\"%s\": {\"p50_ms\": %s, \"p99_ms\": %s, \"p999_ms\": %s}",
            i == 0 ? "" : ", ", l.op.c_str(), Number(l.p50_ms).c_str(),
            Number(l.p99_ms).c_str(), Number(l.p999_ms).c_str());
      }
      std::fprintf(f, "}\n}\n");
    }
    std::fclose(f);
    return true;
  }

  static std::string Number(double v) {
    if (!std::isfinite(v)) return "null";  // keep the JSON parseable
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
  }

  std::string name_;
  size_t threads_;
  double scale_;
  bool failed_ = false;
  std::string accountant_ = "none";
  std::chrono::steady_clock::time_point start_;
  std::string headline_metric_ = "unset";
  double headline_value_ = 0.0;
  std::vector<std::pair<std::string, double>> extras_;
  struct LatencyRow {
    std::string op;
    double p50_ms, p99_ms, p999_ms;
  };
  std::vector<LatencyRow> latencies_;
};

/// The graph's spectral gap for harnesses that derive rounds from it, or
/// nullopt when the estimate has not converged: a harness never prints
/// numbers off an unverified gap, so it notes the failure on stderr, marks
/// `bench` failed and should return non-zero (Session::Create fails closed
/// the same way, with kSpectralGapUnresolved).
inline std::optional<double> ConvergedGap(const Graph& g, BenchRunner* bench) {
  const SpectralGapEstimate estimate = EstimateSpectralGap(g);
  if (!estimate.converged) {
    std::fprintf(stderr,
                 "spectral-gap estimate did not converge in %zu Lanczos "
                 "steps (residual %.2e)\n",
                 estimate.iterations, estimate.residual);
    bench->MarkFailed();
    return std::nullopt;
  }
  return estimate.gap;
}

/// Tail extraction for serving benches: sorts in place and reads the
/// nearest-rank quantile (q in [0, 1]); 0 on an empty sample.
inline double QuantileInPlace(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const size_t last = samples->size() - 1;
  const size_t rank = static_cast<size_t>(q * static_cast<double>(last) + 0.5);
  return (*samples)[std::min(rank, last)];
}

/// Builds (or reloads from an on-disk cache) a synthetic dataset.  The cache
/// makes repeated bench invocations fast; delete *.edges files to refresh.
inline SyntheticDataset LoadOrMakeDataset(const std::string& name,
                                          uint64_t seed, double scale) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "netshuffle_%s_s%.3f_seed%llu.edges",
                name.c_str(), scale, static_cast<unsigned long long>(seed));
  const std::string path = buf;
  const auto& spec = FindSpec(name);
  // Compare against exactly what regeneration would produce.
  const size_t target_n = TargetNodeCount(spec, scale);
  Graph cached;
  if (LoadEdgeList(path, &cached) && cached.num_nodes() == target_n) {
    SyntheticDataset ds;
    ds.name = name;
    ds.graph = std::move(cached);
    ds.target_n = target_n;
    ds.target_gamma = spec.gamma;
    ds.actual_gamma = StationaryGamma(ds.graph);
    return ds;
  }
  if (cached.num_nodes() > 0 && cached.num_nodes() != target_n) {
    std::fprintf(stderr,
                 "%s: cached graph has %zu nodes but spec wants %zu; "
                 "regenerating\n",
                 path.c_str(), cached.num_nodes(), target_n);
  }
  SyntheticDataset ds = MakeDatasetByName(name, seed, scale);
  SaveEdgeList(ds.graph, path);
  return ds;
}

}  // namespace netshuffle

#endif  // NETSHUFFLE_BENCH_EXPERIMENT_COMMON_H_
