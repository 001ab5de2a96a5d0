#!/usr/bin/env python3
"""Perf-regression gate for the scale CI job (stdlib only).

Compares the headline of a fresh BENCH_<name>.json against the pinned
baseline in bench/baseline_*.json and fails (exit 1) when the measured
headline drops below tolerance * baseline.  A run that did not complete
("completed": false) also fails: a bailed harness must not pass the gate.

Beyond the headline, a baseline can pin higher-is-WORSE metrics:

  - "p99_latency_ms" (top-level, legacy spelling): gates
    metrics.p99_latency_ms at pinned / tolerance.
  - "metrics_higher_is_worse": {"<key>": pinned, ...}: gates each
    metrics.<key> the same way.  The out-of-core baseline pins
    "mmap_peak_rss_mb" and "bytes_moved_per_user" through this, so a change
    that silently re-residents the columns or inflates I/O volume fails CI
    even if throughput is fine.

Apples-to-apples checks: the bench's "threads" must match the baseline's,
and its "scale" must match the baseline's pinned "scale" (default 1.0 —
out-of-core baselines pin their up-scaled NS_SCALE explicitly).

Every failure names the offending metric with baseline vs measured values;
a metric pinned in the baseline but missing from the bench JSON is a clear
FAIL message, never a traceback.

Usage: perf_gate.py <BENCH_json> <baseline_json> [tolerance]

`tolerance` is the allowed fraction of the baseline (default 0.8, i.e. fail
on a > 20% throughput drop; higher-is-worse metrics may grow to
pinned / tolerance).  Speedups / shrinkage always pass and are reported so
the trajectory is visible in the CI log.
"""

import json
import sys


def fail(message: str) -> int:
    print(f"FAIL: {message}")
    return 1


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench_path, baseline_path = sys.argv[1], sys.argv[2]
    tolerance = float(sys.argv[3]) if len(sys.argv) > 3 else 0.8

    with open(bench_path) as f:
        bench = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)

    if not bench.get("completed", False):
        return fail(f"{bench_path} has completed=false (harness bailed)")

    # Apples to apples: a 4-thread run against a 1-thread baseline would
    # hide a multi-x single-thread regression behind the parallel speedup,
    # and a wrong NS_SCALE changes n out from under every pinned number.
    if bench.get("threads") != baseline.get("threads"):
        return fail(
            f"thread-count mismatch: bench ran at "
            f"{bench.get('threads')} thread(s), baseline pins "
            f"{baseline.get('threads')} — rerun with NS_THREADS="
            f"{baseline.get('threads')} (or re-pin the baseline)"
        )
    pinned_scale = baseline.get("scale", 1.0)
    if bench.get("scale", 1.0) != pinned_scale:
        return fail(
            f"bench ran at NS_SCALE={bench.get('scale')}; the pinned "
            f"baseline is NS_SCALE={pinned_scale} (n={baseline.get('n')})"
        )

    metric = baseline.get("headline_metric")
    if metric is None:
        return fail(f"{baseline_path} pins no 'headline_metric'")
    headline = bench.get("headline", {})
    if headline.get("metric") != metric:
        return fail(
            f"headline metric mismatch: bench tracks "
            f"{headline.get('metric')!r}, baseline pins {metric!r}"
        )
    measured = headline.get("value")
    pinned = baseline.get("reports_per_sec")
    if pinned is None:
        return fail(f"{baseline_path} pins no 'reports_per_sec' value")
    if not isinstance(measured, (int, float)) or measured <= 0:
        return fail(
            f"{metric}: baseline pins {pinned:.4g} but the bench headline "
            f"value is non-numeric ({measured!r})"
        )

    ratio = measured / pinned
    verdict = "PASS" if ratio >= tolerance else "FAIL"
    print(
        f"{verdict}: {metric} = {measured:.4g} vs baseline "
        f"{pinned:.4g} ({ratio:.2f}x, gate at {tolerance:.2f}x of baseline, "
        f"source commit {baseline.get('source_commit', '?')})"
    )
    failed = verdict == "FAIL"

    # Higher-is-worse gates: the measured value may grow to at most
    # pinned / tolerance.  Two spellings — the legacy top-level
    # "p99_latency_ms" pin and the generic "metrics_higher_is_worse" map.
    worse_pins = dict(baseline.get("metrics_higher_is_worse", {}))
    if baseline.get("p99_latency_ms") is not None:
        worse_pins.setdefault("p99_latency_ms", baseline["p99_latency_ms"])
    bench_metrics = bench.get("metrics", {})
    for key, pinned_worse in worse_pins.items():
        measured_worse = bench_metrics.get(key)
        if not isinstance(measured_worse, (int, float)) or measured_worse <= 0:
            print(
                f"FAIL: baseline pins {key} = {pinned_worse:.4g} but the "
                f"bench has no numeric metrics.{key} (got {measured_worse!r})"
            )
            failed = True
            continue
        allowed = pinned_worse / tolerance
        worse_verdict = "PASS" if measured_worse <= allowed else "FAIL"
        print(
            f"{worse_verdict}: {key} = {measured_worse:.4g} vs baseline "
            f"{pinned_worse:.4g} (gate at <= {allowed:.4g}; higher is worse)"
        )
        failed = failed or worse_verdict == "FAIL"

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
