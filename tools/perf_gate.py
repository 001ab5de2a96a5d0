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

Parent mode (host drift cancels): the same harness built at the parent
commit and at the change, run interleaved on one host.

  perf_gate.py --vs-parent --parent P1.json ... P5.json \
               --change C1.json ... C5.json

Fails when the change's median headline is below 0.8x the parent's
median, when either side has fewer than five runs, when any run did not
complete, or when the runs disagree on the headline metric, the thread
count or NS_SCALE.  Medians, not bests: on a shared host single runs
spread by +-20%, and a copy 12-43% slower per run passed a best-of-3
gate at 0.88x; one slow run out of five moves a median by one rank.

  perf_gate.py --self-test    runs both modes on synthetic records
"""

import argparse
import json
import os
import statistics
import sys
import tempfile


def fail(message: str) -> int:
    print(f"FAIL: {message}")
    return 1


def load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


# Runs per side the parent mode requires: one run on a shared host can be
# slowed by a neighbour, and the gate compares each side's median.
MIN_RUNS = 5

# The parent mode fails when the change's median falls below this fraction
# of the parent's median.
PARENT_TOLERANCE = 0.8


def vs_parent(argv) -> int:
    parser = argparse.ArgumentParser(prog="perf_gate.py --vs-parent")
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)

    runs = {"parent": args.parent, "change": args.change}
    middle = {}
    shape = None
    for side, paths in runs.items():
        if len(paths) < MIN_RUNS:
            return fail(f"{side} has {len(paths)} run(s); the gate needs at "
                        f"least {MIN_RUNS} per side")
        values = []
        for path in paths:
            bench = load(path)
            if not bench.get("completed", False):
                return fail(f"{path} has completed=false (harness bailed)")
            headline = bench.get("headline", {})
            this = (headline.get("metric"), bench.get("threads"),
                    bench.get("scale", 1.0))
            if shape is None:
                shape = this
            elif this != shape:
                return fail(
                    f"{path} ran (metric, threads, scale) = {this}, the "
                    f"first run {shape}: parent and change must run the "
                    f"same configuration")
            value = headline.get("value")
            if not isinstance(value, (int, float)) or value <= 0:
                return fail(f"{path}: headline value is not a positive "
                            f"number ({value!r})")
            values.append(float(value))
        middle[side] = statistics.median(values)
        print(f"{side}: {shape[0]} over {len(values)} runs = "
              + ", ".join(f"{v:.4g}" for v in values)
              + f" (median {middle[side]:.4g})")

    ratio = middle["change"] / middle["parent"]
    verdict = "PASS" if ratio >= PARENT_TOLERANCE else "FAIL"
    print(f"{verdict}: median change / median parent = {ratio:.3f} "
          f"(gate at {PARENT_TOLERANCE:.2f}, threads={shape[1]})")
    return 0 if verdict == "PASS" else 1


def self_test() -> int:
    """Both modes on synthetic records; exit 1 if any verdict is wrong."""
    def record(value, threads=1, completed=True, metric="reports_per_sec"):
        return {"completed": completed, "threads": threads, "scale": 1.0,
                "headline": {"metric": metric, "value": value}}

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, obj):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(obj, f)
            return path

        def pair_case(label, parent, change, expect):
            ps = [write(f"{label}-p{i}.json", r) for i, r in enumerate(parent)]
            cs = [write(f"{label}-c{i}.json", r) for i, r in enumerate(change)]
            got = vs_parent(["--parent", *ps, "--change", *cs])
            if got != expect:
                failures.append(f"vs-parent {label}: exit {got}, "
                                f"expected {expect}")

        parent = (3.0e7, 3.6e7, 3.3e7, 2.9e7, 3.4e7)
        base = [record(v) for v in parent]

        def scaled(factors):
            return [record(v * f) for v, f in zip(parent, factors)]

        pair_case("faster", base, scaled((1.2, 1.1, 1.3, 1.2, 1.25)), 0)
        # Within the host's spread: one slow run moves the median one rank.
        pair_case("noisy", base, scaled((0.3, 0.95, 1.1, 0.9, 1.0)), 0)
        pair_case("regressed", base, scaled((0.75, 0.7, 0.78, 0.72, 0.74)), 1)
        # Every run 12-43% slower than its pair: the bests read 0.81x and
        # would pass a best-of-N gate; the medians read 0.66x.
        pair_case("slow-spread", base, scaled((0.72, 0.57, 0.88, 0.75, 0.65)),
                  1)
        four = [record(4e7)] * 4
        pair_case("too-few", base, four, 1)
        pair_case("bailed", base, four + [record(4e7, completed=False)], 1)
        pair_case("threads", base, four + [record(4e7, threads=4)], 1)
        pair_case("metric", base, [record(4e7, metric="other")] * 5, 1)

        baseline = write("baseline.json", {
            "threads": 1, "headline_metric": "reports_per_sec",
            "reports_per_sec": 3.0e7})
        for label, value, expect in (("pin-pass", 2.5e7, 0),
                                     ("pin-fail", 2.0e7, 1)):
            bench = write(f"{label}.json", record(value))
            got = pinned([bench, baseline, "0.8"])
            if got != expect:
                failures.append(f"pinned {label}: exit {got}, "
                                f"expected {expect}")

    for f in failures:
        print(f"SELF-TEST FAIL: {f}")
    print("self-test:", "FAIL" if failures else "ok")
    return 1 if failures else 0


def pinned(argv) -> int:
    """The absolute mode: one bench record against a pinned baseline."""
    bench_path, baseline_path = argv[0], argv[1]
    tolerance = float(argv[2]) if len(argv) > 2 else 0.8

    bench = load(bench_path)
    baseline = load(baseline_path)

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


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--self-test":
        return self_test()
    if len(sys.argv) > 1 and sys.argv[1] == "--vs-parent":
        return vs_parent(sys.argv[2:])
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    return pinned(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
