#!/usr/bin/env python3
"""Time-to-certificate benchmark launcher.

Builds perfbench_ttc against the repository's library, runs one workload at
its pinned pool width, and prints the workload's metrics as the last line of
standard output:

    python3 perfbench/run.py --workload serve_steady --seed 7 --seconds 15 \
        --trace 0

--workload all runs every workload in turn, one result line each.
--trace 0 prints the end-to-end metrics of an untraced run; --trace 1 runs
an untraced and a traced pass in one process and prints the per-layer
metrics derived from the traced pass's spans, plus the traced-minus-untraced
overhead of every end-to-end metric.  The exit status is 0 only when the
build, the run and every output check succeed.  Everything the run writes
(build tree, run documents, compiler temporaries) lands
under $CARGO_TARGET_DIR, or .bench_build/ at the repository root.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Pool width (NS_THREADS) pinned per workload; perfbench_ttc reads it back
# through ThreadCount() and records it.  serve_churn adds one open-loop reader
# thread on a CPU of its own, and perfbench_ttc refuses to start when the
# process may use fewer CPUs than the pool (plus that reader) needs.  The
# pool hands out chunks dynamically, so a wide pool lets the other CPUs take
# over work from one slowed by a co-tenant; at width 1 the whole run rides on
# a single shared CPU's speed (see README.md, "Pool widths").
POOL_WIDTH = {
    "cold_certify": 4,
    "serve_steady": 4,
    "serve_churn": 3,
}

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(out_dir, env):
    """Configures (once) and builds perfbench_ttc; returns its path or None."""
    cmake_dir = out_dir / "perfbench"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                  "perfbench_ttc", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return None
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    exe = cmake_dir / "perfbench_ttc"
    return exe if exe.exists() else None


# ---- statistics -------------------------------------------------------------

def quantile(xs, q):
    """Linear-interpolation quantile (0 for an empty sample)."""
    s = sorted(xs)
    if not s:
        return 0.0
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(xs):
    return quantile(xs, 0.5)


def end_to_end(p):
    """The user-facing metrics of one pass (see BENCHMARK.json)."""
    return {
        "setup_s": (median(p["setup_s"]), "s"),
        "time_to_certificate_s": (median(p["ttc_s"]), "s"),
        "certified_reports_per_s": (
            p["reports"] / p["loop_s"] if p["loop_s"] > 0 else 0.0,
            "reports/s"),
        "epoch_ms_p50": (quantile(p["epoch_ms"], 0.50), "ms"),
        "certified_epsilon": (median(p["epsilon"]), "eps"),
        "peak_rss_mb": (median(p["peak_rss_mb"]), "MB"),
    }


# ---- spans ------------------------------------------------------------------

class Trace:
    """The traced pass's spans: mutator spans form a tree by parent index,
    reader spans are roots (one per open-loop query)."""

    def __init__(self, spans):
        self.spans = [s for s in spans if s["thread"] == "mutator"]
        self.reader = [s for s in spans if s["thread"] == "reader"]
        self.children = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s["parent"] >= 0:
                self.children[int(s["parent"])].append(i)

    @staticmethod
    def ms(s):
        return (s["end_ns"] - s["start_ns"]) * 1e-6

    def named(self, name):
        return [i for i, s in enumerate(self.spans) if s["name"] == name]

    def durations(self, name):
        return [self.ms(self.spans[i]) for i in self.named(name)]

    def kids(self, i, name=None):
        return [c for c in self.children[i]
                if name is None or self.spans[c]["name"] == name]

    def ns_per_count(self, i):
        s = self.spans[i]
        return (s["end_ns"] - s["start_ns"]) / max(s["count"], 1)

    def self_ms(self, i):
        return self.ms(self.spans[i]) - sum(self.ms(self.spans[c])
                                            for c in self.children[i])

    def subtree_ms(self, i, names):
        """Total duration of descendants of i named in `names`."""
        total = 0.0
        for c in self.children[i]:
            if self.spans[c]["name"] in names:
                total += self.ms(self.spans[c])
            else:
                total += self.subtree_ms(c, names)
        return total

    def epoch_problems(self):
        """Children of an epoch must nest inside it without overlapping, so
        that layer self times plus the epoch's own (unattributed) time sum
        to the epoch wall time."""
        problems = 0
        for i in self.named("epoch") + self.named("session"):
            s = self.spans[i]
            kids = sorted((self.spans[c] for c in self.children[i]),
                          key=lambda k: k["start_ns"])
            prev_end = s["start_ns"]
            for k in kids:
                if k["start_ns"] < prev_end or k["end_ns"] > s["end_ns"]:
                    problems += 1
                prev_end = k["end_ns"]
        return problems

    def overlap_share(self, names):
        """Share of reader queries whose [due, end] interval overlaps a
        mutator span named in `names`."""
        blockers = sorted((s["start_ns"], s["end_ns"]) for s in self.spans
                          if s["name"] in names)
        if not self.reader:
            return 0.0
        hit = 0
        for q in self.reader:
            lo, hi = q["due_ns"], q["end_ns"]
            if any(b0 < hi and b1 > lo for b0, b1 in blockers):
                hit += 1
        return hit / len(self.reader)


def per_layer(untraced, traced):
    t = Trace(traced["spans"])
    sp = t.spans
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("validate.ms", median(t.durations("validate")), "ms")
    put("spectral.ms", median(t.durations("spectral")), "ms")
    put("spectral.iterations",
        median([sp[i]["count"] for i in t.named("spectral")]), "count")
    put("spectral.gap", median(traced["spectral_gap"]), "gap")
    shares = []
    for i in t.named("session"):
        create = sum(t.ms(sp[c]) for c in t.kids(i, "create"))
        spectral = t.subtree_ms(i, {"spectral"})
        if create > 0:
            shares.append(spectral / create)
    put("spectral.setup_share", median(shares), "ratio")
    put("walk.sum_squares_ms", median(t.durations("sum_squares")), "ms")
    put("walk.mixing_rounds", median(traced["mixing_rounds"]), "count")

    put("exchange.round_ms_p50", median(t.durations("round")), "ms")
    put("exchange.ns_per_report_round",
        median([t.ns_per_count(i) for i in t.named("round")]), "ns")
    epochs = t.named("epoch")
    put("exchange.epoch_ms",
        median([sum(t.ms(sp[c]) for c in t.kids(i, "round")) for i in epochs]),
        "ms")
    put("inject.ms", median(t.durations("inject")), "ms")

    ingest = t.named("ingest")
    put("ingest.ns_per_report",
        median([t.ns_per_count(i) for i in ingest]), "ns")
    put("ingest.bytes_per_report",
        median([sp[i]["bytes"] / max(sp[i]["count"], 1) for i in ingest]),
        "B")
    serving = [i for i in epochs if sp[i]["epoch"] >= 1]
    put("epoch.exchange_ingest_share",
        median([(t.subtree_ms(i, {"round", "ingest"})) / t.ms(sp[i])
                for i in serving if t.ms(sp[i]) > 0]), "ratio")

    put("epoch.begin_ms", median(t.durations("begin")), "ms")
    put("rewire.ms", median(t.durations("rewire")), "ms")
    # What Rewire / Create spent beyond the standalone calls of the probe
    # recorded beside it.
    probed = {"validate", "spectral", "sum_squares", "inject"}
    put("rewire.other_ms",
        median([t.ms(sp[r]) - t.subtree_ms(i, probed)
                for i in epochs for r in t.kids(i, "rewire")]), "ms")
    put("create.other_ms",
        median([t.ms(sp[c]) - t.subtree_ms(i, probed)
                for i in t.named("session") for c in t.kids(i, "create")]),
        "ms")

    put("finalize.ms", median(t.durations("finalize")), "ms")
    put("server.receive_ms", median(t.durations("receive")), "ms")
    put("server.coverage", traced["min_coverage"], "share")
    certify = t.durations("certify") + [Trace.ms(q) for q in t.reader]
    put("certify.us", median(certify) * 1e3, "us")
    put("epoch.ms_p90", quantile(untraced["epoch_ms"], 0.90), "ms")
    put("query.us_p50", quantile(untraced["query_us"], 0.50), "us")
    put("query.us_p99", quantile(untraced["query_us"], 0.99), "us")
    put("query.lateness_ms_max", traced["max_lateness_ms"], "ms")
    put("query.overlap_share", t.overlap_share({"begin", "rewire"}), "share")

    put("rss.after_setup_mb", traced["rss_after_setup_mb"], "MB")
    put("unattributed.ms", median([t.self_ms(i) for i in epochs]), "ms")
    put("spans.count", len(sp) + len(t.reader), "count")

    base = end_to_end(untraced)
    for name, (value, unit) in end_to_end(traced).items():
        put("overhead." + name, value - base[name][0], unit)
    return m, t.epoch_problems()


def summary(doc, p):
    """Human-readable lines: sample counts, and the user-facing numbers too
    noisy on shared machines to carry a regression bound."""
    attempted, failed = int(doc["attempted"]), int(doc["failed"])
    q = p["query_us"]
    print(f"{doc['workload']} (traced={bool(p['traced'])}): n={doc['n']} "
          f"pool_width={doc['threads']} sessions={p['sessions']} "
          f"epoch_samples={len(p['epoch_ms'])} queries={len(q)} "
          f"loop_s={p['loop_s']:.3f} input_gen_s={doc['input_gen_s']:.3f}")
    print(f"  op_failure_rate = {failed / max(attempted, 1):.6g} failed/attempted"
          f" ({failed} of {attempted} calls)")
    print(f"  epoch_ms_p90 = {quantile(p['epoch_ms'], 0.90):.4g} ms over "
          f"{len(p['epoch_ms'])} epochs")
    if q:
        print(f"  query_us_p50 = {quantile(q, 0.50):.4g} us, query_us_p99 = "
              f"{quantile(q, 0.99):.4g} us (open loop, due-time latency; "
              f"generator lateness max {p['max_lateness_ms']:.3f} ms)")


def run_workload(exe, out_dir, env, workload, seed, seconds, trace):
    """Runs one workload; returns its result object, or None when the
    program could not produce one."""
    width = POOL_WIDTH[workload]
    env = dict(env, NS_THREADS=str(width), NS_SHARDS="1")
    env.pop("NS_BACKEND", None)
    doc_path = out_dir / f"run-{workload}-seed{seed}-trace{trace}.json"
    if doc_path.exists():
        doc_path.unlink()
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(doc_path)]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return None
    if done.returncode not in (0, 1) or not doc_path.exists():
        log(f"perfbench: perfbench_ttc exited with {done.returncode}")
        return None
    doc = json.loads(doc_path.read_text())
    passes = doc["passes"]
    for p in passes:
        summary(doc, p)

    failures = list(doc["check_failures"])
    if trace == 0:
        metrics = end_to_end(passes[0])
    else:
        metrics, problems = per_layer(passes[0], passes[1])
        if problems:
            failures.append(f"{problems} spans overlap or leave their epoch")
    for f in failures:
        log(f"perfbench: check failed: {f}")
    correct = (done.returncode == 0 and not failures and
               all(math.isfinite(v) for v, _ in metrics.values()))
    return {
        "correct": correct,
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(POOL_WIDTH) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out_dir = build_dir()
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    exe = build(out_dir, env)
    if exe is None:
        return 2

    names = sorted(POOL_WIDTH) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result = run_workload(exe, out_dir, env, name, args.seed,
                              args.seconds, args.trace)
        if result is None:
            return 2
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
