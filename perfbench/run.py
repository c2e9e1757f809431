"""Benchmark of the hyperrings workbench: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run starts one fresh interpreter
(worker.py) per round, one at a time, until S seconds have passed and at
least MIN_ROUNDS rounds are done; every round runs the whole workload.
Each operation's time is scaled by the reference kernel (kernel.py), each
item's time is the low quartile of its scaled times over the run's rounds,
and the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (from spans around the library's public functions).  Each
run also writes its full summary, unscaled figures included, and with
--trace 1 its spans, under perfbench/out/.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
LIBRARY = os.path.join(ROOT, "src", "hyperrings", "__init__.py")

sys.path.insert(0, HERE)
from kernel import scale  # noqa: E402
from worker import TRACED, WORKLOADS, theorem_slug  # noqa: E402

MIN_ROUNDS = 2
# a run ends within this many seconds whatever --seconds says
DEADLINE_S = 170

THEOREM_SLUGS = [theorem_slug(t) for t in (
    "Thm 2.3", "Cor 2.4", "Thm 2.6", "Thm 2.7", "Thm 2.8", "Thm 2.9",
    "Thm 3.3", "Thm 3.4", "Thm 3.5", "Thm 3.7", "Thm 3.8", "Thm 3.9",
    "Thm 4.4", "Cor 4.5", "Thm 4.6", "Thm 4.7", "Cor 4.8", "Thm 4.9",
    "Thm 4.10", "Thm 4.11", "Cor 4.12", "Thm 4.13", "Thm 4.15", "Cor 4.16")]
COUNTS = ("ideals.count", "classify.count", "theorems.instances")


class RoundError(RuntimeError):
    pass


def run_round(workload, seed, index, trace, timeout):
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--round", str(index), "--trace", str(trace)]
    # no bytecode cache: every set-up compiles the library's source, whatever
    # the environment, and the checkout is left as it was
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"round {index} exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail_percentile(n):
    """Highest whole percentile with at least 10 of n items beyond it
    (nearest rank), or None when n <= 10."""
    if n <= 10:
        return None
    return math.floor(100 * (n - 10) / n)


def low_quartile(values):
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def item_times(rounds, phase, scaled=True):
    """Every item's low quartile over the rounds of its times in the
    phase."""
    times = {}
    for r in rounds:
        for item, ph, raw, readings in r["items"]:
            if ph == phase:
                times.setdefault(item, []).append(
                    raw * scale(readings) if scaled else raw)
    return {item: low_quartile(ts) for item, ts in times.items()}


def end_to_end(rounds, scaled=True):
    cold = sorted(item_times(rounds, "cold", scaled).values())
    warm = item_times(rounds, "warm", scaled)
    setup = [raw * (scale(readings) if scaled else 1)
             for r in rounds
             for item, ph, raw, readings in r["items"] if ph == "setup"]
    p = tail_percentile(len(cold))
    tail = cold[-1] if p is None else cold[math.ceil(p * len(cold) / 100) - 1]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "cold_s": (sum(cold), "s"),
        "warm_s": (sum(warm.values()), "s"),
        "structure_p50_ms": (statistics.median(cold) * 1000, "ms"),
        "structure_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (max(r["rss_mb"] for r in rounds), "MB"),
    }, {"items": len(cold), "tail_percentile": p}


def per_layer(rounds, workload):
    """Per-layer self times (median over rounds), the theorem checkers'
    best times, and the work counts."""
    out = {}
    for name in TRACED.values():
        out[name] = (statistics.median(r["layers"][name] for r in rounds), "s")
    theorem = workload == "theorems-builtin"
    for phase in ("cold", "warm"):
        times = item_times(rounds, phase) if theorem else {}
        for slug in THEOREM_SLUGS:
            out[f"theorems.{slug}.{phase}_s"] = (times.get(slug, 0.0), "s")
    for name in COUNTS:
        out[name] = (rounds[0]["counts"][name], "count")
    return out


def problems_across(rounds):
    """Checks that need more than one round: identical outputs and work."""
    out = []
    first = rounds[0]
    for r in rounds[1:]:
        if r["digest"] != first["digest"]:
            out.append("rounds render different outputs")
        if (r["attempted"], r["failed"]) != (first["attempted"], first["failed"]):
            out.append("rounds attempt or fail different operation counts")
        if sorted(i[:2] for i in r["items"]) != sorted(i[:2] for i in first["items"]):
            out.append("rounds time different items")
        if r.get("counts") != first.get("counts"):
            out.append("rounds count different work")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(LIBRARY):
        print(f"error: no library at {os.path.relpath(LIBRARY, ROOT)}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2

    start = time.monotonic()
    rounds = []
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
        left = DEADLINE_S - (time.monotonic() - start)
        if left <= 0:
            break
        try:
            rounds.append(run_round(args.workload, args.seed, len(rounds),
                                    args.trace, left))
        except (RoundError, subprocess.TimeoutExpired) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    if len(rounds) < MIN_ROUNDS:
        print(f"error: only {len(rounds)} round(s) within {DEADLINE_S} s",
              file=sys.stderr)
        return 1

    problems = [p for r in rounds for p in r["problems"]] + problems_across(rounds)
    if args.workload == "theorems-builtin" and \
            set(item_times(rounds, "cold")) != set(THEOREM_SLUGS):
        problems.append("the registry's theorem ids are not the benchmark's")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    scaled, shape = end_to_end(rounds)
    unscaled, _ = end_to_end(rounds, scaled=False)
    metrics = per_layer(rounds, args.workload) if args.trace else scaled
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    summary = dict(result, rounds=len(rounds), **shape,
                   scaled={k: v for k, (v, _) in scaled.items()},
                   unscaled={k: v for k, (v, _) in unscaled.items()},
                   problems=problems)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "round"],
                       "spans": [s + [i] for i, r in enumerate(rounds)
                                 for s in r["spans"]]}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
