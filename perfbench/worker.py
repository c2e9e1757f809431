"""One round of a benchmark workload, in a fresh interpreter.

Run by run.py, one round process at a time:

    python3 perfbench/worker.py --workload NAME --seed N --round R --trace 0|1

The round imports the library from the checkout's `src/`, runs every
operation of the workload once cold (and once more warm, on memos the cold
pass filled), checks each output against the arithmetic oracle in gen.py,
and prints one JSON object on its last stdout line: per-item raw times with
the kernel passes read around and during them, the operation counts, the
problems found and, when traced, per-layer times, work counts and spans.

A fresh interpreter per round keeps every round cold whatever the
library's module-level memos are keyed on, and stops memory held by one
round from slowing the next.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

from kernel import Meter, scale  # noqa: E402  (HERE is on sys.path as the script dir)

import gen  # noqa: E402

WORKLOADS = ("theorems-builtin", "krasner-corpus", "product-ladder")

# warm passes are memo lookups of a few microseconds each, so they are timed
# over this many repetitions and reported per pass
WARM_REPEATS = {"theorems-builtin": 1, "krasner-corpus": 30, "product-ladder": 200}

# set-ups per round (untraced); a set-up is one import of the library, plus
# builtin_corpus() on theorems-builtin
SETUP_REPEATS = {"theorems-builtin": 2, "krasner-corpus": 5, "product-ladder": 5}

# library functions the traced run wraps, by span name; a span's self time
# is charged to the per-layer metric named here
TRACED = {
    "documents.parse_document": "documents.parse_s",
    "documents.serialize_document": "documents.serialize_s",
    "core.validate_krasner": "core.validate_s",
    "construct.direct_product": "construct.product_s",
    "construct.quotient": "construct.quotient_s",
    "ideals.enumerate_hyperideals": "ideals.enumerate_s",
    "ideals.radical_by_primes": "ideals.radical_primes_s",
    "ideals.radical_by_powers": "ideals.radical_powers_s",
    "classify.classify": "classify.classify_s",
    "corpus.builtin_corpus": "corpus.builtin_s",
}


def theorem_slug(theorem_id):
    """'Thm 2.3' -> 'thm-2.3', 'Cor 4.12' -> 'cor-4.12'."""
    return theorem_id.lower().replace(" ", "-")


class Tracer:
    """Spans (name, start, end, parent index) kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def open(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def install(self, hr):
        """Replace each traced function wherever the package binds it, so
        calls made inside the library are spanned too."""
        modules = [hr] + [importlib.import_module(f"hyperrings.{name}")
                          for name in ("core", "documents", "ideals", "classify",
                                       "construct", "corpus", "theorems")]
        for span in TRACED:
            module_name, attr = span.split(".")
            original = getattr(importlib.import_module(f"hyperrings.{module_name}"),
                               attr)
            wrapped = self.wrap(span, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)


class Recorder:
    """Times operations between kernel readings and counts library calls."""

    def __init__(self, tracer):
        self.meter = Meter()
        self.tracer = tracer
        self.items = []       # [item, phase, raw seconds, kernel readings]
        self.span_item = {}   # root span index -> index into items
        self.counts = {"ideals.count": 0, "classify.count": 0,
                       "theorems.instances": 0}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def time(self, item, phase, fn, repeats=1):
        """Run fn `repeats` times as one timed operation; return its last
        result."""
        def body():
            if self.tracer:
                span = self.tracer.open(f"op:{phase}:{item}")
                self.span_item[span] = len(self.items)
            for _ in range(repeats):
                out = fn()
            if self.tracer:
                self.tracer.close(span)
            return out

        out, raw, readings = self.meter.measure(body)
        self.items.append([item, phase, raw / repeats, readings])
        return out

    def call(self, fn, *args, expect=()):
        """One library call; an exception in `expect` counts as a failed
        operation, any other one as a failed operation and a problem."""
        self.attempted += 1
        try:
            return fn(*args)
        except expect:
            self.failed += 1
        except Exception as e:  # noqa: BLE001  reported, the round goes on
            self.failed += 1
            self.problems.append(f"{getattr(fn, '__name__', fn)}: "
                                 f"{type(e).__name__}: {e}")
        return None

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)


def import_library():
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    hr = importlib.import_module("hyperrings")
    where = os.path.dirname(os.path.abspath(hr.__file__))
    if where != os.path.join(SRC, "hyperrings"):
        raise SystemExit(f"hyperrings imported from {where}, not from {SRC}")
    return hr


def set_up(workload, tracer):
    hr = import_library()
    if tracer:
        tracer.install(hr)
    corpus = hr.builtin_corpus() if workload == "theorems-builtin" else None
    return hr, corpus


def forget_library():
    """Drop the library's modules, so the next import runs them afresh
    (with empty memos)."""
    for name in [m for m in sys.modules
                 if m == "hyperrings" or m.startswith("hyperrings.")]:
        del sys.modules[name]


def labels(ring, members):
    return frozenset(ring.labels[x] for x in members)


# -- workloads ------------------------------------------------------------------

def theorems_builtin(hr, rec, corpus, rng):
    """Returns the cold reports' rendering, which every round must repeat."""
    renders = {}
    for phase in ("cold", "warm"):
        for tid in hr.THEOREM_IDS:
            report = rec.time(theorem_slug(tid), phase,
                              lambda: rec.call(hr.run_theorem, tid, corpus))
            if report is None:
                continue
            text = report.render()
            rec.check(report.status != "fail", f"{tid}: status fail: {text}")
            if phase == "cold":
                renders[tid] = text
                rec.counts["theorems.instances"] += report.instances
            else:
                rec.check(text == renders.get(tid),
                          f"{tid}: warm report differs from cold")
    return "\n".join(renders[t] for t in hr.THEOREM_IDS if t in renders)


def _corpus_cold(hr, rec, item, out):
    ring = rec.call(hr.parse_document, item.text)
    if ring is None:
        return
    out["ring"] = ring
    lattice = rec.call(hr.enumerate_hyperideals, ring) or []
    rec.counts["ideals.count"] += len(lattice)
    for p in lattice:
        if not p.proper:
            continue
        rad_p = rec.call(hr.radical_by_primes, ring, p)
        rad_w = rec.call(hr.radical_by_powers, ring, p)
        record = rec.call(hr.classify, p, expect=hr.InternalInconsistencyError)
        rec.counts["classify.count"] += 1
        quot = rec.call(hr.quotient, ring, p)
        out["ideals"].append((p, rad_p, rad_w, record, quot))
    out["text"] = rec.call(hr.serialize_document, ring)


def _corpus_warm(hr, rec, ring):
    lattice = rec.call(hr.enumerate_hyperideals, ring) or []
    for p in lattice:
        if p.proper:
            rec.call(hr.radical_by_primes, ring, p)
            rec.call(hr.radical_by_powers, ring, p)
            rec.call(hr.classify, p, expect=hr.InternalInconsistencyError)
            rec.call(hr.quotient, ring, p)


def _corpus_check(rec, item, out):
    ring = out.get("ring")
    if ring is None:
        return
    name = item.name
    rec.check(out["text"] == item.text, f"{name}: serialize(parse(text)) != text")
    got = {labels(ring, p.members) for p, *_ in out["ideals"]}
    rec.check(got == set(item.ideals),
              f"{name}: proper hyperideals {sorted(map(sorted, got))} are not "
              f"the images of dZ_k")
    for p, rad_p, rad_w, record, quot in out["ideals"]:
        ideal = labels(ring, p.members)
        if ideal not in item.ideals:
            continue
        tag = f"{name} {ring.subset_label(p.members)}"
        want = item.radicals[ideal]
        rec.check(rad_p is not None and labels(ring, rad_p) == want,
                  f"{tag}: radical_by_primes is not the image of rad(d)Z_k")
        rec.check(rad_w is not None and labels(ring, rad_w) == want,
                  f"{tag}: radical_by_powers is not the image of rad(d)Z_k")
        if record is not None:
            o = record.outcomes
            rec.check(o["prime"] == item.prime(ideal), f"{tag}: prime={o['prime']}")
            for key in ("primary", "q_primary"):
                rec.check(o[key] == item.primary(ideal), f"{tag}: {key}={o[key]}")
        if quot is not None:
            table = quot[0]
            rec.check(table.size == item.quotient_sizes[ideal],
                      f"{tag}: quotient has {table.size} elements, "
                      f"U has {item.quotient_sizes[ideal]} orbits on Z_d")
            rec.check(table.validation is not None and table.validation.passed,
                      f"{tag}: quotient fails validation")


def krasner_corpus(hr, rec, corpus, rng):
    items = gen.krasner_corpus()
    rng.shuffle(items)
    outs = {}
    for item in items:
        outs[item.name] = out = {"ideals": []}
        rec.time(item.name, "cold", lambda: _corpus_cold(hr, rec, item, out))
    for item in items:
        ring = outs[item.name].get("ring")
        if ring is not None:
            rec.time(item.name, "warm", lambda: _corpus_warm(hr, rec, ring),
                     WARM_REPEATS["krasner-corpus"])
    for item in items:
        _corpus_check(rec, item, outs[item.name])


def _rung_cold(hr, rec, base, factor, out):
    g = rec.call(hr.parse_document, base.text)
    f = rec.call(hr.parse_document, factor.text)
    if g is None or f is None:
        return
    out["factors"] = (g, f)
    p = out["product"] = rec.call(hr.direct_product, g, f)
    if p is None:
        return
    lattice = out["lattice"] = rec.call(hr.enumerate_hyperideals, p) or []
    rec.counts["ideals.count"] += len(lattice)
    zero = frozenset({p.zero})
    out["rad_p"] = rec.call(hr.radical_by_primes, p, zero)
    out["rad_w"] = rec.call(hr.radical_by_powers, p, zero)


def _rung_warm(hr, rec, g, f):
    p = rec.call(hr.direct_product, g, f)
    rec.call(hr.enumerate_hyperideals, p)
    zero = frozenset({p.zero})
    rec.call(hr.radical_by_primes, p, zero)
    rec.call(hr.radical_by_powers, p, zero)


def product_ladder(hr, rec, corpus, rng):
    base, factors = gen.ladder()
    rng.shuffle(factors)
    for factor in factors:
        name = f"{base.name}x{factor.name}"
        out = {}
        rec.time(name, "cold", lambda: _rung_cold(hr, rec, base, factor, out))
        p = out.get("product")
        if p is None:
            continue
        rec.time(name, "warm", lambda: _rung_warm(hr, rec, *out["factors"]),
                 WARM_REPEATS["product-ladder"])
        rec.check(p.size == base.size * factor.size, f"{name}: size {p.size}")
        rec.check(p.validation is not None and p.validation.passed,
                  f"{name}: product fails validation")
        got = {labels(p, i.members) for i in out["lattice"]}
        rec.check(got == gen.product_lattice(base, factor),
                  f"{name}: lattice is not {{I1 x I2}}")
        want = gen.product_zero_radical(base, factor)
        for key in ("rad_p", "rad_w"):
            rec.check(out[key] is not None and labels(p, out[key]) == want,
                      f"{name}: {key} of zero is not rad(0) x rad(0)")


RUNNERS = {"theorems-builtin": theorems_builtin,
           "krasner-corpus": krasner_corpus,
           "product-ladder": product_ladder}


# -- per-layer totals from spans --------------------------------------------------

def layer_totals(spans, span_item, scales):
    """Self time per layer metric, each span scaled by the factor of the
    operation it ran in."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = dict.fromkeys(TRACED.values(), 0.0)
    root = [0] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        if name in TRACED:
            totals[TRACED[name]] += ((end - start - child_time[i])
                                     * scales[span_item[root[i]]])
    return totals


# -- main -------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    rec = Recorder(tracer)

    # set-up: a fresh interpreter up to the first timed operation, repeated
    # on fresh imports of the library so that the run has many samples
    repeats = 1 if tracer else SETUP_REPEATS[args.workload]
    for i in range(repeats):
        if i:
            forget_library()
        hr, corpus = rec.time("setup", "setup", lambda: set_up(args.workload, tracer))

    rng = random.Random(f"{args.workload}:{args.seed}:{args.round}")
    rendered = RUNNERS[args.workload](hr, rec, corpus, rng) or ""

    result = {
        "items": rec.items,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "problems": rec.problems,
        "digest": hashlib.sha256(rendered.encode()).hexdigest(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        scales = [scale(readings) for *_, readings in rec.items]
        result["layers"] = layer_totals(tracer.spans, rec.span_item, scales)
        result["counts"] = rec.counts
        result["spans"] = tracer.spans
    json.dump(result, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
