"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen.  Criteria with runtime budgets measure fresh objects (freshly
parsed tables get fresh memos, since all memoisation lives in the table
itself), so timings are not flattered by earlier tests.
"""
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from hyperrings.classify import is_prime, is_q_primary, is_sq_primary, is_wsq_primary
from hyperrings.construct import direct_product, quotient
from hyperrings.corpus import DOCUMENT_FILES, builtin_corpus, document_text
from hyperrings.documents import parse_document, serialize_document
from hyperrings.ideals import (enumerate_hyperideals, ideal_from_labels,
                               make_hyperideal, radical_by_powers,
                               radical_by_primes)
from hyperrings.theorems import KNOWN_IMPLICATIONS, implication_matrix

from conftest import brute_force_hyperideals

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def fresh(name, validate=False):
    return parse_document(document_text(name), validate=validate)


def fresh_corpus():
    g = fresh("g.json", validate=True)
    h = fresh("h.json")
    gxg = direct_product(g, g)
    q06, _ = quotient(g, ideal_from_labels(g, "0,6"))
    q0246, _ = quotient(g, ideal_from_labels(g, "0,2,4,6"))
    one = fresh("one.json", validate=True)
    return [g, h, gxg, q06, q0246, one]


def test_criterion_1_example_g_reproduction():
    with criterion(1, "G document reproduction (validation, radical, primality)"):
        start = time.monotonic()
        g = fresh("g.json", validate=True)
        assert g.validation.passed
        p = ideal_from_labels(g, "0,4")
        want = frozenset(g.index(x) for x in ("0", "2", "4", "6"))
        assert radical_by_primes(g, p) == want
        assert radical_by_powers(g, p) == want
        assert is_prime(make_hyperideal(g, want))
        assert is_q_primary(p)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_example_h_reproduction():
    with criterion(2, "H document loads; {0,2} is sq-primary; golden report byte-identical"):
        start = time.monotonic()
        h = fresh("h.json")
        from hyperrings.core import validate_krasner
        report = validate_krasner(h)
        t = make_hyperideal(h, {h.index("0"), h.index("2")}, strict=False)
        assert is_sq_primary(t)
        golden = (GOLDEN / "h_validation_report.txt").read_bytes()
        assert report.render("H").encode() == golden
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_example_wsq_reproduction():
    with criterion(3, "{0,3,6} is wsq-primary in G"):
        start = time.monotonic()
        g = fresh("g.json", validate=True)
        assert is_wsq_primary(ideal_from_labels(g, "0,3,6"))
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_4_radical_oracle_equivalence():
    with criterion(4, "radical_by_primes == radical_by_powers on every corpus hyperideal"):
        start = time.monotonic()
        for ring in fresh_corpus():
            for ideal in enumerate_hyperideals(ring):
                assert (radical_by_primes(ring, ideal)
                        == radical_by_powers(ring, ideal)), (ring.name,
                                                             ideal.render())
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_5_enumeration_oracle():
    with criterion(5, "closure enumeration matches the 2^|R| brute force; G has its six ideals"):
        corpus = builtin_corpus()
        for ring in corpus:
            if ring.size > 8:
                continue
            assert ([i.members for i in enumerate_hyperideals(ring)]
                    == brute_force_hyperideals(ring)), ring.name
        g = corpus[0]
        expect = [frozenset(g.index(x) for x in labels.split(","))
                  for labels in ("0", "0,4", "0,6", "0,3,6", "0,2,4,6",
                                 "0,1,2,3,4,6")]
        assert [i.members for i in enumerate_hyperideals(g)] == expect


@pytest.fixture(scope="module")
def theorem_runs():
    """Two consecutive `hr theorems` subprocess runs over the corpus."""
    runs = []
    for _ in range(2):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "hyperrings.cli", "theorems"],
            capture_output=True)
        runs.append((proc, time.monotonic() - start))
    return runs


def test_criterion_6_theorem_suite(theorem_runs):
    with criterion(6, "hr theorems over the corpus exits 0 with zero failures"):
        proc, elapsed = theorem_runs[0]
        assert proc.returncode == 0, proc.stdout.decode()
        out = proc.stdout.decode()
        assert "fail: 0" in out
        assert "theorems: 24" in out
        # vacuous reports are permitted but must be flagged as such
        for line in out.splitlines():
            if ": vacuous" in line:
                assert "(0 instances)" in line
        assert elapsed < 120.0, f"took {elapsed:.2f}s"


def test_criterion_7_implication_matrix():
    with criterion(7, "all eight known-true implications hold over the corpus"):
        matrix = implication_matrix(builtin_corpus())
        assert len(KNOWN_IMPLICATIONS) == 8
        for a, b in KNOWN_IMPLICATIONS:
            assert matrix.holds(a, b), (a, b, matrix.entries[(a, b)])


def test_criterion_8_round_trip_determinism(theorem_runs):
    with criterion(8, "serialize/parse byte-identity and run-to-run identical theorem output"):
        for filename in DOCUMENT_FILES:
            text = document_text(filename)
            ring = parse_document(text, validate=False)
            assert serialize_document(ring) == text, filename
        (first, _), (second, _) = theorem_runs
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0
