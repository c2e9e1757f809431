"""Certified closedness against the closure.

On a certified product or quotient, `_is_closed` answers by membership
in the lattice derived from the factors or the parent (FINDINGS.md (v),
(vi)) and closes no set.  It must agree with the closure test, "the
closure adds nothing", run on an uncertified copy of the table: the same
f and g with an empty memo.  Every subset is checked on the small
certified tables: the products of at most 12 elements that the product
theorems read, products with the one-element hyperring, the quotients of
at most 12 classes of the passing built-in tables and of the folds of G,
quotients of a quotient, and products of G's (2,3) fold.  On GxG and its
quotients drawn subsets are checked.
"""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hyperrings import ideals
from hyperrings.construct import direct_product, quotient
from hyperrings.corpus import builtin_corpus
from hyperrings.ideals import (_is_closed, enumerate_hyperideals,
                               ideal_closure, proper_hyperideals)
from hyperrings.theorems import _Harness

from conftest import fold, mutate

EVERY_SUBSET_UP_TO = 12


def certified(ring):
    return "factors" in ring.memo or "parent" in ring.memo


def quotients(ring):
    return [quotient(ring, p)[0] for p in proper_hyperideals(ring)]


def uncertified(ring):
    """The same f and g in a new table, with an empty memo."""
    return mutate(ring, f"{ring.name}-uncertified")


def assert_agrees(ring, subsets):
    copy = uncertified(ring)
    assert certified(ring) and not certified(copy), ring.name
    for s in map(frozenset, subsets):
        assert _is_closed(ring, s) == (ideal_closure(copy, s) == s), \
            (ring.name, sorted(s))


def every_subset(ring):
    return itertools.chain.from_iterable(
        itertools.combinations(ring.carrier, r) for r in range(ring.size + 1))


@pytest.fixture(scope="module")
def fresh():
    """A built-in corpus of its own, so the memo entries made here stay
    out of the shared `corpus` fixture's tables."""
    return builtin_corpus.__wrapped__()


@pytest.fixture(scope="module")
def small_certified(fresh):
    G, _, GxG, G_mod_06, _, ONE = fresh
    passing = [ring for ring in fresh if ring.validation.passed]
    folds = [fold(G, 3, 3), fold(G, 2, 3), fold(G, 3, 2)]
    G23 = folds[1]
    h = _Harness(fresh)
    # the passing corpus holds two quotients of G, so its quotients
    # include quotients of a quotient; a quotient of GxG adds more
    GxG_q = next(q for q in quotients(GxG) if q.size <= EVERY_SUBSET_UP_TO)
    tables = [
        *(rp for t in (2, 3) for rp, _, _ in h.product_ideals(t)),
        direct_product(G, ONE), direct_product(ONE, G_mod_06),
        *(q for ring in passing + folds + [GxG_q] for q in quotients(ring)),
        *(direct_product(G23, q) for q in quotients(G23)),
        direct_product(G23, fold(ONE, 2, 3)),
    ]
    return [ring for ring in dict.fromkeys(tables)
            if ring.size <= EVERY_SUBSET_UP_TO]


def test_every_subset_of_the_small_certified_tables(small_certified):
    names = {ring.name for ring in small_certified}
    # a pooled product, a product with the one-element factor, quotients of
    # the built-in tables, of a fold and of a quotient, and a fold product
    assert {"GxG/{0,2,4,6}", "Gxone", "G/{0,6}/{0+6,2+4}",
            "GxG/{0_0,0_3,0_6}/{0_0+0_3+0_6}", "G^(3,3)/{0,6}",
            "G^(2,3)xG^(2,3)/{0,2,4,6}"} <= names, names
    for ring in small_certified:
        assert_agrees(ring, every_subset(ring))


@pytest.fixture(scope="module")
def gxg_family(fresh):
    GxG = fresh[2]
    return [GxG, *quotients(GxG)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_drawn_subsets_of_gxg_and_its_quotients(gxg_family, data):
    ring = data.draw(st.sampled_from(gxg_family))
    # a hyperideal with a few elements toggled, so that closed sets and
    # their near misses are both drawn
    start = data.draw(st.sampled_from(enumerate_hyperideals(ring))).members
    toggled = data.draw(st.frozensets(st.sampled_from(ring.carrier), max_size=3))
    assert_agrees(ring, [start, start ^ toggled])


def test_certified_closedness_closes_no_set(monkeypatch):
    G, _, GxG, *_ = builtin_corpus.__wrapped__()
    tables = [direct_product(G, q) for q in quotients(G)] + quotients(GxG)
    closed = []

    def counted(*args):
        closed.append(args)
        return worklist(*args)

    worklist = ideals.worklist_closure
    monkeypatch.setattr(ideals, "worklist_closure", counted)
    for ring in tables:
        for s in [p.members for p in enumerate_hyperideals(ring)] + [
                frozenset([x]) for x in ring.carrier]:
            _is_closed(ring, s)
    assert closed == []
