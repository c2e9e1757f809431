"""Quotient lattices against the closure search.

A quotient R/Q of a passing table records its parent R, Q and the
projection p, and derives its hyperideal lattice from the parent's: the
p[I] over the hyperideals I ⊇ Q, in canonical order (FINDINGS.md (vi)).
The derived lattice must equal the closure search, in order, on every
quotient by a proper hyperideal of the built-in structures, of the folds
of G, of the krasner-corpus tables, which `perfbench/gen.py` generates
and this module only reads, and of G/{0,6}, itself a quotient.  On small passing tables,
a quotient by a subset must return exactly when the subset is a
hyperideal, as the lemma of (vi) says.  A quotient of a failing table (H) records nothing and takes the
closure search.
"""
import itertools

import pytest

from hyperrings import ideals
from hyperrings.construct import IllDefinedQuotientError, quotient
from hyperrings.corpus import document_text
from hyperrings.documents import parse_document
from hyperrings.ideals import (closed_sets, enumerate_hyperideals,
                               ideal_closure, proper_hyperideals)

from conftest import load_gen


def closure_lattice(ring):
    return closed_sets(ring, ideal_closure)


def lattice(ring):
    return [p.members for p in enumerate_hyperideals(ring)]


def assert_derived_quotients(ring):
    """Every quotient of a passing ring by a proper hyperideal records
    its parent, and its derived lattice is the closure search's list.
    Returns how many quotients were checked."""
    assert ring.validation.passed, ring.name
    count = 0
    for p in proper_hyperideals(ring):
        table, h = quotient(ring, p)
        parent, q, proj = table.memo["parent"]
        assert (parent, q, proj) == (ring, p.members, h.mapping), table.name
        assert lattice(table) == closure_lattice(table), table.name
        count += 1
    return count


@pytest.fixture
def searches(monkeypatch):
    """The rings whose lattice the closure search computes from here on."""
    seen = []

    def counted(ring, closure):
        seen.append(ring)
        return closed_sets(ring, closure)

    monkeypatch.setattr(ideals, "closed_sets", counted)
    return seen


def test_quotients_of_built_in_structures(corpus, GxG):
    passing = [ring for ring in corpus if ring.validation.passed]
    counts = {ring.name: assert_derived_quotients(ring) for ring in passing}
    assert counts[GxG.name] == len(lattice(GxG)) - 1 == 35


def test_quotients_of_folds(folds):
    for ring in folds:
        assert assert_derived_quotients(ring), ring.name


def test_quotients_of_krasner_corpus():
    items = load_gen().krasner_corpus()
    assert len(items) == 130
    total = sum(assert_derived_quotients(parse_document(item.text))
                for item in items)
    assert total > len(items)


def small_krasner_tables():
    return [parse_document(item.text) for item in load_gen().krasner_corpus()
            if item.size <= 6]


def test_only_a_hyperideal_gives_a_quotient(corpus, folds):
    """The lemma of (vi), on data: on a passing table, a quotient by a
    subset that is not a hyperideal raises, so every recorded Q is one."""
    rings = [ring for ring in corpus + folds + small_krasner_tables()
             if ring.validation.passed and ring.size <= 6]
    for ring in rings:
        hyperideals = set(lattice(ring))
        for size in range(1, ring.size):
            for subset in map(frozenset, itertools.combinations(ring.carrier, size)):
                try:
                    table, _ = quotient(ring, subset)
                except IllDefinedQuotientError:
                    assert subset not in hyperideals, ring.name
                else:
                    assert subset in hyperideals, ring.name
                    assert table.memo["parent"][1] == subset


def test_quotients_of_a_quotient(G):
    inner, _ = quotient(G, {G.index("0"), G.index("6")})
    assert inner.memo["parent"][0] is G
    assert assert_derived_quotients(inner) == len(lattice(inner)) - 1 == 3


def test_a_derived_lattice_runs_no_search(searches):
    G = parse_document(document_text("g.json"))
    enumerate_hyperideals(G)
    del searches[:]
    table, _ = quotient(G, {G.index("0"), G.index("6")})
    assert ("hyperideals",) not in table.memo
    lattice(table)
    assert searches == []


def test_a_quotient_of_a_failing_table_takes_the_closure_search(searches):
    H = parse_document(document_text("h.json"), validate=False)
    assert not H.validation.passed
    table, _ = quotient(H, {H.zero})
    assert table.name == "H/{0}"
    assert "parent" not in table.memo
    assert lattice(table) == closure_lattice(table)
    assert searches == [table]
