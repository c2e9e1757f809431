"""The bounded lattice search and the subhyperring pool against the full
search.

`closed_sets(ring, closure, limit)` drops every closure, union and join
above the limit, which is sound because the closure is extensive and
monotone (FINDINGS.md (vii)).  Thm 4.13 reads `theorems._subring_pool`,
the subhyperrings of at most MAX_SUBRING elements that have a table.  The
bounded search must equal the full one, `enumerate_subhyperrings`,
filtered by size, in order, and the pool must hold exactly the tables
`subhyperring_table` builds from it.  Both are checked on the built-in
corpus, the folds of G, local16 and the 130 krasner-corpus tables, which
`perfbench/gen.py` generates and this module only reads.  On the tables
of at most 16 elements every limit is checked, for the hyperideal closure
too.
"""
from hyperrings.construct import (_subring_closure, enumerate_subhyperrings,
                                  subhyperring_table)
from hyperrings.documents import parse_document
from hyperrings.ideals import closed_sets, ideal_closure
from hyperrings.theorems import MAX_SUBRING, _subring_pool

from conftest import load_gen

EVERY_LIMIT_UP_TO = 16


def contents(table):
    return (table.name, table.labels, table.zero, table.one, table.f, table.g)


def assert_pool(ring):
    """The bounded search and the pool against the full search; returns
    the bounded sets."""
    small = [s for s in enumerate_subhyperrings(ring) if len(s) <= MAX_SUBRING]
    assert closed_sets(ring, _subring_closure, MAX_SUBRING) == small, ring.name
    tables = [(s, subhyperring_table(ring, s)) for s in small]
    expected = [(s, contents(t)) for s, t in tables if t is not None]
    assert [(s, contents(t)) for s, t in _subring_pool(ring)] == expected, ring.name
    if ring.size <= EVERY_LIMIT_UP_TO:
        assert_every_limit(ring)
    return small


def assert_every_limit(ring):
    for closure in (_subring_closure, ideal_closure):
        full = closed_sets(ring, closure)
        for limit in range(ring.size + 1):
            assert closed_sets(ring, closure, limit) == \
                [s for s in full if len(s) <= limit], (ring.name, closure.__name__, limit)


def test_pool_of_built_in_structures(corpus, GxG):
    small = {ring.name: assert_pool(ring) for ring in corpus}
    # GxG has 44 subhyperrings, 7 of them above the bound and 6 on it,
    # so a bound that drops a set of exactly MAX_SUBRING elements fails
    assert len(enumerate_subhyperrings(GxG)) == 44
    assert len(small[GxG.name]) == 37
    assert sum(len(s) == MAX_SUBRING for s in small[GxG.name]) == 6
    assert {ring.name: len(_subring_pool(ring)) for ring in corpus} == {
        "G": 4, "H": 2, "GxG": 16, "G/{0,6}": 4, "G/{0,2,4,6}": 2, "one": 1}


def test_pool_of_folds(folds):
    for ring in folds:
        assert assert_pool(ring), ring.name


def test_pool_of_local16(local16):
    assert len(assert_pool(local16)) == 31


def test_pool_of_krasner_corpus():
    items = load_gen().krasner_corpus()
    assert len(items) == 130
    for item in items:
        assert assert_pool(parse_document(item.text)), item.text[:60]
