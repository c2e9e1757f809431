"""Direct products against their references.

`_direct_product` builds f and g in one pass over the factor tables.  The
element-wise build it replaced is kept below, verbatim, as the reference:
both must give the same entries with the same key order.  A product of
passing factors derives its hyperideal lattice from theirs (FINDINGS.md
(v)).  The derived lattice must equal the closure search, in order, on
the products of the built-in structures, of the folds of G and of small
krasner-corpus tables, which `perfbench/gen.py` generates and this module
only reads.  A product with a failing factor (H, or a corrupted table)
must take the closure search.  The product theorems read the pairs of
factor hyperideals that `factor_ideals` lists without closing them; the
tests close each one.
"""
import itertools
import math

import pytest

from hyperrings.construct import direct_product
from hyperrings.corpus import document_text
from hyperrings.documents import parse_document
from hyperrings.ideals import (_canonical_order, closed_sets,
                               enumerate_hyperideals, factor_ideals,
                               ideal_closure)
from hyperrings.theorems import _Harness, run_theorem

from conftest import load_gen, memo_entries, mutate, two_element_field


def reference_product_tables(r1, r2):
    """f and g of the direct product, packed entry by entry."""
    m, n = r1.m, r1.n
    s2 = r2.size

    def pack(i, j):
        return i * s2 + j

    f = {}
    for t1 in itertools.product(range(r1.size), repeat=m):
        v1 = r1.f[t1]
        for t2 in itertools.product(range(s2), repeat=m):
            v2 = r2.f[t2]
            key = tuple(pack(a, b) for a, b in zip(t1, t2))
            f[key] = frozenset(pack(a, b) for a in v1 for b in v2)
    g = {}
    for t1 in itertools.product(range(r1.size), repeat=n):
        v1 = r1.g[t1]
        for t2 in itertools.product(range(s2), repeat=n):
            key = tuple(pack(a, b) for a, b in zip(t1, t2))
            g[key] = pack(v1, r2.g[t2])
    return f, g


def closure_lattice(ring):
    return closed_sets(ring, ideal_closure)


def lattice(ring):
    return [p.members for p in enumerate_hyperideals(ring)]


def factor_products(r1, r2):
    """The I1 x I2 over both factors' closure lattices."""
    return {frozenset(a * r2.size + b for a in i1 for b in i2)
            for i1 in closure_lattice(r1) for i2 in closure_lattice(r2)}


def pairs_up_to(rings, size):
    """Ordered pairs of equal arity whose product has at most size elements."""
    return [(a, b) for a, b in itertools.product(rings, repeat=2)
            if (a.m, a.n) == (b.m, b.n) and a.size * b.size <= size]


@pytest.fixture(scope="module")
def passing(corpus):
    return [ring for ring in corpus if ring.validation.passed]


@pytest.fixture(scope="module")
def small_krasner_pairs():
    """Tables of at most 6 elements from the krasner corpus, each paired
    with the next one of its arity, in corpus order."""
    by_arity = {}
    for item in load_gen().krasner_corpus():
        if item.size <= 6:
            by_arity.setdefault((item.m, item.n), []).append(parse_document(item.text))
    return [pair for rings in by_arity.values() for pair in zip(rings, rings[1:])]


def corrupted_factors(G, Q):
    """Tables that fail validation: G with 1 * 1 = 0, G with g(0, 0) = 1,
    and the two-element Q with f(0, 1) and f(1, 0) empty.  A product
    with the last need not have (a, b) in f((a, 0), (0, b)), so its
    lattice is not the I1 x I2."""
    one, zero = G.one, G.zero
    return [mutate(G, "G-unit", g_overrides={(one, one): zero}),
            mutate(G, "G-zero", g_overrides={(zero, zero): one}),
            mutate(Q, "Q-empty", f_overrides={(Q.zero, Q.one): (),
                                              (Q.one, Q.zero): ()})]


# -- one-pass tables ------------------------------------------------------

def assert_reference_tables(r1, r2):
    p = direct_product(r1, r2)
    f, g = reference_product_tables(r1, r2)
    assert list(p.f.items()) == list(f.items()), p.name
    assert list(p.g.items()) == list(g.items()), p.name


def test_tables_match_the_reference(corpus, folds, H, G, G_mod_0246):
    bad = corrupted_factors(G, G_mod_0246)
    pairs = (pairs_up_to(corpus, 36) + pairs_up_to(folds + [H], 36)
             + [(G, b) for b in bad] + [(b, G) for b in bad])
    assert any(H in pair for pair in pairs)
    for r1, r2 in pairs:
        assert_reference_tables(r1, r2)


# -- derived lattices -----------------------------------------------------

def test_derived_lattices_of_built_in_products(passing):
    pairs = pairs_up_to(passing, 36)
    assert any(a.size * b.size == 36 for a, b in pairs)
    for r1, r2 in pairs:
        p = direct_product(r1, r2)
        assert lattice(p) == closure_lattice(p), p.name


def test_derived_lattices_of_fold_products(folds):
    for ring in folds:
        p = direct_product(ring, ring)
        assert lattice(p) == closure_lattice(p), p.name


def test_derived_lattices_of_small_krasner_products(small_krasner_pairs):
    assert {(a.m, a.n) for a, _ in small_krasner_pairs} == {
        (2, 2), (2, 3), (3, 2), (3, 3)}
    for r1, r2 in small_krasner_pairs:
        p = direct_product(r1, r2)
        assert lattice(p) == closure_lattice(p), p.name


def test_failing_factors_take_the_closure_search(G, H, G_mod_0246):
    bad = corrupted_factors(G, G_mod_0246)
    pairs = [(H, H)] + [(G, b) for b in bad] + [(b, G) for b in bad]
    differs = []
    for r1, r2 in pairs:
        p = direct_product(r1, r2)
        assert not p.validation.passed, p.name
        assert lattice(p) == closure_lattice(p), p.name
        if set(closure_lattice(p)) != factor_products(r1, r2):
            differs.append(p.name)
    # deriving these lattices from the factors would be wrong
    assert differs


def test_a_product_lattice_is_derived_on_first_read():
    G = parse_document(document_text("g.json"))
    p = direct_product(G, G)
    assert ("hyperideals", ()) not in memo_entries(p)
    assert ("hyperideals", ()) not in memo_entries(G)
    assert len(lattice(p)) == len(lattice(G)) ** 2
    assert ("hyperideals", ()) in memo_entries(G)


def test_colliding_product_labels_are_named():
    # "a_b" "_" "c" and "a" "_" "b_c" are one label
    r1 = two_element_field("A", ["a_b", "a"])
    r2 = two_element_field("B", ["c", "b_c"])
    assert r1.validation.passed and r2.validation.passed
    with pytest.raises(ValueError) as caught:
        direct_product(r1, r2)
    assert str(caught.value) == \
        "elements (a_b,c) and (a,b_c) of AxB both get the label 'a_b_c'"
    assert direct_product(r2, r1).labels == ("c_a_b", "c_a", "b_c_a_b", "b_c_a")


def test_labels_without_underscores_do_not_change():
    r1 = two_element_field("A", ["0", "1"])
    r2 = two_element_field("B", ["z", "u"])
    assert direct_product(r1, r2).labels == ("0_z", "0_u", "1_z", "1_u")


# -- the pool of the product theorems -------------------------------------

@pytest.fixture(scope="module")
def pool_scopes(corpus, folds):
    """The built-in corpus, and each fold of G on its own."""
    return [corpus] + [[ring] for ring in folds]


def pool(structures):
    """Every (product, factor hyperideals, product hyperideal) that the
    product theorems read, pairs then triples."""
    h = _Harness(structures)
    return [row for t in (2, 3) for row in h.product_ideals(t)]


def test_the_pool_yields_closed_product_sets(pool_scopes):
    # the corpus has triples within the cap; a fold's cube does not
    assert any(len(factors) == 3 for _, factors, _ in pool(pool_scopes[0]))
    for scope in pool_scopes:
        rows = pool(scope)
        assert rows
        for rp, factors, p in rows:
            assert ideal_closure(rp, p.members) == p.members, p.render()
            assert len(p.members) == math.prod(len(f.members) for f in factors)
            assert any(f.proper for f in factors)


def test_a_product_lattice_is_its_factor_ideals_in_order(pool_scopes):
    for scope in pool_scopes:
        products = dict.fromkeys(rp for rp, _, _ in pool(scope))
        assert products
        for rp in products:
            listed = {p.members: p for _, _, p in factor_ideals(rp)}
            ideals = enumerate_hyperideals(rp)
            assert len(ideals) == len(listed), rp.name
            for p, members in zip(ideals, _canonical_order(listed)):
                assert p is listed[members], rp.name


def test_thm_2_3_and_thm_3_9_count_the_same_instances(pool_scopes):
    # both quantify over every product hyperideal with a proper factor
    for scope in pool_scopes:
        count = run_theorem("Thm 2.3", scope).instances
        assert count
        assert run_theorem("Thm 3.9", scope).instances == count
