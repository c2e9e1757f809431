"""Prime spectra of certified tables against the search.

A product of passing factors reads its primes off theirs, the P1 x R2 and
R1 x P2 with P1 and P2 prime, and a quotient R/Q of a passing table off
its parent's, the p[P] of the primes P ⊇ Q (FINDINGS.md (x)).  The search,
one `tuple_scan` per proper hyperideal, stays the reference: the derived
primes must be the very `Hyperideal` objects it keeps, in the same order.
They are checked on every product, triple included, that the product
theorems build, on products with the one-element ring, on products of
G's (2,3) and (3,3) folds, and on every quotient of the passing tables
here, products included, and of the krasner-corpus tables, which
`perfbench/gen.py` generates and this module only reads.  Thm 3.7's data
on a product, packed from its factors', must equal the search on an
uncertified copy of the product.
"""
import pytest

from hyperrings import ideals
from hyperrings.construct import direct_product, quotient
from hyperrings.corpus import document_text
from hyperrings.documents import parse_document
from hyperrings.ideals import (complement, enumerate_hyperideals,
                               prime_hyperideals, proper_hyperideals,
                               tuple_scan)
from hyperrings.theorems import _Harness, _ideal_tuples

from conftest import fold, load_gen, mutate


def searched_primes(ring):
    """The proper hyperideals P no n-tuple outside P of which has its
    g-value in P."""
    return [p for p in enumerate_hyperideals(ring) if p.proper
            and tuple_scan(ring, p.members, complement(ring, p.members))[0]]


def assert_derived_primes(ring):
    assert "factors" in ring.memo or "parent" in ring.memo, ring.name
    derived, searched = prime_hyperideals(ring), searched_primes(ring)
    assert len(derived) == len(searched), ring.name
    assert all(p is q for p, q in zip(derived, searched)), ring.name


def assert_derived_quotient_primes(ring):
    """Every quotient of a passing ring by a proper hyperideal; returns
    how many were checked."""
    assert ring.validation.passed, ring.name
    for p in proper_hyperideals(ring):
        assert_derived_primes(quotient(ring, p)[0])
    return len(proper_hyperideals(ring))


def pool_products(structures):
    """Each product, pairs then triples, that the product theorems read."""
    h = _Harness(structures)
    return list(dict.fromkeys(rp for t in (2, 3) for rp, _, _ in h.product_ideals(t)))


@pytest.fixture(scope="module")
def products(corpus, folds):
    """The pool's products on the built-in corpus and on each fold of G."""
    out = pool_products(corpus)
    for ring in folds:
        out += pool_products([ring])
    return out


@pytest.fixture(scope="module")
def fold_products(folds, G_mod_0246):
    """Products of G's (3,3) and (2,3) folds, with themselves and with
    the same folds of G/{0,2,4,6}."""
    out = []
    for g in folds[:2]:
        q = fold(G_mod_0246, g.m, g.n)
        out += [direct_product(g, g), direct_product(g, q), direct_product(q, g)]
    return out


def test_primes_of_pool_products(products):
    assert any("factors" in rp.memo["factors"][0].memo for rp in products), "a triple"
    assert any(rp.n == 3 for rp in products)
    for rp in products:
        assert_derived_primes(rp)


def test_primes_of_products_with_the_one_element_ring(corpus, ONE):
    assert ONE.size == 1 and ONE.validation.passed
    passing = [ring for ring in corpus if ring.validation.passed and ring.size <= 36]
    for ring in passing:
        for rp in (direct_product(ONE, ring), direct_product(ring, ONE)):
            assert_derived_primes(rp)
            assert len(prime_hyperideals(rp)) == len(prime_hyperideals(ring))
    assert_derived_primes(direct_product(ONE, ONE))
    assert prime_hyperideals(direct_product(ONE, ONE)) == []


def test_primes_of_fold_products(fold_products):
    for rp in fold_products:
        assert prime_hyperideals(rp), rp.name
        assert_derived_primes(rp)


def test_primes_of_quotients_of_built_in_structures(corpus, folds):
    for ring in corpus + folds:
        if ring.validation.passed:
            assert_derived_quotient_primes(ring)


def test_primes_of_quotients_of_products(products, fold_products):
    assert sum(map(assert_derived_quotient_primes, products + fold_products)) > 100


def test_primes_of_quotients_of_krasner_corpus():
    items = load_gen().krasner_corpus()
    total = sum(assert_derived_quotient_primes(parse_document(item.text))
                for item in items)
    assert total > len(items)


def test_primes_of_a_quotient_of_a_quotient(G):
    inner, _ = quotient(G, {G.index("0"), G.index("6")})
    assert_derived_primes(inner)
    assert assert_derived_quotient_primes(inner) == 3


def test_certified_primes_run_no_scan(monkeypatch):
    G = parse_document(document_text("g.json"))
    prime_hyperideals(G)
    scans = []

    def counted(ring, *args, **kwargs):
        scans.append(ring)
        return tuple_scan(ring, *args, **kwargs)

    monkeypatch.setattr(ideals, "tuple_scan", counted)
    product = direct_product(G, G)
    table, _ = quotient(product, proper_hyperideals(product)[1])
    assert prime_hyperideals(product) and prime_hyperideals(table)
    assert prime_hyperideals(direct_product(table, G))
    assert scans == []
    # a table without a certificate keeps the search
    copy = mutate(G, "G'")
    prime_hyperideals(copy)
    assert scans and set(scans) == {copy}


# -- Thm 3.7's tuples on products -----------------------------------------

def tuple_rows(ring):
    return [(tuple(p.members for p in family), prod, squares, drops)
            for family, prod, squares, drops in _ideal_tuples(ring)]


def test_product_ideal_tuples_match_the_search(products, fold_products, G, ONE):
    # the search takes 4-6 s on each 36-element product at n = 3
    checked = [rp for rp in dict.fromkeys(products + fold_products)
               if rp.size <= (36 if rp.n == 2 else 12)]
    checked += [direct_product(ONE, G), direct_product(G, ONE)]
    assert {(rp.m, rp.n) for rp in checked} == {(2, 2), (3, 2), (2, 3), (3, 3)}
    for rp in checked:
        assert tuple_rows(rp) == tuple_rows(mutate(rp, rp.name)), rp.name
