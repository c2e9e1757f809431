"""Worklist closures and fixpoint tests against the round-by-round reference.

`ideal_closure` and the subhyperring closure only process the elements
that are new in each round, and the hyperideal test of `generated_by`,
`quotient_sets` and `make_hyperideal` is "the closure adds nothing".  The
two functions below are the closures they replaced, kept verbatim as the
reference: every round re-scans all tuples over the members and, for
absorption, every n-tuple with a member in some position.  Closures must
be equal on every seed, and the fixpoint tests must agree with
`is_hyperideal`, on the small built-in structures (the deviant H
included), on the three folds of G and on randomly corrupted tables.
"""
import itertools

from hypothesis import given, settings, strategies as st

from hyperrings.construct import (_subring_closure, enumerate_subhyperrings,
                                  is_subhyperring)
from hyperrings.ideals import (brute_force_hyperideals, enumerate_hyperideals,
                               generated_by, ideal_closure, is_hyperideal,
                               make_hyperideal, quotient_sets)

from conftest import mutate
from strategies import corruptions


# -- reference closures -----------------------------------------------------

def reference_ideal_closure(ring, seed):
    """Smallest hyperideal containing the seed (least fixpoint)."""
    members = set(seed)
    members.add(ring.zero)
    f, g, n = ring.f, ring.g, ring.n
    rng = range(ring.size)
    while True:
        added = set()
        for x in list(members):
            added |= ring.inverses(x) - members
        for t in itertools.product(sorted(members), repeat=ring.m):
            added |= f[t] - members
        for i in range(n):
            for amb in itertools.product(rng, repeat=n - 1):
                for s in members:
                    v = g[amb[:i] + (s,) + amb[i:]]
                    if v not in members:
                        added.add(v)
        if not added:
            return frozenset(members)
        members |= added


def reference_subring_closure(ring, seed):
    members = set(seed)
    members.add(ring.zero)
    while True:
        added = set()
        for x in list(members):
            added |= ring.inverses(x) - members
        for t in itertools.product(sorted(members), repeat=ring.m):
            added |= ring.f[t] - members
        for t in itertools.product(sorted(members), repeat=ring.n):
            v = ring.g[t]
            if v not in members:
                added.add(v)
        if not added:
            return frozenset(members)
        members |= added


# -- checks -------------------------------------------------------------------

def seeds(ring):
    return [frozenset(s) for r in range(ring.size + 1)
            for s in itertools.combinations(ring.carrier, r)]


def assert_same_closures(ring):
    for seed in seeds(ring):
        assert ideal_closure(ring, seed) == reference_ideal_closure(ring, seed), \
            (ring.name, sorted(seed))
        assert _subring_closure(ring, seed) == reference_subring_closure(ring, seed), \
            (ring.name, sorted(seed))


def assert_fixpoint_tests_agree(ring):
    """Every hyperideal test that reads "the closure adds nothing" agrees
    with the violation scan."""
    for seed in seeds(ring):
        assert make_hyperideal(ring, seed, strict=False).valid == \
            is_hyperideal(ring, seed), (ring.name, sorted(seed))
    for x in ring.carrier:
        gen = generated_by(ring, x)
        assert gen.raw_is_ideal == is_hyperideal(ring, gen.raw), (ring.name, x)
    for ideal in enumerate_hyperideals(ring):
        if not ideal.proper:
            continue
        for r in ring.carrier:
            pair = quotient_sets(ring, ideal, r)
            assert pair.p_r_is_ideal == is_hyperideal(ring, pair.p_r), \
                (ring.name, ideal.render(), r)


def small_structures(corpus, folds):
    return [ring for ring in corpus if ring.size <= 6] + folds


# -- fixed structures -----------------------------------------------------

def test_closures_on_small_structures(corpus, folds):
    rings = small_structures(corpus, folds)
    assert any(ring.name == "H" for ring in rings)
    for ring in rings:
        assert_same_closures(ring)


def test_fixpoint_tests_on_small_structures(corpus, folds):
    for ring in small_structures(corpus, folds):
        assert_fixpoint_tests_agree(ring)


def test_some_seeds_are_not_closed(G, H):
    # the fixpoint tests must see both answers, on a valid and a deviant table
    for ring in (G, H):
        answers = {make_hyperideal(ring, s, strict=False).valid for s in seeds(ring)}
        assert answers == {True, False}, ring.name


# -- random corruptions ---------------------------------------------------

CORRUPTION_SETTINGS = settings(max_examples=25, deadline=None,
                               derandomize=True, database=None)


def assert_lattice_is_brute_force(ring):
    assert ([p.members for p in enumerate_hyperideals(ring)]
            == brute_force_hyperideals(ring)), ring.name


def test_zero_alone_not_closed(G):
    # with g(0, 0) = 1, {0} is neither a hyperideal nor a subhyperring, so
    # neither lattice may list it
    ring = mutate(G, "G-corrupt", g_overrides={(G.zero, G.zero): G.one})
    zero = frozenset([ring.zero])
    assert_lattice_is_brute_force(ring)
    assert [p.members for p in enumerate_hyperideals(ring)] == [ring.full_set]
    assert not is_subhyperring(ring, zero)
    assert zero not in enumerate_subhyperrings(ring)


@CORRUPTION_SETTINGS
@given(data=st.data())
def test_corrupted_g(G, data):
    ring = data.draw(corruptions(G))
    assert_same_closures(ring)
    assert_fixpoint_tests_agree(ring)
    assert_lattice_is_brute_force(ring)


@CORRUPTION_SETTINGS
@given(data=st.data())
def test_corrupted_h(H, data):
    ring = data.draw(corruptions(H))
    assert_same_closures(ring)
    assert_fixpoint_tests_agree(ring)
    assert_lattice_is_brute_force(ring)
