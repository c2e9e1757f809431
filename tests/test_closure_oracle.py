"""Worklist closures, lattice searches, row masks and fixpoint tests
against their references.

`ideal_closure` and the subhyperring closure only process the elements
that are new in each round, and may start from a closed base; the
hyperideal test of `generated_by` and `make_hyperideal` is "the closure
adds nothing".  The two closures below are the ones they replaced, kept
verbatim as the reference: every round re-scans all tuples
over the members and, for absorption, every n-tuple with a member in some
position.  `reference_closed_sets` is the lattice search `closed_sets`
replaced, also verbatim: every round joins every pair found so far, each
from scratch.  Closures must be equal on every seed and base, lattices
must be equal in order, row masks must match their definition, and the
fixpoint tests must agree with `is_hyperideal`, on the small built-in
structures (the deviant H included), on the three folds of G and on
randomly corrupted tables; the lattices are compared on the whole
built-in corpus and on F2[x,y,z]/(x,y,z)^2, whose lattices need a second
round of joins.
"""
import itertools
import math

from hypothesis import given, settings, strategies as st

from hyperrings.construct import _subring_closure, is_subhyperring
from hyperrings.ideals import (_canonical_order, closed_sets,
                               enumerate_hyperideals, generated_by,
                               ideal_closure, is_hyperideal, make_hyperideal,
                               row_masks)

from conftest import brute_force_hyperideals, enumerate_subhyperrings, mutate
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


def reference_closed_sets(ring, closure):
    """Every set closed under a closure operator on the carrier.

    Each closed set is the join (closure of the union) of the closures of
    its elements, so closing the singleton closures under binary joins
    yields the whole lattice, in canonical order.  Its least element is
    the closure of {0}, not {0} itself, which a broken table need not keep
    closed.
    """
    found = {closure(ring, frozenset([x])) for x in ring.carrier}
    while True:
        fresh = set()
        for a, b in itertools.combinations(found, 2):
            if a <= b or b <= a:
                continue
            j = closure(ring, a | b)
            if j not in found:
                fresh.add(j)
        if not fresh:
            break
        found |= fresh
    return _canonical_order(found)


CLOSURES = [(ideal_closure, reference_ideal_closure),
            (_subring_closure, reference_subring_closure)]


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


def adjoin_zero(ring, seed, base=frozenset(), limit=math.inf):
    return frozenset(seed) | base | {ring.zero}


def assert_same_lattices(ring):
    """Both searches agree for both closures and, on small carriers, for
    adjoining zero.  Every hyperideal and subhyperring of the corpus and
    the folds joins two singleton closures, so their searches end after
    one round of joins; the local ring F2[x,y,z]/(x,y,z)^2 needs a second
    round, and under adjoining zero every subset holding zero is closed,
    and the search takes a round per doubling of the joins."""
    closures = [ideal_closure, _subring_closure]
    if ring.size <= 6:
        closures.append(adjoin_zero)
    for closure in closures:
        assert closed_sets(ring, closure) == \
            reference_closed_sets(ring, closure), (ring.name, closure.__name__)


def assert_closures_from_a_base(ring):
    """A closure started from a closed base is the reference closure of
    the seed and the base together."""
    for closure, reference in CLOSURES:
        for base in closed_sets(ring, closure):
            for seed in seeds(ring):
                assert closure(ring, seed, base) == reference(ring, seed | base), \
                    (ring.name, closure.__name__, sorted(base), sorted(seed))


def assert_row_masks_by_definition(ring):
    """row_masks, read off the value rows, against the definition."""
    subsets = ([p.members for p in enumerate_hyperideals(ring)]
               + [frozenset(), frozenset([ring.zero])]
               + [frozenset([x]) for x in ring.carrier])
    for members in subsets:
        assert row_masks(ring, members) == {
            key: sum(1 << c for c in ring.carrier
                     if ring.g[key + (c,)] in members)
            for key in itertools.product(ring.carrier, repeat=ring.n - 1)
        }, (ring.name, sorted(members))


def assert_fixpoint_tests_agree(ring):
    """Every hyperideal test that reads "the closure adds nothing" agrees
    with the violation scan."""
    for seed in seeds(ring):
        assert make_hyperideal(ring, seed, strict=False).valid == \
            is_hyperideal(ring, seed), (ring.name, sorted(seed))
    for x in ring.carrier:
        gen = generated_by(ring, x)
        assert gen.raw_is_ideal == is_hyperideal(ring, gen.raw), (ring.name, x)


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


def test_closures_from_a_base_on_small_structures(corpus, folds):
    for ring in small_structures(corpus, folds):
        assert_closures_from_a_base(ring)


def test_lattices_on_the_corpus_and_folds(corpus, folds):
    rings = list(corpus) + folds
    assert any(ring.name == "GxG" for ring in rings)
    for ring in rings:
        assert_same_lattices(ring)


def test_row_masks_on_the_corpus_and_folds(corpus, folds):
    for ring in list(corpus) + folds:
        assert_row_masks_by_definition(ring)


def test_lattices_needing_a_second_round_of_joins(local16):
    # (x,y,z) joins three lines, and F2 + (x,y,z) three subhyperrings, so
    # a search stopping after one round finds only 16 and 30 of them
    assert len(enumerate_hyperideals(local16)) == 17
    assert len(enumerate_subhyperrings(local16)) == 32
    assert_same_lattices(local16)
    assert_lattice_is_brute_force(local16)


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
    assert_closures_from_a_base(ring)
    assert_same_lattices(ring)
    assert_row_masks_by_definition(ring)
    assert_fixpoint_tests_agree(ring)
    assert_lattice_is_brute_force(ring)


@CORRUPTION_SETTINGS
@given(data=st.data())
def test_corrupted_h(H, data):
    ring = data.draw(corruptions(H))
    assert_same_closures(ring)
    assert_closures_from_a_base(ring)
    assert_same_lattices(ring)
    assert_row_masks_by_definition(ring)
    assert_fixpoint_tests_agree(ring)
    assert_lattice_is_brute_force(ring)
