import itertools
import math
import random

import pytest

from hyperrings.core import g_power
from hyperrings.ideals import (ImproperIdealError, _power_chain, closed_sets,
                               enumerate_hyperideals, generated_by,
                               hyperideal_product, hyperideal_violations,
                               ideal_from_labels, is_hyperideal,
                               make_hyperideal, proper_hyperideals,
                               quotient_sets, radical_by_primes,
                               radical_by_powers)

from conftest import brute_force_hyperideals, fold, mutate


def subset(ring, *labels):
    return frozenset(ring.index(x) for x in labels)


class TestIsHyperideal:
    def test_known_ideal(self, G):
        assert is_hyperideal(G, subset(G, "0", "4"))

    def test_zero_ideal(self, G):
        assert is_hyperideal(G, subset(G, "0"))

    def test_witness_does_not_depend_on_set_construction(self, GxG):
        listed = [GxG.index(x) for x in
                  ("0_0", "0_1", "2_0", "3_3", "6_3", "6_4")]
        filtered = frozenset(range(GxG.size)) & frozenset(listed)
        violations = hyperideal_violations(GxG, listed)
        assert violations[-1] == "not absorbing at g(3_3,0_1)=0_3"
        assert hyperideal_violations(GxG, filtered) == violations
        errors = []
        for members in (listed, filtered):
            with pytest.raises(ValueError) as info:
                make_hyperideal(GxG, members)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_not_f_closed(self, G):
        # f(2,2)={0,4} leaves {0,2}
        assert not is_hyperideal(G, subset(G, "0", "2"))

    def test_strict_construction_raises(self, G):
        with pytest.raises(ValueError):
            make_hyperideal(G, subset(G, "0", "2"))

    def test_lenient_construction_records(self, H):
        t = make_hyperideal(H, subset(H, "0", "2"), strict=False)
        assert not t.valid


class TestEnumeration:
    def test_g_has_exactly_six(self, G):
        got = [i.members for i in enumerate_hyperideals(G)]
        expect = [subset(G, "0"), subset(G, "0", "4"), subset(G, "0", "6"),
                  subset(G, "0", "3", "6"), subset(G, "0", "2", "4", "6"),
                  G.full_set]
        assert got == expect

    def test_one_element(self, ONE):
        assert [i.members for i in enumerate_hyperideals(ONE)] == [ONE.full_set]

    def test_matches_brute_force_on_small_structures(self, corpus, folds):
        for ring in list(corpus) + folds:
            if ring.size > 8:
                continue
            fast = [i.members for i in enumerate_hyperideals(ring)]
            assert fast == brute_force_hyperideals(ring), ring.name

    def test_closed_sets_need_joins(self, G):
        # on the corpus and the folds every hyperideal and subhyperring is
        # the closure of one element; adjoining zero is a closure whose
        # closed sets the search reaches only through its joins
        def adjoin_zero(ring, seed, base=frozenset(), limit=math.inf):
            return frozenset(seed) | base | {ring.zero}

        rest = [x for x in G.carrier if x != G.zero]
        every = [frozenset(c) | {G.zero}
                 for r in range(len(rest) + 1)
                 for c in itertools.combinations(rest, r)]
        assert closed_sets(G, adjoin_zero) == sorted(
            every, key=lambda s: (len(s), tuple(sorted(s))))

    def test_product_ideals_are_products(self, G, GxG):
        factor = [i.members for i in enumerate_hyperideals(G)]
        expect = sorted(
            (frozenset(a * G.size + b for a in m1 for b in m2)
             for m1 in factor for m2 in factor),
            key=lambda s: (len(s), tuple(sorted(s))))
        got = [i.members for i in enumerate_hyperideals(GxG)]
        assert got == expect


class TestGeneratedBy:
    def test_four_generates_04(self, G):
        gen = generated_by(G, G.index("4"))
        assert gen.raw == subset(G, "0", "4")
        assert gen.raw_is_ideal
        assert gen.ideal.members == subset(G, "0", "4")

    def test_zero_generates_zero(self, G):
        assert generated_by(G, G.zero).raw == subset(G, "0")

    def test_identity_generates_everything(self, G):
        assert generated_by(G, G.one).raw == G.full_set

    def test_contained_in_every_ideal_containing_generator(self, corpus):
        for ring in corpus:
            for x in ring.carrier:
                gen = generated_by(ring, x)
                if not gen.raw_is_ideal:
                    continue
                for ideal in enumerate_hyperideals(ring):
                    if x in ideal.members:
                        assert gen.raw <= ideal.members

    def test_raw_ideal_flag_on_corpus(self, corpus, H):
        # empirical answer to whether <x> needs closing: it never does on a
        # structure satisfying the axioms; the deviant H table is the one
        # exception, where <2>={0,2} is not inverse-closed
        for ring in corpus:
            for x in ring.carrier:
                gen = generated_by(ring, x)
                if ring is H and x == H.index("2"):
                    assert not gen.raw_is_ideal
                    assert gen.raw == frozenset({H.index("0"), H.index("2")})
                    assert gen.ideal.members == H.full_set
                else:
                    assert gen.raw_is_ideal, (ring.name, x)


class TestRadicals:
    def test_radical_of_04(self, G):
        p = ideal_from_labels(G, "0,4")
        want = subset(G, "0", "2", "4", "6")
        assert radical_by_primes(G, p) == want
        assert radical_by_powers(G, p) == want

    def test_radical_of_prime_is_itself(self, G):
        p = ideal_from_labels(G, "0,3,6")
        assert radical_by_primes(G, p) == p.members

    def test_radical_of_zero(self, G):
        z = make_hyperideal(G, {G.zero})
        assert radical_by_primes(G, z) == subset(G, "0", "6")
        assert radical_by_powers(G, z) == subset(G, "0", "6")

    def test_radical_of_improper_is_r(self, G):
        assert radical_by_powers(G, G.full_set) == G.full_set
        assert radical_by_primes(G, G.full_set) == G.full_set

    def test_algorithms_agree_everywhere(self, corpus):
        for ring in corpus:
            for ideal in enumerate_hyperideals(ring):
                assert (radical_by_primes(ring, ideal)
                        == radical_by_powers(ring, ideal)), (ring.name,
                                                             ideal.render())

    def test_closure_monotone_idempotent(self, corpus):
        for ring in corpus:
            ideals = enumerate_hyperideals(ring)
            for ideal in ideals:
                rad = radical_by_primes(ring, ideal)
                assert ideal.members <= rad
                assert radical_by_primes(ring, rad) == rad
            for a, b in itertools.combinations(ideals, 2):
                if a.members <= b.members:
                    assert (radical_by_primes(ring, a)
                            <= radical_by_primes(ring, b))


def radical_by_definition(ring, members):
    return frozenset(a for a in ring.carrier
                     if any(g_power(ring, a, s) in members
                            for s in range(1, ring.size + 1)))


def identity_corruption(ring, seed):
    """A copy in which 1 is not neutral: three g-entries at tuples holding
    1 get random values, then one g(x, 1^(n-1)) is moved off x."""
    rng = random.Random(seed)
    keys = sorted(t for t in ring.g if ring.one in t)
    over = {t: rng.randrange(ring.size) for t in rng.sample(keys, 3)}
    x = rng.randrange(ring.size)
    over[(x,) + (ring.one,) * (ring.n - 1)] = (x + 1) % ring.size
    return mutate(ring, f"{ring.name}-seed{seed}", g_overrides=over)


class TestPowerChain:
    """radical_by_powers reads every power off one chain of g lookups,
    which stops at its first repeated fold state; the chain must be
    g_power, whose grouping it copies, up to its own length, and hold every
    value among the first 3|R| powers, even where 1 is not neutral."""

    @staticmethod
    def assert_chain_is_g_power(ring):
        count = 3 * ring.size
        for a in ring.carrier:
            powers = [g_power(ring, a, s) for s in range(1, count + 1)]
            chain = list(_power_chain(ring, a, count))
            assert chain == powers[:len(chain)], (ring.name, a)
            assert set(chain) == set(powers), (ring.name, a)
        subsets = ([p.members for p in enumerate_hyperideals(ring)]
                   + [frozenset([x]) for x in ring.carrier])
        for members in subsets:
            assert radical_by_powers(ring, members) == radical_by_definition(
                ring, members), (ring.name, sorted(members))

    def test_corpus_and_folds(self, G, H, folds):
        rings = [G, H, folds[0], folds[1], fold(G, 2, 4)]
        assert {ring.n for ring in rings} == {2, 3, 4}
        for ring in rings:
            self.assert_chain_is_g_power(ring)

    def test_identity_corruptions(self, G, folds):
        for base in (G, folds[1], fold(G, 2, 4)):
            for seed in range(10):
                ring = identity_corruption(base, seed)
                assert any(ring.g[(x,) + (ring.one,) * (ring.n - 1)] != x
                           for x in ring.carrier)
                self.assert_chain_is_g_power(ring)


class TestQuotientSets:
    def test_anchor_two(self, G):
        p = ideal_from_labels(G, "0,4")
        pair = quotient_sets(G, p, G.index("2"))
        assert pair.p_r == subset(G, "0", "2", "4", "6")
        assert pair.a_r == subset(G, "0", "6")
        assert make_hyperideal(G, pair.p_r, strict=False).valid

    def test_anchor_zero(self, G):
        p = ideal_from_labels(G, "0,4")
        pair = quotient_sets(G, p, G.zero)
        assert pair.p_r == G.full_set
        assert pair.a_r == G.full_set

    def test_anchor_identity(self, G):
        p = ideal_from_labels(G, "0,4")
        pair = quotient_sets(G, p, G.one)
        assert pair.p_r == p.members
        assert pair.a_r == subset(G, "0")

    def test_a_r_inside_p_r(self, corpus):
        for ring in corpus:
            for ideal in proper_hyperideals(ring):
                for r in ring.carrier:
                    pair = quotient_sets(ring, ideal, r)
                    assert pair.a_r <= pair.p_r


class TestHyperidealProduct:
    def test_p_squared(self, G):
        p = ideal_from_labels(G, "0,4")
        prod = hyperideal_product(G, [p, p])
        assert prod.ideal.members == subset(G, "0", "4")
        assert not prod.closure_added

    def test_zero_factor(self, G):
        z = make_hyperideal(G, {G.zero})
        p = ideal_from_labels(G, "0,2,4,6")
        assert hyperideal_product(G, [z, p]).ideal.members == subset(G, "0")

    def test_06_squared_is_zero(self, G):
        p = ideal_from_labels(G, "0,6")
        assert hyperideal_product(G, [p, p]).ideal.members == subset(G, "0")

    def test_contained_in_intersection(self, corpus):
        for ring in corpus:
            ideals = proper_hyperideals(ring)
            for a, b in itertools.product(ideals, repeat=2):
                prod = hyperideal_product(ring, [a, b])
                assert prod.ideal.members <= a.members & b.members

    def test_too_many_factors(self, G):
        p = ideal_from_labels(G, "0,4")
        with pytest.raises(Exception):
            hyperideal_product(G, [p, p, p])


class TestImproperError:
    def test_proper_flag(self, G):
        full = make_hyperideal(G, G.full_set)
        assert not full.proper
        from hyperrings.classify import is_prime
        with pytest.raises(ImproperIdealError):
            is_prime(full)
