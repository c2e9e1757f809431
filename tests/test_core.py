import itertools

import pytest

from hyperrings.core import (ArityError, f_extend, g_eval, g_iterated,
                             g_power, g_product,
                             validate_canonical_hypergroup, validate_krasner)

from conftest import mutate


def lab(ring, *labels):
    return [ring.index(x) for x in labels]


def subset(ring, *labels):
    return frozenset(ring.index(x) for x in labels)


# -- element-wise reference folds -------------------------------------------
# g_product is the one identity-padded fold that g_iterated and g_power
# call; the functions below are the separate folds it replaced, kept
# verbatim as the reference.

def reference_g_eval(ring, args):
    if len(args) != ring.n:
        raise ArityError(f"g takes {ring.n} arguments, got {len(args)}")
    return ring.g[tuple(args)]


def reference_g_iterated(ring, args):
    """Left-nested fold of g over l(n-1)+1 arguments; l=1 is plain g."""
    n = ring.n
    k = len(args)
    if k < n or (k - 1) % (n - 1) != 0:
        raise ArityError(f"g_iterated needs l(n-1)+1 arguments for n={n}, got {k}")
    g = ring.g
    acc = g[tuple(args[:n])]
    pos = n
    while pos < k:
        acc = g[(acc,) + tuple(args[pos:pos + n - 1])]
        pos += n - 1
    return acc


def reference_g_power(ring, a, s):
    """s-th g-power of a, identity-padded to a representable arity.

    For s <= n this is g(a^(s), 1^(n-s)); for larger s the argument list
    a^(s) is padded with the scalar identity up to the next length of the
    form l(n-1)+1, which is value-neutral under the identity axiom.
    """
    if s < 1:
        raise ValueError("power count must be >= 1")
    n = ring.n
    if s <= n:
        return reference_g_eval(ring, (a,) * s + (ring.one,) * (n - s))
    rem = (s - 1) % (n - 1)
    pad = 0 if rem == 0 else (n - 1) - rem
    return reference_g_iterated(ring, (a,) * s + (ring.one,) * pad)


def reference_g_product(ring, elems):
    """g-product of an arbitrary non-empty argument list, identity-padded."""
    elems = tuple(elems)
    if not elems:
        raise ValueError("empty product")
    n = ring.n
    if len(elems) < n:
        return reference_g_eval(ring, elems + (ring.one,) * (n - len(elems)))
    rem = (len(elems) - 1) % (n - 1)
    pad = 0 if rem == 0 else (n - 1) - rem
    return reference_g_iterated(ring, elems + (ring.one,) * pad)


class TestFExtend:
    def test_singletons_match_table(self, G):
        # f_extend({1},{2}) is the table row: {1,3}
        got = f_extend(G, [subset(G, "1"), subset(G, "2")])
        assert got == subset(G, "1", "3")

    def test_zero_is_neutral(self, G):
        for x in G.carrier:
            assert f_extend(G, [subset(G, "0"), frozenset({x})]) == frozenset({x})

    def test_union_over_choices(self, G):
        # rows f(2,2)={0,4} and f(3,2)={1} combine
        got = f_extend(G, [subset(G, "2", "3"), subset(G, "2")])
        assert got == subset(G, "0", "4", "1")

    def test_monotone(self, G):
        singles = [frozenset({x}) for x in G.carrier]
        for a, b in itertools.product(G.carrier, repeat=2):
            small = f_extend(G, [frozenset({a}), frozenset({b})])
            for bigger in singles:
                grown = f_extend(G, [frozenset({a}) | bigger, frozenset({b})])
                assert small <= grown

    def test_arity_and_empty_errors(self, G):
        with pytest.raises(ArityError):
            f_extend(G, [subset(G, "1")])
        with pytest.raises(ValueError):
            f_extend(G, [frozenset(), subset(G, "1")])


class TestGEval:
    def test_multiplication_rule(self, G):
        assert g_eval(G, lab(G, "2", "2")) == G.index("4")

    def test_zero_absorbs(self, G):
        for x in G.carrier:
            assert g_eval(G, [G.zero, x]) == G.zero

    def test_h_triple(self, H):
        assert g_eval(H, lab(H, "1", "2", "2")) == H.index("2")

    def test_arity_error(self, G):
        with pytest.raises(ArityError):
            g_eval(G, lab(G, "2", "2", "2"))


class TestGIterated:
    def test_l1_equals_g_eval(self, G):
        assert g_iterated(G, lab(G, "2", "3")) == G.index("6")
        for t in itertools.product(G.carrier, repeat=2):
            assert g_iterated(G, t) == g_eval(G, t)

    def test_left_nesting(self, G):
        # 6*6*6: 36 = 0 mod 12, then 0 absorbs
        assert g_iterated(G, lab(G, "6", "6", "6")) == G.index("0")

    def test_zero_absorbs(self, G):
        assert g_iterated(G, lab(G, "0", "3", "4", "2")) == G.index("0")

    def test_bad_lengths(self, G, H):
        with pytest.raises(ArityError):
            g_iterated(G, [G.zero])
        with pytest.raises(ArityError):
            g_iterated(H, lab(H, "1", "1", "1", "1"))  # 4 != l*2+1


class TestGPower:
    def test_square(self, G):
        assert g_power(G, G.index("2"), 2) == G.index("4")
        assert g_power(G, G.index("6"), 2) == G.index("0")

    def test_power_one_is_identity_application(self, G, H):
        for ring in (G, H):
            for a in ring.carrier:
                assert g_power(ring, a, 1) == a

    def test_padding_matches_iteration(self, H):
        # s=4 on a (3,3)-structure pads to a 5-argument fold
        two = H.index("2")
        assert g_power(H, two, 4) == g_iterated(H, [two] * 4 + [H.one])

    def test_power_composition(self, corpus):
        # g(g_power(a,s), a^(s'), A^...) equals g_power(a, s+s') wherever
        # both sides are representable
        for ring in corpus:
            n = ring.n
            for a in ring.carrier:
                for s in range(1, ring.size + 1):
                    base = g_power(ring, a, s)
                    for extra in range(1, n):
                        lhs = g_eval(ring, (base,) + (a,) * extra
                                     + (ring.one,) * (n - 1 - extra))
                        assert lhs == g_power(ring, a, s + extra)


class TestGProduct:
    def test_padding(self, G):
        assert g_product(G, [G.index("3")]) == G.index("3")
        assert g_product(G, lab(G, "2", "2", "3")) == G.index("0")

    def test_matches_element_wise_reference(self, G, H, folds):
        for ring in [G, H] + folds:
            n = ring.n
            for length in range(1, 2 * n):
                representable = length >= n and (length - 1) % (n - 1) == 0
                if not representable:
                    with pytest.raises(ArityError):
                        g_iterated(ring, (ring.one,) * length)
                for t in itertools.product(ring.carrier, repeat=length):
                    expect = reference_g_product(ring, t)
                    assert g_product(ring, t) == expect, (ring.name, t)
                    if representable:
                        assert g_iterated(ring, t) == expect, (ring.name, t)
            for a in ring.carrier:
                for s in range(1, 2 * n):
                    assert g_power(ring, a, s) == reference_g_power(ring, a, s)


class TestValidators:
    def test_g_passes(self, G):
        assert validate_canonical_hypergroup(G).passed
        assert validate_krasner(G).passed

    def test_corpus_reports_attached(self, corpus):
        for ring in corpus:
            assert ring.validation is not None
            if ring.name != "H":
                assert ring.validation.passed, ring.name

    def test_one_element_table_passes(self, ONE):
        assert validate_krasner(ONE).passed

    def test_h_fails_distributivity_only(self, H):
        report = H.validation
        assert not report.passed
        axioms = {v.axiom for v in report.violations}
        assert axioms == {"distributivity"}
        # the canonical hypergroup part of the table is fine
        assert validate_canonical_hypergroup(H).passed

    def test_corrupted_f_entry_reported(self, G):
        bad = mutate(G, "G-mut-f", f_overrides={(G.index("2"), G.index("2")): {G.zero}})
        report = validate_krasner(bad)
        assert not report.passed
        axioms = {v.axiom for v in report.violations}
        assert axioms & {"reversibility", "inverse-uniqueness"}
        assert all(v.witness for v in report.violations)

    def test_corrupted_g_entry_reported(self, G):
        two, three = G.index("2"), G.index("3")
        bad = mutate(G, "G-mut-g", g_overrides={(two, three): G.index("1"),
                                                (three, two): G.index("1")})
        report = validate_krasner(bad)
        assert not report.passed
        axioms = {v.axiom for v in report.violations}
        assert axioms & {"distributivity", "zero-absorbing"}

    def test_empty_f_output_rejected(self, G):
        bad = mutate(G, "G-empty", f_overrides={(G.index("2"), G.index("2")): set()})
        report = validate_krasner(bad)
        assert not report.passed
        assert any(v.axiom == "f-output-nonempty" for v in report.violations)

    def test_render_is_deterministic(self, H):
        assert H.validation.render("H") == H.validation.render("H")
