import importlib
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hyperrings.classify import (InternalInconsistencyError, classify,
                                 is_kn_absorbing, is_kn_absorbing_primary,
                                 is_kn_absorbing_q_primary, is_prime,
                                 is_primary, is_q_primary, is_sq_primary,
                                 is_weakly_primary, is_weakly_prime,
                                 is_wsq_primary)
from hyperrings.construct import direct_product
from hyperrings.core import g_product
from hyperrings.corpus import document_text
from hyperrings.documents import parse_document
from hyperrings.ideals import (ImproperIdealError, ideal_from_labels,
                               make_hyperideal, proper_hyperideals,
                               radical_by_primes)
from hyperrings.theorems import run_theorem

from conftest import fold, load_gen, mutate
from strategies import corruptions

GOLDEN = Path(__file__).parent / "golden"

# the package re-exports the classify function under the submodule's name
classify_module = importlib.import_module("hyperrings.classify")


def subset(ring, *labels):
    return frozenset(ring.index(x) for x in labels)


class TestPrime:
    def test_radical_of_p_is_prime(self, G):
        assert is_prime(ideal_from_labels(G, "0,2,4,6"))

    def test_06_not_prime(self, G):
        p = ideal_from_labels(G, "0,6")
        assert not is_prime(p)
        assert classify(p).witnesses["prime"] == "(2,3)"

    def test_036_prime(self, G):
        assert is_prime(ideal_from_labels(G, "0,3,6"))

    def test_improper_raises(self, G):
        with pytest.raises(ImproperIdealError):
            is_prime(make_hyperideal(G, G.full_set))


class TestWeaklyPrime:
    def test_primes_are_weakly_prime(self, corpus):
        for ring in corpus:
            for p in proper_hyperideals(ring):
                if is_prime(p):
                    assert is_weakly_prime(p)

    def test_zero_ideal_vacuous(self, G):
        assert is_weakly_prime(make_hyperideal(G, {G.zero}))

    def test_06_not_weakly_prime(self, G):
        assert not is_weakly_prime(ideal_from_labels(G, "0,6"))


class TestPrimary:
    def test_04_primary(self, G):
        assert is_primary(ideal_from_labels(G, "0,4"))

    def test_primes_are_primary(self, G):
        assert is_primary(ideal_from_labels(G, "0,3,6"))

    def test_product_of_incomparable_ideals_not_primary(self, G, GxG):
        members = frozenset(a * G.size + b
                            for a in subset(G, "0", "4")
                            for b in subset(G, "0", "3", "6"))
        assert not is_primary(make_hyperideal(GxG, members))


class TestWeaklyPrimary:
    def test_primary_implies_weakly_primary(self, corpus):
        for ring in corpus:
            for p in proper_hyperideals(ring):
                if is_primary(p):
                    assert is_weakly_primary(p)

    def test_04(self, G):
        assert is_weakly_primary(ideal_from_labels(G, "0,4"))

    def test_06_fails(self, G):
        p = ideal_from_labels(G, "0,6")
        assert not is_weakly_primary(p)
        assert classify(p).witnesses["weakly_primary"] == "(2,3)"


class TestQPrimary:
    def test_04(self, G):
        assert is_q_primary(ideal_from_labels(G, "0,4"))

    def test_primes_are_q_primary(self, G):
        for labels in ("0,3,6", "0,2,4,6"):
            assert is_q_primary(ideal_from_labels(G, labels))

    def test_06_fails(self, G):
        assert not is_q_primary(ideal_from_labels(G, "0,6"))


# -- definition-level oracles ------------------------------------------------
# Each returns the first tuple, in product order, that violates its
# predicate, or None; classify's evaluators must return that tuple as
# their witness.

# the predicates whose condition exempts a zero g-value
WEAK = ("weakly_prime", "weakly_primary", "wsq_primary")
# the predicates of one n-tuple, each a `tuple_scan` in classify
N_TUPLE = ("prime", "weakly_prime", "primary", "weakly_primary", "sq_primary",
           "wsq_primary")


def brute_n_tuple(ring, name, members, rad):
    """The n-tuple predicates, straight from their definitions."""
    g, one = ring.g, ring.one
    square = [g_product(ring, (x, x)) for x in ring.carrier]
    for t in itertools.product(range(ring.size), repeat=ring.n):
        v = g[t]
        if v not in members or (name in WEAK and v == ring.zero):
            continue
        inside = [x in members for x in t]
        dropped = [g[t[:i] + (one,) + t[i + 1:]] in rad for i in range(ring.n)]
        passes = {
            "prime": any(inside),
            "weakly_prime": any(inside),
            "primary": all(a or b for a, b in zip(inside, dropped)),
            "weakly_primary": any(inside) or any(dropped),
            "sq_primary": any(square[x] in members for x in t) or any(dropped),
            "wsq_primary": any(square[x] in members for x in t) or any(dropped),
        }[name]
        if not passes:
            return t
    return None


def absorbing_tuples(ring, members, k):
    """The (kn-k+1)-tuples over R \\ members, in product order.  A tuple
    with an entry in a hyperideal passes every absorbing condition, since
    an index subset through that entry has its product in the hyperideal."""
    outside = [x for x in ring.carrier if x not in members]
    return itertools.product(outside, repeat=k * (ring.n - 1) + 1)


def brute_kn_absorbing(ring, members, target, k):
    """A (kn-k+1)-tuple fails when its g-product lies in the set and no
    (k-1)n-k+2 index subset has its product in target."""
    length = k * (ring.n - 1) + 1
    small = (k - 1) * (ring.n - 1) + 1
    for t in absorbing_tuples(ring, members, k):
        if g_product(ring, t) not in members:
            continue
        if not any(g_product(ring, [t[i] for i in s]) in target
                   for s in itertools.combinations(range(length), small)):
            return t
    return None


class TestAbsorbing:
    def test_prime_radical_is_2_absorbing(self, G):
        assert is_kn_absorbing(ideal_from_labels(G, "0,2,4,6"), 2)

    def test_primes_are_2_absorbing(self, corpus):
        for ring in corpus:
            for p in proper_hyperideals(ring):
                if is_prime(p):
                    assert is_kn_absorbing(p, 2)

    def test_against_brute_force(self, G, H, G_mod_06):
        # the brute oracle scans ordered tuples, so this also certifies the
        # sorted-tuple reduction inside the fast path
        for ring in (G, H, G_mod_06):
            for p in proper_hyperideals(ring):
                for k in (2, 3):
                    assert is_kn_absorbing(p, k) == (brute_kn_absorbing(
                        ring, p.members, p.members, k) is None), (
                        ring.name, p.render(), k)

    def test_06_outcome_frozen(self, G):
        # golden value, computed by the exhaustive triple scan
        p = ideal_from_labels(G, "0,6")
        assert brute_kn_absorbing(G, p.members, p.members, 2) is None
        assert is_kn_absorbing(p, 2)

    def test_bad_k(self, G):
        with pytest.raises(ValueError):
            is_kn_absorbing(ideal_from_labels(G, "0,4"), 0)


class TestAbsorbingPrimary:
    def test_absorbing_implies_absorbing_primary(self, corpus):
        for ring in corpus:
            for p in proper_hyperideals(ring):
                if is_kn_absorbing(p, 2):
                    assert is_kn_absorbing_primary(p, 2)

    def test_04(self, G):
        assert is_kn_absorbing_primary(ideal_from_labels(G, "0,4"), 2)

    def test_zero_ideal_outcome_frozen(self, G):
        # golden value from the exhaustive scan
        assert is_kn_absorbing_primary(make_hyperideal(G, {G.zero}), 2)


class TestAbsorbingQPrimary:
    def test_04(self, G):
        assert is_kn_absorbing_q_primary(ideal_from_labels(G, "0,4"), 2)

    def test_q_primary_implies_2n_absorbing_q_primary(self, corpus):
        for ring in corpus:
            for p in proper_hyperideals(ring):
                if is_q_primary(p):
                    assert is_kn_absorbing_q_primary(p, 2)

    def test_radical_fixed_point(self, G):
        p = ideal_from_labels(G, "0,6")
        assert radical_by_primes(G, p) == p.members
        assert is_kn_absorbing_q_primary(p, 2) == is_kn_absorbing(p, 2)

    def test_classify_matches_predicate(self, corpus):
        # the witness is the radical's own (k,n)-absorbing witness
        for ring in corpus:
            for p in proper_hyperideals(ring):
                record = classify(p, 3)
                rad = radical_by_primes(ring, p)
                for k in (2, 3):
                    name = f"absorbing_q_primary_k{k}"
                    ok = is_kn_absorbing_q_primary(p, k)
                    assert record.outcomes[name] == ok, (ring.name, p.render())
                    if ok:
                        assert name not in record.witnesses
                    elif len(rad) == ring.size:
                        assert record.witnesses[name] == "radical is improper"
                    else:
                        rad_ideal = make_hyperideal(ring, rad, strict=False)
                        assert (record.witnesses[name] == classify(
                            rad_ideal, 3).witnesses[f"absorbing_k{k}"])

    def test_disagreement_raises(self, monkeypatch):
        # a freshly parsed G, so that no memo keyed by it is warm; the
        # tuple characterization is flipped wherever its target is the
        # radical rather than the ideal itself
        original = classify_module._kn_absorbing_eval

        def flipped(ring, members, target, k):
            ok, witness = original(ring, members, target, k)
            return (ok if target == members else not ok), witness

        monkeypatch.setattr(classify_module, "_kn_absorbing_eval", flipped)
        G = parse_document(document_text("g.json"))
        p = ideal_from_labels(G, "0,4")
        assert radical_by_primes(G, p) != p.members
        with pytest.raises(InternalInconsistencyError, match="disagree"):
            is_kn_absorbing_q_primary(p, 2)
        with pytest.raises(InternalInconsistencyError, match="disagree"):
            classify(p, 3)
        with pytest.raises(InternalInconsistencyError, match="disagree"):
            run_theorem("Thm 2.8", [G])


def brute_kn_absorbing_primary(ring, members, rad, k):
    """A (kn-k+1)-tuple fails when its g-product lies in the set, its
    leading (k-1)n-k+2 product does not, and no other index subset has its
    product in the radical."""
    length = k * (ring.n - 1) + 1
    small = (k - 1) * (ring.n - 1) + 1
    others = list(itertools.combinations(range(length), small))[1:]
    for t in absorbing_tuples(ring, members, k):
        if g_product(ring, t) not in members:
            continue
        if g_product(ring, t[:small]) in members:
            continue
        if not any(g_product(ring, [t[i] for i in s]) in rad for s in others):
            return t
    return None


class TestAbsorbingOracles:
    # k = 1 makes every index subset a single entry and every qualifying
    # tuple exactly n long
    @pytest.mark.parametrize("k", [1, 2])
    def test_against_brute_force(self, G, H, k):
        for ring in (G, H):
            for p in proper_hyperideals(ring):
                rad = radical_by_primes(ring, p)
                where = (ring.name, p.render(), k)
                assert is_kn_absorbing(p, k) == (brute_kn_absorbing(
                    ring, p.members, p.members, k) is None), where
                assert is_kn_absorbing_primary(p, k) == (
                    brute_kn_absorbing_primary(ring, p.members, rad, k)
                    is None), where
                assert is_kn_absorbing_q_primary(p, k) == (
                    len(rad) < ring.size
                    and brute_kn_absorbing(ring, rad, rad, k) is None), where

    def test_k1_where_1_is_not_neutral(self, G_mod_06):
        # g(2+4, 1) = 1 here, so a product re-associated through 1 differs
        # from g itself on tuples starting with 2+4; {0+6} tells them apart
        ring = G_mod_06
        a, one = ring.index("2+4"), ring.one
        ring = mutate(ring, "G/{0,6}-corrupt",
                      g_overrides={(a, one): one, (one, a): one})
        p = make_hyperideal(ring, {ring.zero})
        assert is_kn_absorbing(p, 1) == (
            brute_kn_absorbing(ring, p.members, p.members, 1) is None)
        assert not is_kn_absorbing(p, 1)


ORACLE_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                           database=None)


def assert_witnesses_match(ring, sets=None):
    """Every predicate's outcome and witness on every member set (by
    default, every proper hyperideal's) equal the brute oracle's."""
    evaluate = classify_module._EVALUATORS
    if sets is None:
        sets = [p.members for p in proper_hyperideals(ring)]
    for members in sets:
        rad = radical_by_primes(ring, members)
        expected = [(name, None, brute_n_tuple(ring, name, members, rad))
                    for name in N_TUPLE]
        for k in (1, 2, 3):
            expected += [
                ("absorbing", k,
                 brute_kn_absorbing(ring, members, members, k)),
                ("absorbing_primary", k,
                 brute_kn_absorbing_primary(ring, members, rad, k)),
                ("absorbing_q_primary_tuples", k,
                 brute_kn_absorbing(ring, members, rad, k)),
            ]
        # the two predicates of the radical: prime, and (k,n)-absorbing
        of_radical = [("q_primary", None)] + [("absorbing_q_primary", k)
                                              for k in (1, 2, 3)]
        if len(rad) == ring.size:
            for name, k in of_radical:
                assert evaluate[name](ring, members, k) == (
                    False, "radical is improper"), (ring.name, name, k)
        else:
            expected += [(name, k, brute_n_tuple(ring, "prime", rad, rad)
                          if k is None else brute_kn_absorbing(ring, rad, rad, k))
                         for name, k in of_radical]
        for name, k, t in expected:
            assert evaluate[name](ring, members, k) == (t is None, t), (
                ring.name, ring.subset_label(members), name, k)


class TestWitnessOracles:
    """The row scans against the definitions, witnesses included, at k = 1,
    2 and 3.  The oracles scan every ordered tuple.  On a table that passes
    validation the absorbing scan walks sorted tuples only, so there its
    witness is certified to be the lexicographically first one; on any
    other table, a corrupted one included, it must walk them all."""

    def test_builtin(self, G, H, G_mod_06):
        for ring in (G, H, G_mod_06):
            assert_witnesses_match(ring)

    @pytest.mark.parametrize("which", range(3))
    def test_folds(self, folds, which):
        assert_witnesses_match(folds[which])

    def test_fold_24_n_tuple(self, G):
        # n = 4: primary fails a tuple on any of three prefix drops, the
        # others only on all of them; the absorbing oracles are too slow
        # here.  Of these sets only {4,6} tells a scan that drops just the
        # first two prefix positions apart, on primary
        ring = fold(G, 2, 4)
        sets = [p.members for p in proper_hyperideals(ring)] + [
            frozenset(s) for r in (1, 2)
            for s in itertools.combinations(ring.carrier, r)]
        for members in sets:
            rad = radical_by_primes(ring, members)
            for name in N_TUPLE:
                t = brute_n_tuple(ring, name, members, rad)
                assert classify_module._EVALUATORS[name](
                    ring, members, None) == (t is None, t), (
                    name, ring.subset_label(members))

    def test_certified_product(self, G, G_mod_0246):
        # two different factors: the lattice and the primes, and with them
        # the radicals the scans prune by, come from the certificate
        assert_witnesses_match(direct_product(G, G_mod_0246))

    def test_ordered_path(self, T):
        # T fails validation, so its scans must walk every ordered tuple;
        # a sorted walk misses (2,0) on {3} at k = 1, among others
        assert not T.validation.passed
        assert_witnesses_match(T, [frozenset(s) for r in range(T.size)
                                   for s in itertools.combinations(T.carrier, r)])
        assert not is_kn_absorbing(
            make_hyperideal(T, {T.index("3")}, strict=False), 1)

    def test_k1_primary_witness_leading_with_a_radical_entry(self, T):
        # g(3,4) = 0 on T, 3 lies in the radical {0,3,6} of {0} and 4 does
        # not: at k = 1 position 0 passes only inside {0} itself, so its
        # entries must not be pruned by the radical
        zero = frozenset({T.zero})
        assert T.subset_label(radical_by_primes(T, zero)) == "{0,3,6}"
        assert classify_module._EVALUATORS["absorbing_primary"](
            T, zero, 1) == (False, (T.index("3"), T.index("4")))

    def test_fold_where_1_is_not_neutral(self, folds):
        # g(2,2,1) = 3 on the (2,3) fold, where 2.2 = 4 in G, so a fold that
        # re-associates through 1 differs from the left fold of g itself
        ring = folds[1]
        two, one = ring.index("2"), ring.one
        ring = mutate(ring, "G^(2,3)-corrupt",
                      g_overrides={(two, two, one): ring.index("3")})
        assert_witnesses_match(ring)

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_corrupted_g(self, G, data):
        assert_witnesses_match(data.draw(corruptions(G)))

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_corrupted_h(self, H, data):
        assert_witnesses_match(data.draw(corruptions(H)))


class TestSqPrimary:
    def test_h_t02(self, H):
        # the deviant-table reproduction: {0,2} evaluated leniently
        t = make_hyperideal(H, subset(H, "0", "2"), strict=False)
        assert is_sq_primary(t)

    def test_04(self, G):
        assert is_sq_primary(ideal_from_labels(G, "0,4"))

    def test_06_fails_with_witness(self, G):
        p = ideal_from_labels(G, "0,6")
        assert not is_sq_primary(p)
        rec = classify(p)
        assert rec.witnesses["sq_primary"] == "(2,3)"

    def test_zero_ideal_of_g_not_sq(self, G):
        assert not is_sq_primary(make_hyperideal(G, {G.zero}))


class TestWsqPrimary:
    def test_036(self, G):
        assert is_wsq_primary(ideal_from_labels(G, "0,3,6"))

    def test_sq_implies_wsq(self, corpus):
        for ring in corpus:
            for p in proper_hyperideals(ring):
                if is_sq_primary(p):
                    assert is_wsq_primary(p)

    def test_06_fails_with_nonzero_witness(self, G):
        p = ideal_from_labels(G, "0,6")
        assert not is_wsq_primary(p)
        rec = classify(p)
        assert rec.witnesses["wsq_primary"] == "(2,3)"

    def test_zero_ideal_of_g_is_wsq(self, G):
        assert is_wsq_primary(make_hyperideal(G, {G.zero}))


class TestClassify:
    def test_04_record(self, G):
        rec = classify(ideal_from_labels(G, "0,4"), k_max=2)
        assert rec.outcomes == {
            "prime": False, "weakly_prime": False, "primary": True,
            "weakly_primary": True, "q_primary": True, "sq_primary": True,
            "wsq_primary": True, "absorbing_k2": True,
            "absorbing_primary_k2": True, "absorbing_q_primary_k2": True,
        }

    def test_zero_ideal_record(self, G):
        rec = classify(make_hyperideal(G, {G.zero}), k_max=2)
        assert rec.outcomes["weakly_prime"]
        assert rec.outcomes["weakly_primary"]
        assert rec.outcomes["wsq_primary"]
        assert not rec.outcomes["prime"]
        assert not rec.outcomes["sq_primary"]

    def test_every_predicate_present_once(self, G):
        rec = classify(ideal_from_labels(G, "0,6"), k_max=3)
        names = list(rec.outcomes)
        assert len(names) == len(set(names))
        assert set(names) == {
            "prime", "weakly_prime", "primary", "weakly_primary", "q_primary",
            "sq_primary", "wsq_primary", "absorbing_k2",
            "absorbing_primary_k2", "absorbing_q_primary_k2", "absorbing_k3",
            "absorbing_primary_k3", "absorbing_q_primary_k3"}

    def test_false_outcomes_carry_witnesses(self, corpus):
        for ring in corpus:
            for p in proper_hyperideals(ring):
                rec = classify(p)
                for name, ok in rec.outcomes.items():
                    if not ok:
                        assert name in rec.witnesses, (ring.name, name)

    def test_improper_raises(self, G):
        with pytest.raises(ImproperIdealError):
            classify(make_hyperideal(G, G.full_set))

    def test_gxg_k3_golden(self, GxG):
        # pins the ordered k = 3 scans' witnesses on the largest table;
        # made with the element-wise scans that the row scans replaced
        lines = []
        for p in proper_hyperideals(GxG):
            lines.append("ideal: " + p.render())
            lines.extend(classify(p, 3).render_lines())
        golden = (GOLDEN / "classify_gxg_k3.txt").read_text()
        assert "\n".join(lines) + "\n" == golden

    def test_g_folds_golden(self, G, folds):
        # pins the n-tuple witnesses at n = 3 and 4, primary's among them,
        # on G's (2,3), (3,2), (3,3) and (2,4) folds
        lines = []
        for ring in (folds[1], folds[2], folds[0], fold(G, 2, 4)):
            for p in proper_hyperideals(ring):
                lines.append(f"ideal: {ring.name} {p.render()}")
                lines.extend(classify(p, 2).render_lines())
        golden = (GOLDEN / "classify_g_folds.txt").read_text()
        assert "\n".join(lines) + "\n" == golden


class TestImplicationScope:
    """sq => q is proved for n = 2 only; at n = 3 it has counterexamples,
    which classify reports as outcomes rather than raising on."""

    def test_sq_not_q_at_n3_is_a_record(self, G33):
        rec = classify(make_hyperideal(G33, {G33.zero}), k_max=2)
        assert rec.outcomes["sq_primary"] is True
        assert rec.outcomes["q_primary"] is False

    def test_thm_3_3_still_fails_at_n3(self, G33):
        report = run_theorem("Thm 3.3", [G33])
        assert report.status == "fail"
        assert any("{0} sq-primary but not q-primary" in f
                   for f in report.failures)

    def test_every_fold_ideal_classifies(self, folds):
        for ring in folds:
            for p in proper_hyperideals(ring):
                assert classify(p, 3).ideal == p

    def test_omega_of_d_decides_sq_and_q(self):
        # On the (m,n)-folds of Z_k/U(k), the image of dZ_k is sq-primary
        # exactly when d has at most n-1 distinct primes, and q-primary
        # exactly when it has one (ROADMAP 1(a)).  Z_30 at n = 3, whose
        # zero ideal has three primes, is the control that is not.  Z_k/U(k)
        # has one element per divisor of k, at most 8 here, so n = 4 is cheap.
        gen = load_gen()
        checked, not_sq = 0, set()
        for k in range(2, 31):
            q = gen.Quotient(k, frozenset(gen.units(k)))
            assert q.size <= 8
            for m, n in itertools.product((2, 3), (2, 3, 4)):
                item = gen.quotient_item(q, m, n)
                ring = parse_document(item.text)
                for labels, d in item.ideals.items():
                    omega = len(gen.prime_factors(d))
                    ideal = make_hyperideal(ring, {ring.index(x) for x in labels})
                    assert is_sq_primary(ideal) == (omega <= n - 1), (ring.name, d)
                    assert is_q_primary(ideal) == (omega == 1), (ring.name, d)
                    checked += 1
                    if omega > n - 1:
                        not_sq.add((k, n, d))
        assert checked == 486
        assert (30, 3, 30) in not_sq

    def test_sq_implies_q_still_checked_at_n2(self, monkeypatch):
        monkeypatch.setitem(classify_module._EVALUATORS, "q_primary",
                            lambda ring, members, k: (False, "forced"))
        G = parse_document(document_text("g.json"))
        p = ideal_from_labels(G, "0,4")
        assert is_sq_primary(p)
        with pytest.raises(InternalInconsistencyError, match="q_primary fails"):
            classify(p)
