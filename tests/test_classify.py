import importlib
import itertools

import pytest

from hyperrings.classify import (InternalInconsistencyError, classify,
                                 is_kn_absorbing, is_kn_absorbing_primary,
                                 is_kn_absorbing_q_primary, is_prime,
                                 is_primary, is_q_primary, is_sq_primary,
                                 is_weakly_primary, is_weakly_prime,
                                 is_wsq_primary)
from hyperrings.core import g_product
from hyperrings.corpus import document_text
from hyperrings.documents import parse_document
from hyperrings.ideals import (ImproperIdealError, ideal_from_labels,
                               make_hyperideal, proper_hyperideals,
                               radical_by_primes)
from hyperrings.theorems import run_theorem

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


def brute_kn_absorbing(ring, members, k):
    """Definition-level oracle: every (kn-k+1)-tuple whose g-product lies
    in the set has a (k-1)n-k+2 index subset whose product lies in it."""
    length = k * (ring.n - 1) + 1
    small = (k - 1) * (ring.n - 1) + 1
    for t in itertools.product(range(ring.size), repeat=length):
        if g_product(ring, t) not in members:
            continue
        if not any(g_product(ring, [t[i] for i in s]) in members
                   for s in itertools.combinations(range(length), small)):
            return False
    return True


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
                    assert (is_kn_absorbing(p, k)
                            == brute_kn_absorbing(ring, p.members, k)), (
                        ring.name, p.render(), k)

    def test_06_outcome_frozen(self, G):
        # golden value, computed by the exhaustive 216-triple scan
        p = ideal_from_labels(G, "0,6")
        assert brute_kn_absorbing(G, p.members, 2) is True
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
        # the witness is the radical's own (k,n)-absorbing witness; on the
        # 36-element GxG only k=2 is checked, since classify(p, 3) spends
        # about a minute there in the k=3 absorbing-primary scan
        for ring in corpus:
            k_max = 2 if ring.size > 8 else 3
            for p in proper_hyperideals(ring):
                record = classify(p, k_max)
                rad = radical_by_primes(ring, p)
                for k in range(2, k_max + 1):
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
                            rad_ideal, k_max).witnesses[f"absorbing_k{k}"])

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
        report = run_theorem("Thm 2.8", [G])
        assert report.status == "fail"
        assert any("{0,4}" in f for f in report.failures)


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
