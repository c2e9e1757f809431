"""The per-table memo: repeated calls return the memoised object, failed
calls store nothing, and derived data is released with its table."""
import gc
import importlib
import weakref

import pytest

from hyperrings.classify import (ClassificationRecord,
                                 InternalInconsistencyError, _outcome,
                                 classify, is_kn_absorbing,
                                 is_kn_absorbing_primary,
                                 is_kn_absorbing_q_primary, is_primary,
                                 is_prime, is_q_primary, is_sq_primary,
                                 is_weakly_primary, is_weakly_prime,
                                 is_wsq_primary)
from hyperrings.construct import (direct_product, enumerate_subhyperrings,
                                  quotient)
from hyperrings.corpus import builtin_corpus, document_text
from hyperrings.documents import parse_document
from hyperrings.ideals import (ImproperIdealError, absorption_index,
                               enumerate_hyperideals, ideal_from_labels,
                               make_hyperideal, prime_hyperideals,
                               radical_by_powers, radical_by_primes,
                               row_masks, value_rows)
from hyperrings.theorems import _subring_pool, run_all, run_theorem

classify_module = importlib.import_module("hyperrings.classify")
construct_module = importlib.import_module("hyperrings.construct")
ideals_module = importlib.import_module("hyperrings.ideals")
theorems_module = importlib.import_module("hyperrings.theorems")


def fresh_g():
    return parse_document(document_text("g.json"))


class TestMemoIdentity:
    """A rebuild returns an equal but new object, so `is` detects a memo
    that misses."""

    def test_repeated_calls_return_the_same_object(self):
        G = fresh_g()
        p = ideal_from_labels(G, "0,4")
        zero = frozenset({G.zero})
        calls = {
            "direct_product": lambda: direct_product(G, G),
            "quotient": lambda: quotient(G, p),
            "enumerate_hyperideals": lambda: enumerate_hyperideals(G),
            "enumerate_subhyperrings": lambda: enumerate_subhyperrings(G),
            "_subring_pool": lambda: _subring_pool(G),
            "radical_by_primes": lambda: radical_by_primes(G, zero),
            "radical_by_powers": lambda: radical_by_powers(G, zero),
            "classify": lambda: classify(p, 3),
            "absorption_index": lambda: absorption_index(G),
            "value_rows": lambda: value_rows(G),
            "row_masks": lambda: row_masks(G, p.members),
            "prime_hyperideals": lambda: prime_hyperideals(G),
            "_outcome": lambda: _outcome(G, p.members, "wsq_primary", None),
        }
        for name, call in calls.items():
            assert call() is call(), name

    def test_equal_arguments_share_an_entry(self):
        G = fresh_g()
        p = ideal_from_labels(G, "0,4")
        assert quotient(G, p) is quotient(G, set(p.members))
        zero = frozenset({G.zero})
        assert radical_by_primes(G, zero) is radical_by_primes(
            G, make_hyperideal(G, {G.zero}))
        assert classify(p) is classify(ideal_from_labels(G, "4,0"))

    def test_repeating_a_predicate_adds_no_entry(self):
        G = fresh_g()
        p = ideal_from_labels(G, "0,4")
        predicates = [is_prime, is_weakly_prime, is_primary, is_weakly_primary,
                      is_q_primary, is_sq_primary, is_wsq_primary]
        predicates += [lambda q, k=k, pred=pred: pred(q, k) for k in (2, 3)
                       for pred in (is_kn_absorbing, is_kn_absorbing_primary,
                                    is_kn_absorbing_q_primary)]
        for predicate in predicates:
            predicate(p)
            before = list(G.memo)
            predicate(p)
            assert list(G.memo) == before
        # _outcome and classify read the entries the predicates wrote
        _outcome(G, p.members, "wsq_primary", None)
        classify(p, 3)
        assert len(G.memo) == len(before) + 1

    def test_product_lives_in_the_first_factor(self):
        G = fresh_g()
        Q = parse_document(document_text("g_mod_06.json"))
        product = direct_product(G, Q)
        assert product in G.memo.values()
        assert product not in Q.memo.values()
        assert direct_product(Q, G) is not product


def test_row_masks_sit_only_in_their_table_memo():
    G, other = fresh_g(), fresh_g()
    p = ideal_from_labels(G, "0,4")
    classify(p, 3)
    classify(ideal_from_labels(other, "0,4"), 3)
    keys = [key for key in G.memo if key[0] == "rows"]
    assert ("rows", p.members) in keys
    assert ("rows", radical_by_primes(G, p)) in keys
    for key in keys:
        rows = G.memo[key]
        assert rows == {t[:-1]: sum(1 << c for c in G.carrier
                                    if G.g[t[:-1] + (c,)] in key[1])
                        for t in G.g}
        # no module-level cache or other table holds them
        assert rows is not other.memo[key]
        assert [r for r in gc.get_referrers(rows)
                if isinstance(r, dict)] == [G.memo]


class TestFailedCallsStoreNothing:
    @staticmethod
    def raises_twice(ring, exc, call, match=None):
        with pytest.raises(exc, match=match):
            call()
        before = list(ring.memo)
        with pytest.raises(exc, match=match):
            call()
        assert list(ring.memo) == before
        assert not any(isinstance(v, ClassificationRecord)
                       for v in ring.memo.values())

    def test_quotient_by_the_whole_ring(self):
        G = fresh_g()
        self.raises_twice(G, ValueError, lambda: quotient(G, G.full_set),
                          match="proper")
        assert not G.memo

    def test_a_miss_is_not_the_context_of_a_build_error(self):
        G = fresh_g()
        with pytest.raises(ValueError, match="proper") as info:
            quotient(G, G.full_set)
        assert info.value.__context__ is None

    @pytest.mark.parametrize("predicate", [
        is_prime, is_weakly_prime, is_primary, is_weakly_primary,
        is_q_primary, is_sq_primary, is_wsq_primary,
        *(pytest.param(lambda p, pred=pred: pred(p, 2), id=pred.__name__)
          for pred in (is_kn_absorbing, is_kn_absorbing_primary,
                       is_kn_absorbing_q_primary))])
    def test_predicate_on_an_improper_ideal(self, predicate):
        G = fresh_g()
        whole = make_hyperideal(G, G.full_set)
        before = list(G.memo)
        self.raises_twice(G, ImproperIdealError, lambda: predicate(whole),
                          match=r"^\{0,1,2,3,4,6\} is the whole of G$")
        # in particular, no "outcome" entry
        assert list(G.memo) == before

    @pytest.mark.parametrize("predicate", [
        is_kn_absorbing, is_kn_absorbing_primary, is_kn_absorbing_q_primary])
    def test_k_predicate_at_k_zero(self, predicate):
        G = fresh_g()
        p = ideal_from_labels(G, "0,4")
        before = list(G.memo)
        self.raises_twice(G, ValueError, lambda: predicate(p, 0),
                          match="^k must be positive$")
        assert list(G.memo) == before

    @pytest.mark.parametrize("k_max", [0, -5])
    def test_classify_below_k_max_one(self, k_max):
        G = fresh_g()
        p = ideal_from_labels(G, "0,4")
        before = list(G.memo)
        self.raises_twice(G, ValueError, lambda: classify(p, k_max),
                          match="^k must be positive$")
        assert list(G.memo) == before

    def test_classify_of_an_improper_ideal(self):
        G = fresh_g()
        whole = make_hyperideal(G, G.full_set)
        self.raises_twice(G, ImproperIdealError, lambda: classify(whole))
        # only the absorption index, which the hyperideal test builds
        assert list(G.memo) == [("absorption",)]

    def test_forced_disagreement(self, monkeypatch):
        original = classify_module._kn_absorbing_eval

        def flipped(ring, members, target, k):
            ok, witness = original(ring, members, target, k)
            return (ok if target == members else not ok), witness

        monkeypatch.setattr(classify_module, "_kn_absorbing_eval", flipped)
        G = fresh_g()
        p = ideal_from_labels(G, "0,4")
        self.raises_twice(G, InternalInconsistencyError,
                          lambda: classify(p, 3), match="disagree")
        # the harness reaches the same cross-check and lets it raise
        with pytest.raises(InternalInconsistencyError, match="disagree"):
            run_all([G])


def _exercise_and_watch():
    """Derive everything the harness derives from a fresh G; return
    weak references to G, to its square, to a quotient, whose memo
    holds G as its parent while G's memo holds the quotient, and to the
    subhyperring tables of G's pool, with their derived data."""
    G = fresh_g()
    for p in enumerate_hyperideals(G):
        if p.proper:
            classify(p, 3)
            table, _ = quotient(G, p)
            enumerate_hyperideals(table)
    assert table.memo["parent"][0] is G
    product = direct_product(G, G)
    enumerate_hyperideals(product)
    run_all([G])
    subrings = [sub for _, sub in _subring_pool(G)]
    assert len(subrings) == 4
    # Thm 4.13 skips G|{0}, which lies inside every hyperideal
    assert all(("hyperideals",) in sub.memo for sub in subrings[1:])
    return [weakref.ref(x) for x in (G, product, table, *subrings)]


def test_derived_data_is_released_with_its_table():
    refs = _exercise_and_watch()
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_a_second_thm_4_13_builds_no_subhyperring(monkeypatch):
    """The pool is memoised with its tables, and each table with its own
    lattice, so a second run searches no lattice and builds no table."""
    calls = []

    def counted(name, function):
        def call(*args):
            calls.append(name)
            return function(*args)
        return call

    for module in (ideals_module, construct_module, theorems_module):
        for name in ("closed_sets", "subhyperring_table"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    corpus = builtin_corpus.__wrapped__()
    first = run_theorem("Thm 4.13", corpus)
    assert "closed_sets" in calls and "subhyperring_table" in calls
    del calls[:]
    second = run_theorem("Thm 4.13", corpus)
    assert calls == []
    assert second.render() == first.render()
