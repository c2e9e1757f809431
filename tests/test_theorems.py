import functools
import importlib
import itertools
from pathlib import Path

import pytest

from hyperrings.classify import _squares, classify, is_sq_primary, is_wsq_primary
from hyperrings.construct import direct_product
from hyperrings.ideals import (enumerate_hyperideals, generated_by, mask_of,
                               proper_hyperideals, quotient_sets,
                               radical_by_primes, row_masks)
from hyperrings.theorems import (_REGISTRY, KNOWN_IMPLICATIONS, THEOREM_IDS,
                                 StructureRejectedError, _anchor_rows,
                                 _anchors, _Harness, _ideal_tuples, _run,
                                 _unless, implication_matrix, run_all,
                                 run_theorem, summary_line)

from conftest import fold, mutate

GOLDEN = Path(__file__).parent / "golden"
theorems_module = importlib.import_module("hyperrings.theorems")


class TestRegistry:
    def test_registered_ids(self):
        assert THEOREM_IDS == [
            "Thm 2.3", "Cor 2.4", "Thm 2.6", "Thm 2.7", "Thm 2.8", "Thm 2.9",
            "Thm 3.3", "Thm 3.4", "Thm 3.5", "Thm 3.7", "Thm 3.8", "Thm 3.9",
            "Thm 4.4", "Cor 4.5", "Thm 4.6", "Thm 4.7", "Cor 4.8", "Thm 4.9",
            "Thm 4.10", "Thm 4.11", "Cor 4.12", "Thm 4.13", "Thm 4.15",
            "Cor 4.16"]

    def test_unknown_id(self, G):
        with pytest.raises(KeyError):
            run_theorem("Thm 9.9", [G])


class TestSingleTheorems:
    def test_3_3_on_g_and_h(self, G, H):
        report = run_theorem("Thm 3.3", [G, H])
        assert report.status == "pass"
        assert report.instances >= 2

    def test_4_4_non_vacuous_over_corpus(self, corpus):
        report = run_theorem("Thm 4.4", corpus)
        assert report.status == "pass"
        assert report.instances >= 1

    def test_4_15_on_g(self, G):
        report = run_theorem("Thm 4.15", [G])
        assert report.status == "pass"
        # one orientation per proper hyperideal of G against the product
        assert report.instances == 5

    def test_3_5_vacuous(self, corpus):
        # the whole structure is principal over the identity, so the
        # hypothesis can never hold; vacuity itself is the expected answer
        report = run_theorem("Thm 3.5", corpus)
        assert report.status == "vacuous"

    def test_4_4_instances_are_the_known_wsq_not_sq_ideals(self, corpus):
        # the corpus has exactly three wsq-but-not-sq hyperideals: the zero
        # ideals of G, GxG and G/{0,6}
        report = run_theorem("Thm 4.4", corpus)
        assert report.instances == 3

    def test_4_6_vacuous_no_two_element_families(self, corpus):
        # each structure has at most one wsq-not-sq ideal, so no family of
        # size two or three exists
        report = run_theorem("Thm 4.6", corpus)
        assert report.status == "vacuous"


class TestRunAll:
    def test_no_failures_over_corpus(self, corpus):
        reports = run_all(corpus)
        assert len(reports) == len(THEOREM_IDS)
        for report in reports:
            assert report.status in ("pass", "vacuous"), report.render()

    def test_one_element_all_vacuous_or_pass(self, ONE):
        for report in run_all([ONE]):
            assert report.status in ("pass", "vacuous")

    def test_local_ring_needing_two_rounds_of_joins(self, local16):
        reports = run_all([local16])
        assert "fail: 0" in summary_line(reports)

    @staticmethod
    def assert_golden(ring, filename):
        reports = run_all([ring])
        text = "".join(r.render() + "\n" for r in reports)
        text += summary_line(reports) + "\n"
        assert text == (GOLDEN / filename).read_text()

    def test_g23_golden(self, folds):
        # made at the commit before the checkers became generators; pins
        # the n = 3 failures with their counterexamples
        self.assert_golden(folds[1], "theorems_g23.txt")

    def test_g32_golden(self, folds):
        # made while the 36-element (3,2) product was still validated by
        # scan, when this run took 39 s; no fail
        self.assert_golden(folds[2], "theorems_g32.txt")

    def test_g33_golden(self, G33):
        # made while products were still validated by scan (46 s then);
        # pins 4 fails, 18 of whose 21 counterexamples sit on the product
        self.assert_golden(G33, "theorems_g33.txt")

    def test_gxg_times_g_mod_0246_golden(self, GxG, G_mod_0246):
        # made while the absorbing predicates of radicals were still
        # decided by tuple scans; pins Thm 2.6, 2.7 and 2.9 on 72 elements,
        # where radicals have up to 5 minimal primes
        self.assert_golden(direct_product(GxG, G_mod_0246),
                           "theorems_gxg_x_g_mod_0246.txt")

    @pytest.mark.parametrize("m, n", [(2, 3), (3, 3)])
    def test_a_warm_run_renders_as_the_cold_one(self, G, m, n):
        # a fresh fold, so the first run is cold; four reports fail,
        # Thm 4.9's with an r that the memoised rows and ideals supply
        ring = fold(G, m, n)
        cold = [r.render() for r in run_all([ring])]
        warm = [r.render() for r in run_all([ring])]
        assert sum(": fail (" in block for block in cold) == 4
        assert warm == cold

    def test_run_theorem_is_its_run_all_block(self, corpus):
        blocks = {r.theorem_id: r.render() for r in run_all(corpus)}
        for tid in THEOREM_IDS:
            assert run_theorem(tid, corpus).render() == blocks[tid], tid

    def test_a_structure_passed_twice_counts_once(self, G_mod_06, G_mod_0246):
        q, r = G_mod_0246, G_mod_06
        for structures, once in (([q, q], [q]), ([q, r, q, r, r], [q, r])):
            assert ([report.render() for report in run_all(structures)]
                    == [report.render() for report in run_all(once)])
            for tid in ("Thm 2.3", "Cor 2.4", "Thm 3.3"):
                twice = run_theorem(tid, structures)
                single = run_theorem(tid, once)
                assert twice.instances == single.instances, tid
                assert single.instances

    def test_corrupted_structure_refused(self, G):
        two, three = G.index("2"), G.index("3")
        bad = mutate(G, "G-mut", g_overrides={(two, three): G.index("1"),
                                              (three, two): G.index("1")})
        with pytest.raises(StructureRejectedError):
            run_all([bad])

    def test_deterministic_output(self, corpus):
        first = "\n".join(r.render() for r in run_all(corpus))
        second = "\n".join(r.render() for r in run_all(corpus))
        assert first == second

    def test_summary_line(self, ONE):
        reports = run_all([ONE])
        line = summary_line(reports)
        assert line.startswith(f"theorems: {len(THEOREM_IDS)};")
        assert "fail: 0" in line


def _square_or_drop(ring, squares, family, p, rad):
    """Thm 3.7's conclusion: for some i, the squares of the i-th ideal lie
    in P, or the product with the i-th ideal dropped lies in rad P."""
    for i in range(ring.n):
        if all(squares[x] in p.members for x in family[i].members):
            return True
        rest = [sorted(family[j].members) for j in range(ring.n) if j != i]
        if frozenset(ring.g[t[:i] + (ring.one,) + t[i:]]
                     for t in itertools.product(*rest)) <= rad:
            return True
    return False


def test_thm_3_7_masks_decide_as_the_sets_did(corpus, folds):
    """The memoised tuple masks against the set computations they replaced
    (the oracle above, and the g-product as a set), for every proper P and
    every n-tuple of hyperideals, in the same order."""
    decisions, verdicts = set(), set()
    for ring in [*corpus, *folds]:
        squares = _squares(ring)
        tuples = _ideal_tuples(ring)
        families = list(itertools.product(enumerate_hyperideals(ring),
                                          repeat=ring.n))
        assert [entry[0] for entry in tuples] == families
        products = [frozenset(ring.g[t] for t in itertools.product(
            *[sorted(i.members) for i in family])) for family in families]
        for p in proper_hyperideals(ring):
            rad = radical_by_primes(ring, p)
            outside, beyond = ~mask_of(p.members), ~mask_of(rad)
            for (family, prod, square_masks, drops), product in zip(tuples, products):
                inside = not prod & outside
                assert inside == (product <= p.members)
                ok = any(not sq & outside or not drop & beyond
                         for sq, drop in zip(square_masks, drops))
                assert ok == _square_or_drop(ring, squares, family, p, rad)
                decisions.add(inside)
                verdicts.add(ok)
    assert decisions == verdicts == {True, False}


# -- the per-instance loops that the mask checkers replaced, as oracles ------

def _check_3_7_by_any(h, hypothesis=is_sq_primary):
    """Thm 3.7 with one `any` over the masks and one `_unless` per
    instance."""
    for ring in h.structures:
        sq_ideals = [p for p in proper_hyperideals(ring) if hypothesis(p)]
        if not sq_ideals:
            continue
        tuples = _ideal_tuples(ring)
        for p in sq_ideals:
            outside = ~mask_of(p.members)
            beyond = ~mask_of(radical_by_primes(ring, p))
            for family, prod, squares, drops in tuples:
                if prod & outside:
                    continue
                ok = any(not sq & outside or not drop & beyond
                         for sq, drop in zip(squares, drops))
                yield ring, _unless(ok, lambda: (
                    f"sq-primary {p.render()} with ideal tuple "
                    f"{[i.render() for i in family]} violating the conclusion"))


def _trichotomy(ring, p, rad, r):
    """Thm 4.9's alternative at r on the sets of `quotient_sets`: <r>
    inside P_r, or P_r inside rad P or inside A_r."""
    pair = quotient_sets(ring, p, r)
    return (generated_by(ring, r).raw <= pair.p_r or pair.p_r <= rad
            or pair.p_r <= pair.a_r)


def _check_4_9_by_sets(h):
    for ring, p in h.ideals:
        lhs = is_wsq_primary(p)
        rad = radical_by_primes(ring, p)
        bad_r = next((r for r in ring.carrier
                      if not _trichotomy(ring, p, rad, r)), None)
        rhs = bad_r is None
        yield ring, _unless(lhs == rhs, lambda: (
            f"{p.render()}: wsq={lhs} but P_r trichotomy={rhs}"
            + (f" (r={ring.label(bad_r)})" if bad_r is not None else "")))


def _noncommuting_fold(G33):
    """G^(3,3) with g(2,3,1) = 0 instead of 6, waived like H: g no longer
    commutes, so g(r, a, 1) and the row at (r, 1) part ways.  Thm 4.9
    fails {0,6} at r = 3; read off the rows at (r, 1), it would name r = 2."""
    zero, one, two, three = (G33.index(x) for x in "0123")
    ring = mutate(G33, "G33'", g_overrides={(two, three, one): zero})
    ring.validation_waived = True
    return ring


@pytest.fixture(scope="module")
def oracle_structures(corpus, folds, G, ONE, H, G33):
    return {"corpus": corpus, "G^(3,3)": [folds[0]], "G^(2,3)": [folds[1]],
            "G^(3,2)": [folds[2]],
            "ONE x G, G x ONE": [direct_product(ONE, G), direct_product(G, ONE)],
            "H": [H], "G^(3,3) without commutative g": [_noncommuting_fold(G33)]}


@pytest.mark.parametrize("theorem_id, oracle", [
    ("Thm 3.7", _check_3_7_by_any), ("Thm 4.9", _check_4_9_by_sets)])
def test_mask_checkers_report_as_their_oracles(oracle_structures, theorem_id,
                                               oracle):
    """Same render, so same instance count and failures in the same order,
    on every structure set; the n = 3 folds fail Thm 4.9."""
    entry = next(e for e in _REGISTRY if e[0] == theorem_id)
    failing = set()
    for name, structures in oracle_structures.items():
        got = run_theorem(theorem_id, structures)
        want = _run(_Harness(structures), theorem_id, entry[1], oracle)
        assert (got.render(), got.instances) == (want.render(), want.instances), name
        if got.failures:
            failing.add(name)
    if theorem_id == "Thm 4.9":
        assert {"G^(3,3)", "G^(2,3)"} <= failing


def test_thm_3_7_fails_as_its_oracle_does(monkeypatch, corpus, folds):
    """No structure here fails Thm 3.7, so the hypothesis is widened to
    every proper P: the failures then render in the oracle's order."""
    monkeypatch.setattr(theorems_module, "is_sq_primary", lambda p: True)
    entry = next(e for e in _REGISTRY if e[0] == "Thm 3.7")
    for structures in (corpus, folds):
        got = run_theorem("Thm 3.7", structures)
        want = _run(_Harness(structures), "Thm 3.7", entry[1], functools.partial(
            _check_3_7_by_any, hypothesis=lambda p: True))
        # thousands of failures: a bool, so that a mismatch is not diffed
        same = got.render() == want.render()
        assert got.failures and same


def test_anchor_masks_are_the_quotient_sets(oracle_structures):
    """<r>'s raw mask and the masks of P_r and A_r against generated_by and
    quotient_sets, for every r and every proper P."""
    pairs = 0
    for structures in oracle_structures.values():
        for ring in structures:
            anchors = _anchors(ring)
            assert [raw for raw, _ in anchors] == [
                mask_of(generated_by(ring, r).raw) for r in ring.carrier]
            for p in proper_hyperideals(ring):
                p_rows, a_rows = _anchor_rows(ring, p.members)
                for r, (_, key) in enumerate(anchors):
                    pair = quotient_sets(ring, p, r)
                    assert (p_rows[key], a_rows[key]) == (
                        mask_of(pair.p_r), mask_of(pair.a_r))
                    pairs += 1
    assert pairs > 500


def test_a_failing_table_needs_the_exact_p_r(oracle_structures):
    """On the fold whose g does not commute, a row mask at (r, 1) is not
    P_r, so the checker must read P_r off the rows of g there."""
    ring, = oracle_structures["G^(3,3) without commutative g"]
    assert not ring.validation.passed
    one = ring.one
    assert any(row_masks(ring, p.members)[(r, one)]
               != mask_of(quotient_sets(ring, p, r).p_r)
               for p in proper_hyperideals(ring) for r in ring.carrier)


class TestImplicationMatrix:
    def test_known_implications_hold(self, corpus):
        matrix = implication_matrix(corpus)
        for a, b in KNOWN_IMPLICATIONS:
            assert matrix.holds(a, b), (a, b, matrix.entries[(a, b)])

    def test_golden_render(self, corpus):
        matrix = implication_matrix(corpus)
        golden = (GOLDEN / "implication_matrix.txt").read_text()
        assert matrix.render() == golden

    def test_reverse_of_weakly_prime_fails(self, corpus):
        matrix = implication_matrix(corpus)
        assert not matrix.holds("weakly_prime", "prime")

    def test_q_to_sq_outcome_recorded(self, corpus):
        # no corpus counterexample separates q-primary from sq-primary;
        # the golden matrix freezes that empirical outcome
        matrix = implication_matrix(corpus)
        assert matrix.holds("q_primary", "sq_primary")

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_predicates_are_the_record_entries(self, corpus, k):
        p = proper_hyperideals(corpus[0])[0]
        assert implication_matrix(corpus, k).predicates == tuple(
            classify(p, k).outcomes)
