import itertools
from pathlib import Path

import pytest

from hyperrings.classify import _squares, classify
from hyperrings.construct import direct_product
from hyperrings.ideals import (enumerate_hyperideals, mask_of,
                               proper_hyperideals, radical_by_primes)
from hyperrings.theorems import (KNOWN_IMPLICATIONS, THEOREM_IDS,
                                 StructureRejectedError, _ideal_tuples,
                                 implication_matrix, run_all, run_theorem,
                                 summary_line)

from conftest import fold, mutate

GOLDEN = Path(__file__).parent / "golden"


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
                assert twice.scope == single.scope
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
