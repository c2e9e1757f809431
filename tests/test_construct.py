import itertools

import pytest

from hyperrings.classify import classify
from hyperrings.construct import (Homomorphism, KernelNotContainedError,
                                  NotSurjectiveError, direct_product,
                                  enumerate_subhyperrings, image_ideal,
                                  is_homomorphism, is_multiplicative_subset,
                                  is_subhyperring, preimage_ideal, quotient,
                                  scalar_identity_in, subhyperring_table)
from hyperrings.core import ArityError, validate_krasner
from hyperrings.ideals import (ideal_from_labels, make_hyperideal,
                               proper_hyperideals)


def subset(ring, *labels):
    return frozenset(ring.index(x) for x in labels)


class TestDirectProduct:
    def test_gxg_validates(self, GxG):
        assert GxG.size == 36
        assert GxG.validation.passed

    def test_arity_mismatch(self, G, H):
        with pytest.raises(ArityError):
            direct_product(G, H)

    def test_product_with_one_is_isomorphic_copy(self, G, ONE):
        prod = direct_product(G, ONE)
        assert prod.size == G.size
        assert prod.validation.passed
        # corresponding ideals classify identically
        for ideal in proper_hyperideals(G):
            rec_g = classify(ideal).outcomes
            image = make_hyperideal(prod, ideal.members)
            rec_p = classify(image).outcomes
            assert rec_g == rec_p

    def test_componentwise_tables(self, G, GxG):
        s = G.size
        for (a1, b1), (a2, b2) in itertools.product(
                itertools.product(range(s), repeat=2), repeat=2):
            got = GxG.f[(a1 * s + b1, a2 * s + b2)]
            want = frozenset(x * s + y
                             for x in G.f[(a1, a2)] for y in G.f[(b1, b2)])
            assert got == want
            assert GxG.g[(a1 * s + b1, a2 * s + b2)] == (
                G.g[(a1, a2)] * s + G.g[(b1, b2)])

    def test_wsq_of_product_matches_sq_of_factor(self, G, GxG):
        # {0,4} x G is wsq-primary exactly because {0,4} is sq-primary
        s = G.size
        members = frozenset(a * s + b for a in subset(G, "0", "4")
                            for b in range(s))
        prod_ideal = make_hyperideal(GxG, members)
        assert classify(prod_ideal).outcomes["wsq_primary"]
        assert classify(ideal_from_labels(G, "0,4")).outcomes["sq_primary"]


class TestQuotient:
    def test_mod_0246_has_two_classes(self, G):
        table, proj = quotient(G, ideal_from_labels(G, "0,2,4,6"))
        assert table.size == 2
        assert table.labels == ("0+2+4+6", "1+3")
        assert table.validation.passed

    def test_mod_zero_is_isomorphic(self, G):
        table, proj = quotient(G, make_hyperideal(G, {G.zero}))
        assert table.size == G.size
        assert proj.injective and proj.surjective

    def test_mod_06_classes_and_kernel(self, G):
        # classes computed from the addition table: {0,6},{1},{2,4},{3}
        table, proj = quotient(G, ideal_from_labels(G, "0,6"))
        assert table.labels == ("0+6", "1", "2+4", "3")
        assert proj.kernel == subset(G, "0", "6")
        assert table.validation.passed

    def test_projection_is_homomorphism(self, G):
        for labels in ("0,6", "0,4", "0,3,6", "0,2,4,6"):
            table, proj = quotient(G, ideal_from_labels(G, labels))
            assert is_homomorphism(proj.mapping, G, table).passed

    def test_preimage_of_zero_class_recovers_ideal(self, corpus):
        for ring in corpus:
            for q in proper_hyperideals(ring):
                table, proj = quotient(ring, q)
                zero_class = make_hyperideal(table, {table.zero})
                assert preimage_ideal(proj, zero_class).members == q.members

    def test_improper_rejected(self, G):
        with pytest.raises(ValueError):
            quotient(G, make_hyperideal(G, G.full_set))

    def test_non_ideal_gives_overlapping_classes(self, G):
        # {0,2} is not a hyperideal; its translates overlap without being
        # equal, which the construction must refuse with a witness
        from hyperrings.construct import IllDefinedQuotientError
        bad = make_hyperideal(G, subset(G, "0", "2"), strict=False)
        with pytest.raises(IllDefinedQuotientError):
            quotient(G, bad)


class TestIsHomomorphism:
    def test_identity(self, G):
        assert is_homomorphism(tuple(G.carrier), G, G).passed

    def test_swap_two_three_fails(self, G):
        mapping = list(G.carrier)
        two, three = G.index("2"), G.index("3")
        mapping[two], mapping[three] = mapping[three], mapping[two]
        report = is_homomorphism(tuple(mapping), G, G)
        assert not report.passed
        assert any(v.axiom in ("hom-f", "hom-g") for v in report.violations)


class TestImageAndPreimage:
    def test_image_of_ideal_under_projection(self, G):
        q = ideal_from_labels(G, "0,6")
        table, proj = quotient(G, q)
        image = image_ideal(proj, ideal_from_labels(G, "0,2,4,6"))
        # classes {0,6} and {2,4}
        assert image.members == {table.zero, table.index("2+4")}
        assert image.valid

    def test_image_of_kernel_is_zero_class(self, G):
        q = ideal_from_labels(G, "0,6")
        table, proj = quotient(G, q)
        assert image_ideal(proj, q).members == {table.zero}

    def test_image_requires_kernel_inside(self, G):
        q = ideal_from_labels(G, "0,6")
        table, proj = quotient(G, q)
        with pytest.raises(KernelNotContainedError):
            image_ideal(proj, ideal_from_labels(G, "0,4"))

    def test_image_requires_surjective(self, G, GxG):
        s = G.size
        h = Homomorphism(G, GxG, tuple(x * s + 0 for x in G.carrier))
        with pytest.raises(NotSurjectiveError):
            image_ideal(h, ideal_from_labels(G, "0,4"))

    def test_preimage_of_improper_is_improper_set(self, G):
        table, proj = quotient(G, ideal_from_labels(G, "0,6"))
        pre = preimage_ideal(proj, make_hyperideal(table, table.full_set))
        assert pre.members == G.full_set


class TestSubhyperrings:
    def test_known_subhyperrings_of_g(self, G):
        assert is_subhyperring(G, subset(G, "0", "2", "4", "6"))
        assert is_subhyperring(G, subset(G, "0"))
        assert not is_subhyperring(G, subset(G, "1", "3"))

    def test_enumeration_matches_brute_force(self, corpus, folds):
        for ring in list(corpus) + folds:
            if ring.size > 8:
                continue
            rest = [x for x in ring.carrier if x != ring.zero]
            brute = []
            for r in range(len(rest) + 1):
                for combo in itertools.combinations(rest, r):
                    s = frozenset(combo) | {ring.zero}
                    if is_subhyperring(ring, s):
                        brute.append(s)
            brute.sort(key=lambda s: (len(s), tuple(sorted(s))))
            assert enumerate_subhyperrings(ring) == brute, ring.name

    def test_extracted_tables_validate(self, G):
        for members in enumerate_subhyperrings(G):
            table = subhyperring_table(G, members)
            if table is None:
                # {0,6} has no scalar identity of its own
                assert scalar_identity_in(G, members) is None
                continue
            assert validate_krasner(table).passed

    def test_04_has_identity_four(self, G):
        assert scalar_identity_in(G, subset(G, "0", "4")) == G.index("4")


class TestMultiplicativeSubsets:
    def test_identity_singleton(self, G):
        assert is_multiplicative_subset(G, {G.one})

    def test_one_and_four(self, G):
        assert is_multiplicative_subset(G, subset(G, "1", "4"))

    def test_two_alone_fails(self, G):
        assert not is_multiplicative_subset(G, subset(G, "2"))
