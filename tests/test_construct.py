import itertools
import re

import pytest

from hyperrings.classify import classify
from hyperrings.construct import (Homomorphism, KernelNotContainedError,
                                  NotSurjectiveError, direct_product,
                                  image_ideal, is_homomorphism,
                                  is_subhyperring, preimage_ideal, quotient,
                                  scalar_identity_in, subhyperring_table)
from hyperrings.core import ArityError, HyperringTable, validate_krasner
from hyperrings.ideals import (ideal_from_labels, make_hyperideal,
                               proper_hyperideals)

from conftest import enumerate_subhyperrings, fold, mutate


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

    def test_colliding_class_labels_are_named(self, local16):
        # class labels join member labels with "+"; labelled "x+y" for
        # x+y, the classes {x,y+z} and {x+y,z} of (x,y,z)/(x+y+z) would
        # both read x+y+z
        labels = ["+".join(c for b, c in enumerate("1xyz") if i >> b & 1) or "0"
                  for i in range(16)]
        ring = HyperringTable("local", 2, 2, labels, 0, 1, local16.f, local16.g)
        ideal = make_hyperideal(ring, subset(ring, "0", "x+y+z"))
        with pytest.raises(ValueError, match=re.escape(
                "classes {x,y+z} and {x+y,z} of local/{0,x+y+z} both get the "
                "label 'x+y+z'")):
            quotient(ring, ideal)
        # labels that do not collide are kept as they are
        table, _ = quotient(ring, make_hyperideal(ring, subset(ring, "0", "x")))
        assert table.labels[:3] == ("0+x", "1+1+x", "y+x+y")

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

    def test_map_properties_are_read_once(self, corpus, G, GxG):
        """surjective and kernel agree with a fresh computation, and are
        computed on first read, once per map: quotient builds its
        projection without them."""
        fresh = mutate(G, "G'")
        maps = [quotient(fresh, q)[1] for q in proper_hyperideals(fresh)]
        assert not any({"surjective", "kernel"} & set(vars(h)) for h in maps)
        maps += [quotient(ring, q)[1] for ring in corpus
                 for q in proper_hyperideals(ring)]
        maps.append(Homomorphism(G, GxG, tuple(x * G.size for x in G.carrier)))
        for h in maps:
            image = set(h.mapping)
            zero = h.target.zero
            assert h.surjective == (len(image) == h.target.size)
            assert h.kernel == {x for x in h.source.carrier if h(x) == zero}
            assert h.kernel is h.kernel
            assert {"surjective", "kernel"} <= set(vars(h))
        assert not maps[-1].surjective and maps[0].surjective

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


class TestBuiltTables:
    """Products, quotients, subhyperring tables and the reducts of folds
    are built without the totality check; each must be a table that the
    checking constructor accepts, and builds the same, from the same
    arguments."""

    def test_built_tables_are_total(self, G, H, GxG, G_mod_0246, ONE, monkeypatch):
        built = []
        make = HyperringTable._built.__func__

        def recording(cls, *args, **kwargs):
            ring = make(cls, *args, **kwargs)
            built.append((args, kwargs, ring))
            return ring

        monkeypatch.setattr(HyperringTable, "_built", classmethod(recording))
        # fresh copies, so that no memo answers for a construction
        g, g33, one33 = mutate(G, "G"), fold(G, 3, 3), fold(ONE, 3, 3)
        h = mutate(H, "H")
        for r1, r2 in ((g, g), (g, mutate(G_mod_0246, "G/{0,2,4,6}")),
                       (g33, g33), (h, one33), (one33, h), (h, h)):
            direct_product(r1, r2)
        for ring in (g, g33, mutate(GxG, "GxG")):
            for p in proper_hyperideals(ring):
                quotient(ring, p)
        quotient(h, frozenset({h.zero}))
        for members in enumerate_subhyperrings(GxG):
            subhyperring_table(GxG, members)
        for m, n in ((3, 3), (2, 3), (3, 2)):
            validate_krasner(fold(G, m, n))
        monkeypatch.undo()

        kinds = set()
        for args, kwargs, ring in built:
            ring._check_total()
            assert all(type(value) is frozenset for value in ring.f.values())
            assert len(set(ring.labels)) == len(ring.labels) == ring.size
            checked = HyperringTable(*args, **kwargs)
            assert checked.f == ring.f and checked.g == ring.g, ring.name
            assert ((checked.name, checked.m, checked.n, checked.labels,
                     checked.zero, checked.one)
                    == (ring.name, ring.m, ring.n, ring.labels, ring.zero, ring.one))
            kinds.add(next((c for c in "|/x" if c in ring.name), "reduct"))
        assert kinds == {"x", "/", "|", "reduct"}
        names = [ring.name for _, _, ring in built]
        assert {"HxH", "H/{0}", "G^(2,3)"} <= set(names)
        assert sum("|" in name for name in names) > 1
