"""Independent reconstruction of the reference structures.

The shipped G document is re-derived here from first principles: the
carrier is the set of orbits of the integers mod 12 under multiplication
by the units {1,5,7,11}, the hyperaddition of two orbits is the set of
orbits meeting their elementwise sum, and the multiplication is the orbit
of the representative product.  The document must match exactly.
"""
import itertools

from hyperrings.core import validate_krasner
from hyperrings.construct import direct_product, quotient
from hyperrings.ideals import make_hyperideal

from conftest import enumerate_subhyperrings

MOD = 12
UNITS = (1, 5, 7, 11)


def orbits():
    seen = {}
    order = []
    for r in range(MOD):
        orbit = frozenset((r * u) % MOD for u in UNITS)
        if orbit not in seen:
            seen[orbit] = min(orbit)
            order.append(orbit)
    order.sort(key=min)
    return order


def test_g_matches_unit_orbit_quotient(G):
    orbs = orbits()
    assert [str(min(o)) for o in orbs] == list(G.labels)
    index_of = {o: i for i, o in enumerate(orbs)}

    def orbit_of(x):
        for o in orbs:
            if x % MOD in o:
                return o
        raise AssertionError

    for i, a in enumerate(orbs):
        for j, b in enumerate(orbs):
            summed = frozenset(index_of[orbit_of(x + y)] for x in a for y in b)
            assert G.f[(i, j)] == summed, (G.labels[i], G.labels[j])
            assert G.g[(i, j)] == index_of[orbit_of(min(a) * min(b))]


def test_h_g_table_is_min_zero_max_semigroup(H):
    # multiplication collapses to: zero absorbs, otherwise the maximum
    for t in itertools.product(range(3), repeat=3):
        want = 0 if 0 in t else max(t)
        assert H.g[t] == want


def test_h_f_table_shape(H):
    # addition: mixing 1 and 2 blows up to the whole carrier, otherwise the
    # maximum entry is the single value
    for t in itertools.product(range(3), repeat=3):
        if 1 in t and 2 in t:
            assert H.f[t] == H.full_set
        else:
            assert H.f[t] == frozenset({max(t)})


def test_quotient_of_quotient_collapses(G):
    # iterated quotients reach the two-class structure
    q06, _ = quotient(G, make_hyperideal(G, {G.index("0"), G.index("6")}))
    inner = make_hyperideal(
        q06, {q06.index("0+6"), q06.index("2+4")})
    q2, _ = quotient(q06, inner)
    assert q2.size == 2
    assert validate_krasner(q2).passed


def test_product_subring_closure(G, GxG):
    from hyperrings.construct import is_subhyperring
    subs_g = enumerate_subhyperrings(G)
    subs_gxg = set(enumerate_subhyperrings(GxG))
    for s1 in subs_g:
        for s2 in subs_g:
            members = frozenset(a * G.size + b for a in s1 for b in s2)
            assert is_subhyperring(GxG, members)
            assert members in subs_gxg
