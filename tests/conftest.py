import itertools

import pytest

from hyperrings.core import HyperringTable
from hyperrings.corpus import builtin_corpus


@pytest.fixture(scope="session")
def corpus():
    return builtin_corpus()


@pytest.fixture(scope="session")
def G(corpus):
    return corpus[0]


@pytest.fixture(scope="session")
def H(corpus):
    return corpus[1]


@pytest.fixture(scope="session")
def GxG(corpus):
    return corpus[2]


@pytest.fixture(scope="session")
def G_mod_06(corpus):
    return corpus[3]


@pytest.fixture(scope="session")
def G_mod_0246(corpus):
    return corpus[4]


@pytest.fixture(scope="session")
def ONE(corpus):
    return corpus[5]


def fold(ring, m, n):
    """Derived (m,n)-structure of a (2,2) table: f and g are the left folds
    of the binary f and g (Mirvakili and Davvaz, Relations on Krasner
    (m,n)-hyperrings, Eur. J. Combin. 2010)."""
    rng = range(ring.size)
    f, g = {}, {}
    for t in itertools.product(rng, repeat=m):
        acc = {t[0]}
        for x in t[1:]:
            acc = set().union(*(ring.f[(a, x)] for a in acc))
        f[t] = acc
    for t in itertools.product(rng, repeat=n):
        acc = t[0]
        for x in t[1:]:
            acc = ring.g[(acc, x)]
        g[t] = acc
    return HyperringTable(f"{ring.name}^({m},{n})", m, n, ring.labels,
                          ring.zero, ring.one, f, g)


@pytest.fixture(scope="session")
def G33(G):
    return fold(G, 3, 3)


@pytest.fixture(scope="session")
def folds(G, G33):
    """The (3,3), (2,3) and (3,2) folds of G; all three are valid."""
    return [G33, fold(G, 2, 3), fold(G, 3, 2)]


def mutate(ring, name, f_overrides=None, g_overrides=None):
    """Copy of a table with some entries replaced."""
    f = dict(ring.f)
    g = dict(ring.g)
    for key, value in (f_overrides or {}).items():
        f[key] = frozenset(value)
    for key, value in (g_overrides or {}).items():
        g[key] = value
    return HyperringTable(name, ring.m, ring.n, ring.labels, ring.zero,
                          ring.one, f, g, ring.commutative_f,
                          ring.commutative_g)
