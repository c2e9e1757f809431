import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

from hyperrings.construct import _subring_closure
from hyperrings.core import HyperringTable
from hyperrings.corpus import builtin_corpus
from hyperrings.ideals import _canonical_order, closed_sets, is_hyperideal


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
def T(G):
    """G with g(2,0) = 3: g is not commutative, so T fails validation."""
    return mutate(G, "T", g_overrides={(G.index("2"), G.zero): G.index("3")})


@pytest.fixture(scope="session")
def G33(G):
    return fold(G, 3, 3)


@pytest.fixture(scope="session")
def folds(G, G33):
    """The (3,3), (2,3) and (3,2) folds of G; all three are valid."""
    return [G33, fold(G, 2, 3), fold(G, 3, 2)]


@pytest.fixture(scope="session")
def local16():
    """The local ring F2[x,y,z]/(x,y,z)^2 as a Krasner (2,2)-hyperring with
    singleton f.  Element i is the sum of the monomials 1, x, y, z whose
    bits are set in i, labelled by concatenating them ("1xy" is 1+x+y).
    Its maximal ideal (x,y,z) joins three principal ideals, so the lattice
    search needs a second round of joins to find it."""
    labels = ["".join(c for b, c in enumerate("1xyz") if i >> b & 1) or "0"
              for i in range(16)]

    def mul(a, b):
        # (a0 + u)(b0 + v) = a0 b0 + a0 v + b0 u, since u v lies in (x,y,z)^2
        return (a & b & 1) ^ (b & 14 if a & 1 else 0) ^ (a & 14 if b & 1 else 0)

    pairs = list(itertools.product(range(16), repeat=2))
    return HyperringTable("F2[x,y,z]/(x,y,z)^2", 2, 2, labels, 0, 1,
                          {(a, b): {a ^ b} for a, b in pairs},
                          {(a, b): mul(a, b) for a, b in pairs})


def two_element_field(name, labels):
    """Z_2 as a Krasner (2,2)-hyperring with singleton f, labelled zero
    first."""
    pairs = list(itertools.product(range(2), repeat=2))
    return HyperringTable(name, 2, 2, labels, 0, 1,
                          {(a, b): {a ^ b} for a, b in pairs},
                          {(a, b): a & b for a, b in pairs})


def mutate(ring, name, f_overrides=None, g_overrides=None):
    """Copy of a table with some entries replaced."""
    f = dict(ring.f)
    g = dict(ring.g)
    for key, value in (f_overrides or {}).items():
        f[key] = frozenset(value)
    for key, value in (g_overrides or {}).items():
        g[key] = value
    return HyperringTable(name, ring.m, ring.n, ring.labels, ring.zero,
                          ring.one, f, g)


def memo_entries(ring):
    """Every entry that `core.memoised` keeps in the ring's memo, as a dict
    from its (tag, args) pair to its value, tag by tag in the order the
    tags were first stored.  A certified product's "factors" and a
    certified quotient's "parent" are not entries."""
    return {(tag, args): value for tag, entries in ring.memo.items()
            if tag not in ("factors", "parent")
            for args, value in entries.items()}


def brute_force_hyperideals(ring):
    """Oracle: filter all subsets containing zero through is_hyperideal."""
    rest = [x for x in ring.carrier if x != ring.zero]
    out = []
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            s = frozenset(combo) | {ring.zero}
            if is_hyperideal(ring, s):
                out.append(s)
    return _canonical_order(out)


def enumerate_subhyperrings(ring):
    """All subhyperrings, the closed sets of the subhyperring closure with
    no size bound: the reference that Thm 4.13's bounded pool is checked
    against."""
    return closed_sets(ring, _subring_closure)


def load_gen():
    """perfbench/gen.py, the benchmark's generator, loaded read-only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)   # its dataclasses look themselves up there
    return module
