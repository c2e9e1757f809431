"""Row-wise axiom scans against the element-wise reference.

`validate_krasner` runs the associativity, reversibility and
distributivity scans on flat tables, one row (or strided line) of values
at a time.  The four functions below are the element-wise scans it
replaced, kept verbatim as the reference: every tuple is evaluated on its
own.  The reports must be
equal violation by violation, in order, on the built-in corpus, on folds
of G to other arities, and on randomly corrupted tables.
"""
import itertools

from hypothesis import given, settings, strategies as st

from hyperrings import core
from hyperrings.core import HyperringTable, Violation, validate_krasner

from strategies import corruptions


# -- reference scans ------------------------------------------------------

def _check_f_associativity(ring, out):
    # compare every nesting position against the leftmost one, over all
    # (2m-1)-tuples; O(|R|^(2m-1)) per position pair, fine at desk scale
    m = ring.m
    f = ring.f
    rng = range(ring.size)

    def nested(args, cut):
        inner = f[args[cut:cut + m]]
        outer = set()
        for t in inner:
            outer |= f[args[:cut] + (t,) + args[cut + m:]]
        return frozenset(outer)

    for args in itertools.product(rng, repeat=2 * m - 1):
        base = nested(args, 0)
        for cut in range(1, m):
            other = nested(args, cut)
            if other != base:
                out.append(Violation(
                    "f-associativity",
                    f"args=({ring.tuple_label(args)}) nest 0 vs nest {cut}",
                    ring.subset_label(base), ring.subset_label(other)))


def _check_g_associativity(ring, out):
    n = ring.n
    g = ring.g
    for args in itertools.product(range(ring.size), repeat=2 * n - 1):
        base = g[(g[args[:n]],) + args[n:]]
        for cut in range(1, n):
            other = g[args[:cut] + (g[args[cut:cut + n]],) + args[cut + n:]]
            if other != base:
                out.append(Violation(
                    "g-associativity",
                    f"args=({ring.tuple_label(args)}) nest 0 vs nest {cut}",
                    ring.label(base), ring.label(other)))


def _check_distributivity(ring, out):
    m, n = ring.m, ring.n
    f, g = ring.f, ring.g
    rng = range(ring.size)
    for i in range(n):
        for amb in itertools.product(rng, repeat=n - 1):
            for xs in itertools.product(rng, repeat=m):
                left = frozenset(g[amb[:i] + (t,) + amb[i:]] for t in f[xs])
                right = f[tuple(g[amb[:i] + (x,) + amb[i:]] for x in xs)]
                if left != right:
                    out.append(Violation(
                        "distributivity",
                        f"g(pos {i + 1}; ambient={ring.tuple_label(amb)}; "
                        f"f({ring.tuple_label(xs)}))",
                        ring.subset_label(right), ring.subset_label(left)))


def _check_reversibility(ring, out):
    m = ring.m
    f = ring.f
    inv = [min(ring.inverses(x)) for x in range(ring.size)]
    for args in itertools.product(range(ring.size), repeat=m):
        for x in f[args]:
            for i in range(m):
                rest = tuple(inv[args[j]] for j in range(m) if j != i)
                if args[i] not in f[(x,) + rest]:
                    out.append(Violation(
                        "reversibility",
                        f"{ring.label(x)} in f({ring.tuple_label(args)}), i={i + 1}",
                        f"{ring.label(args[i])} in f({ring.tuple_label((x,) + rest)})",
                        ring.subset_label(f[(x,) + rest])))


def reference_violations(ring):
    """validate_krasner's axiom order, with the reference scans."""
    out = []
    entries_ok = core._check_f_entries(ring, out)
    core._check_commutative(ring, ring.f, ring.m, "f-commutativity",
                            ring.subset_label, out)
    if entries_ok:
        _check_f_associativity(ring, out)
    core._check_zero_neutral(ring, out)
    inverses_ok = core._check_inverses(ring, out)
    if entries_ok and inverses_ok:
        _check_reversibility(ring, out)
    core._check_commutative(ring, ring.g, ring.n, "g-commutativity",
                            ring.label, out)
    _check_g_associativity(ring, out)
    _check_distributivity(ring, out)
    core._check_zero_absorbing(ring, out)
    core._check_scalar_identity(ring, out)
    return out


HYPERGROUP_AXIOMS = {"f-output-nonempty", "f-commutativity", "f-associativity",
                     "zero-scalar-neutral", "inverse-uniqueness", "reversibility"}


def assert_same_report(ring):
    report = validate_krasner(ring)
    expected = reference_violations(ring)
    assert report.violations == expected, ring.name
    assert report.passed == (not expected)
    assert core.validate_canonical_hypergroup(ring).violations == [
        v for v in expected if v.axiom in HYPERGROUP_AXIOMS]


# -- fixed structures -----------------------------------------------------

def test_builtin_corpus(corpus):
    assert any(not validate_krasner(ring).passed for ring in corpus)   # H
    for ring in corpus:
        assert_same_report(ring)


def test_folds_of_g(folds):
    for ring in folds:
        assert_same_report(ring)
        assert validate_krasner(ring).passed


def test_reversibility_alone():
    # f is commutative and associative with scalar zero and unique
    # inverses (a and b), but a in f(b,b) while b is not in f(a,a).  No
    # (2,2)-table of up to four elements breaks reversibility and no other
    # Krasner axiom, so distributivity fails here too.
    sums = {(1, 1): {1}, (1, 2): {0, 1, 2}, (2, 2): {1, 2}}
    f = {}
    for x in range(3):
        f[(0, x)] = f[(x, 0)] = {x}
    for (x, y), value in sums.items():
        f[(x, y)] = f[(y, x)] = value
    g = {(x, y): 0 if 0 in (x, y) else y if x == 1 else x if y == 1 else 1
         for x in range(3) for y in range(3)}
    ring = HyperringTable("irreversible", 2, 2, ["0", "a", "b"], 0, 1, f, g)
    hypergroup = core.validate_canonical_hypergroup(ring).violations
    assert {v.axiom for v in hypergroup} == {"reversibility"}
    assert [v.witness for v in hypergroup] == ["a in f(b,b), i=1",
                                               "a in f(b,b), i=2"]
    assert_same_report(ring)


# -- random corruptions ---------------------------------------------------

CORRUPTION_SETTINGS = settings(max_examples=25, deadline=None,
                               derandomize=True, database=None)


@CORRUPTION_SETTINGS
@given(data=st.data())
def test_corrupted_g(G, data):
    assert_same_report(data.draw(corruptions(G)))


@CORRUPTION_SETTINGS
@given(data=st.data())
def test_corrupted_h(H, data):
    assert_same_report(data.draw(corruptions(H)))


@CORRUPTION_SETTINGS
@given(data=st.data())
def test_corrupted_g_mod_06(G_mod_06, data):
    assert_same_report(data.draw(corruptions(G_mod_06)))


@settings(CORRUPTION_SETTINGS, max_examples=8)
@given(data=st.data())
def test_corrupted_fold_33(G33, data):
    assert_same_report(data.draw(corruptions(G33)))
