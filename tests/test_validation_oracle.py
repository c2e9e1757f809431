"""Row-wise axiom scans against the element-wise reference, and the
structural fronts against the full scan.

`validate_krasner_scan` runs the associativity, neutral-element,
reversibility and distributivity scans on flat tables, one row (or strided
line) of values at a time, and walks commutativity only where a slice test
finds a table asymmetric.  The six functions below are the element-wise
scans it replaced, kept verbatim as the reference: every tuple is
evaluated on its own.  The reports must be equal violation by violation,
in order, on the built-in corpus, on folds of G to other arities, and on
randomly corrupted tables.  On random commutative tables, the whole-table
decisions of associativity (a symmetric leftmost nest) and distributivity
must pass exactly the tables on which the reference reports nothing.

`validate_krasner` passes an (m,n)-fold of a valid (2,2)-reduct without a
scan, `direct_product` passes a product of passing factors and `quotient`
a quotient of a passing table; each must render exactly as the full scan
does, on valid tables, on tables that are not folds, on folds whose reduct
fails, on products with a failing factor and on a quotient of H.
"""
import itertools
import random

from hypothesis import given, settings, strategies as st

from hyperrings import core
from hyperrings.construct import direct_product, quotient
from hyperrings.core import HyperringTable, Violation, validate_krasner
from hyperrings.corpus import document_text
from hyperrings.documents import parse_document
from hyperrings.ideals import proper_hyperideals

from conftest import fold, load_gen, mutate
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


def _check_zero_neutral(ring, out):
    z = ring.zero
    for x in range(ring.size):
        for i in range(ring.m):
            t = (z,) * i + (x,) + (z,) * (ring.m - 1 - i)
            if ring.f[t] != frozenset({x}):
                out.append(Violation(
                    "zero-scalar-neutral", f"f({ring.tuple_label(t)})",
                    "{" + ring.label(x) + "}", ring.subset_label(ring.f[t])))


def _check_scalar_identity(ring, out):
    n = ring.n
    e = ring.one
    for x in range(ring.size):
        for i in range(n):
            t = (e,) * i + (x,) + (e,) * (n - 1 - i)
            if ring.g[t] != x:
                out.append(Violation(
                    "scalar-identity", f"g({ring.tuple_label(t)})",
                    ring.label(x), ring.label(ring.g[t])))


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
    _check_zero_neutral(ring, out)
    inverses_ok = core._check_inverses(ring, out)
    if entries_ok and inverses_ok:
        _check_reversibility(ring, out)
    core._check_commutative(ring, ring.g, ring.n, "g-commutativity",
                            ring.label, out)
    _check_g_associativity(ring, out)
    _check_distributivity(ring, out)
    core._check_zero_absorbing(ring, out)
    _check_scalar_identity(ring, out)
    return out


HYPERGROUP_AXIOMS = {"f-output-nonempty", "f-commutativity", "f-associativity",
                     "zero-scalar-neutral", "inverse-uniqueness", "reversibility"}


def assert_same_report(ring):
    report = core.validate_krasner_scan(ring)
    expected = reference_violations(ring)
    assert report.violations == expected, ring.name
    assert report.passed == (not expected)
    assert core.validate_canonical_hypergroup(ring).violations == [
        v for v in expected if v.axiom in HYPERGROUP_AXIOMS]
    assert validate_krasner(ring).render() == report.render(), ring.name


def assert_same_render(report, ring):
    assert report.render() == core.validate_krasner_scan(ring).render(), ring.name


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


# -- whole-table decisions ------------------------------------------------

def commutative_table(rng, arity, size, value):
    """A random table on which every ordering of a tuple takes the value
    drawn for its sorted form."""
    drawn = {t: value() for t in
             itertools.combinations_with_replacement(range(size), arity)}
    return {t: drawn[tuple(sorted(t))]
            for t in itertools.product(range(size), repeat=arity)}


def random_commutative_rings(seed, count):
    """Tables with random commutative f (set-valued, non-empty) and g of
    arities 2 or 3 on 2 to 4 elements; zero and identity are not drawn."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n, size = rng.choice((2, 3)), rng.choice((2, 3)), rng.randint(2, 4)
        density = rng.random()

        def subset():
            return (frozenset(x for x in range(size) if rng.random() < density)
                    or frozenset({rng.randrange(size)}))

        yield HyperringTable(
            "random", m, n, [str(x) for x in range(size)], 0, 0,
            commutative_table(rng, m, size, subset),
            commutative_table(rng, n, size, lambda: rng.randrange(size)))


def test_whole_table_decisions_match_the_reference():
    verdicts = {"f-associativity": set(), "g-associativity": set(),
                "distributivity": set()}
    for ring in random_commutative_rings(29, 200):
        F, G = core._f_masks(ring), core._g_values(ring)
        for axiom, T, arity, render, reference in (
                ("f-associativity", F, ring.m,
                 lambda mask: core._mask_label(ring, mask), _check_f_associativity),
                ("g-associativity", core._singletons(G), ring.n,
                 lambda mask: ring.label(mask.bit_length() - 1), _check_g_associativity)):
            assert core._symmetric(T, ring.size)
            expected, out = [], []
            reference(ring, expected)
            verdict = core._nest_symmetric(T, ring.size, arity)
            assert verdict == (not expected), (axiom, ring.f, ring.g)
            core._check_associativity(ring, T, arity, True, axiom, render, out)
            assert out == expected, (axiom, ring.f, ring.g)
            verdicts[axiom].add(verdict)
        expected, out = [], []
        _check_distributivity(ring, expected)
        core._check_distributivity(ring, F, G, out)
        assert out == expected, (ring.f, ring.g)
        verdicts["distributivity"].add(not out)
    assert all(seen == {True, False} for seen in verdicts.values())


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


# -- structural fronts ----------------------------------------------------

def test_krasner_corpus_folds_and_quotients():
    folds = [item for item in load_gen().krasner_corpus() if (item.m, item.n) != (2, 2)]
    assert len(folds) == 69
    for item in folds:
        ring = parse_document(item.text, validate=False)
        assert core._is_fold_of_valid_reduct(ring), ring.name   # the fast path
        report = validate_krasner(ring)
        assert report.passed, ring.name
        assert_same_render(report, ring)
        for p in proper_hyperideals(ring):
            table, _ = quotient(ring, p)
            assert_same_render(table.validation, table)


def test_fold_with_entries_off_the_reduct_changed(G33):
    # the reduct reads f(x,y,0) and g(x,y,1) only, so these corruptions
    # leave it valid; the table is then not its fold and must fail
    f_off = mutate(G33, "G33-f", f_overrides={(2, 2, 2): {0}})
    g_off = mutate(G33, "G33-g", g_overrides={(2, 2, 2): 0})
    for ring in (f_off, g_off):
        assert_same_report(ring)
        assert not validate_krasner(ring).passed


@settings(CORRUPTION_SETTINGS, max_examples=8)
@given(data=st.data())
def test_corrupted_folds_23_32(folds, data):
    assert_same_report(data.draw(corruptions(data.draw(st.sampled_from(folds[1:])))))


@CORRUPTION_SETTINGS
@given(data=st.data())
def test_folds_of_corrupted_g(G, data):
    m, n = data.draw(st.sampled_from([(3, 3), (2, 3), (3, 2)]))
    ring = fold(data.draw(corruptions(G)), m, n)
    assert_same_render(validate_krasner(ring), ring)


def test_products_with_h(H, ONE):
    one33 = fold(ONE, 3, 3)
    assert one33.validation.passed
    for r1, r2 in ((H, one33), (one33, H), (H, H)):
        product = direct_product(r1, r2)
        assert not product.validation.passed
        assert_same_render(product.validation, product)


def test_product_of_unread_folds_is_certified(G, monkeypatch):
    # neither fold has been validated yet; reading each one's report scans
    # only its 6-element reduct, and the 36-element product is never scanned
    scan = core.validate_krasner_scan

    def small_scans_only(ring):
        assert ring.size <= G.size, f"{ring.name} was scanned"
        return scan(ring)

    monkeypatch.setattr(core, "validate_krasner_scan", small_scans_only)
    r1, r2 = fold(G, 3, 3), fold(G, 3, 3)
    product = direct_product(r1, r2)
    assert product.validation.passed
    assert r1.validation.passed and r2.validation.passed


def test_quotients_of_a_passing_table_are_certified(monkeypatch):
    # no quotient of G is scanned; H fails, so its quotient by {0} gets its
    # report on first read; every report must render as the scan does
    scan = core.validate_krasner_scan

    def no_quotient_scans(ring):
        assert "/" not in ring.name, f"{ring.name} was scanned"
        return scan(ring)

    monkeypatch.setattr(core, "validate_krasner_scan", no_quotient_scans)
    g = parse_document(document_text("g.json"))
    tables = [quotient(g, p)[0] for p in proper_hyperideals(g)]
    assert len(tables) == 5 and all(t.validation.passed for t in tables)
    monkeypatch.undo()
    h = parse_document(document_text("h.json"), validate=False)
    tables.append(quotient(h, frozenset({h.zero}))[0])
    assert not tables[-1].validation.passed
    for table in tables:
        assert_same_render(table.validation, table)


@CORRUPTION_SETTINGS
@given(data=st.data())
def test_products_with_a_corrupted_factor(G, G_mod_0246, data):
    bad = data.draw(corruptions(G))
    # a fresh partner, so that products do not pile up in a fixture's memo
    other = mutate(G_mod_0246, "G/{0,2,4,6}")
    for r1, r2 in ((bad, other), (other, bad)):
        product = direct_product(r1, r2)
        assert_same_render(product.validation, product)
