"""Quotient lattices against the closure search.

A quotient R/Q of a passing table records its parent R, Q and the
projection p, and derives its hyperideal lattice from the parent's: the
p[I] over the hyperideals I ⊇ Q, in canonical order (FINDINGS.md (vi)).
The derived lattice must equal the closure search, in order, on every
quotient by a proper hyperideal of the built-in structures, of the folds
of G, of the krasner-corpus tables, which `perfbench/gen.py` generates
and this module only reads, and of G/{0,6}, itself a quotient.  On small passing tables,
a quotient by a subset must return exactly when the subset is a
hyperideal, as the lemma of (vi) says.  A quotient of a failing table (H) records nothing and takes the
closure search.

On a passing table and a hyperideal, `quotient` reads each induced f and
g entry off the class minima (FINDINGS.md (viii)).  `scanned_quotient`
keeps the scan over every representative tuple that every quotient made
before: the tables must agree with it on every quotient checked here, and
a subset that is not a hyperideal must raise with its message.
"""
import itertools

import pytest

from hyperrings import ideals
from hyperrings.construct import (IllDefinedQuotientError, direct_product,
                                  quotient)
from hyperrings.core import f_extend
from hyperrings.corpus import document_text
from hyperrings.documents import parse_document
from hyperrings.ideals import (closed_sets, enumerate_hyperideals,
                               ideal_closure, proper_hyperideals)

from conftest import load_gen, mutate


def closure_lattice(ring):
    return closed_sets(ring, ideal_closure)


def scanned_quotient(ring, q_members):
    """The labels and induced f and g of ring/Q, with every representative
    tuple scanned: the quotient construction before the certified fill."""
    if len(q_members) >= ring.size:
        raise ValueError("quotient needs a proper hyperideal")
    m, n = ring.m, ring.n
    zero_pad = [frozenset({ring.zero})] * (m - 2)
    cls_of = {}
    classes = []
    for r in ring.carrier:
        c = f_extend(ring, [frozenset({r}), q_members] + zero_pad)
        cls_of[r] = c
        if c not in classes:
            classes.append(c)
    covered = set()
    for c in classes:
        if covered & c:
            raise IllDefinedQuotientError(
                f"classes of {ring.name}/{ring.subset_label(q_members)} "
                f"overlap at {ring.subset_label(covered & c)}")
        covered |= c
    for r in ring.carrier:
        if r not in cls_of[r]:
            raise IllDefinedQuotientError(
                f"element {ring.label(r)} not in its own class")

    classes.sort(key=min)
    cls_index = {c: i for i, c in enumerate(classes)}
    proj = tuple(cls_index[cls_of[r]] for r in ring.carrier)
    labels = ["+".join(ring.labels[i] for i in sorted(c)) for c in classes]

    image = {v: frozenset(proj[t] for t in v) for v in set(ring.f.values())}
    induced = {}
    for name, table, arity, project in (("f", ring.f, m, image), ("g", ring.g, n, proj)):
        induced[name] = {}
        for key in itertools.product(range(len(classes)), repeat=arity):
            value = None
            for reps in itertools.product(*[sorted(classes[i]) for i in key]):
                got = project[table[reps]]
                if value is None:
                    value = got
                elif got != value:
                    raise IllDefinedQuotientError(
                        f"induced {name} ill-defined at classes ({','.join(labels[i] for i in key)}): "
                        f"representatives ({ring.tuple_label(reps)}) give a different value")
            induced[name][key] = value
    return tuple(labels), induced["f"], induced["g"]


def assert_scanned(table, ring, q_members):
    """The quotient table is the one the representative scan builds."""
    assert (table.labels, table.f, table.g) == \
        scanned_quotient(ring, q_members), table.name


def lattice(ring):
    return [p.members for p in enumerate_hyperideals(ring)]


def assert_derived_quotients(ring):
    """Every quotient of a passing ring by a proper hyperideal records
    its parent, and its derived lattice is the closure search's list.
    Returns how many quotients were checked."""
    assert ring.validation.passed, ring.name
    count = 0
    for p in proper_hyperideals(ring):
        table, h = quotient(ring, p)
        parent, q, proj = table.memo["parent"]
        assert (parent, q, proj) == (ring, p.members, h.mapping), table.name
        assert lattice(table) == closure_lattice(table), table.name
        assert_scanned(table, ring, p.members)
        count += 1
    return count


@pytest.fixture
def searches(monkeypatch):
    """The rings whose lattice the closure search computes from here on."""
    seen = []

    def counted(ring, closure):
        seen.append(ring)
        return closed_sets(ring, closure)

    monkeypatch.setattr(ideals, "closed_sets", counted)
    return seen


def test_quotients_of_built_in_structures(corpus, GxG):
    passing = [ring for ring in corpus if ring.validation.passed]
    counts = {ring.name: assert_derived_quotients(ring) for ring in passing}
    assert counts[GxG.name] == len(lattice(GxG)) - 1 == 35


def test_quotients_of_folds(folds):
    for ring in folds:
        assert assert_derived_quotients(ring), ring.name


def test_quotients_of_krasner_corpus():
    items = load_gen().krasner_corpus()
    assert len(items) == 130
    total = sum(assert_derived_quotients(parse_document(item.text))
                for item in items)
    assert total > len(items)


def small_krasner_tables():
    return [parse_document(item.text) for item in load_gen().krasner_corpus()
            if item.size <= 6]


def test_only_a_hyperideal_gives_a_quotient(corpus, folds, G_mod_0246):
    """The lemma of (vi), on data: on a passing table, a quotient by a
    subset that is not a hyperideal raises, so every recorded Q is one.
    A subset raises with the representative scan's message, and a
    hyperideal gives the scan's table.  In F2 x F2 the diagonal has
    cosets that partition, but g is ill-defined on them: only the
    hyperideal check keeps it off the one-representative fill."""
    square = direct_product(G_mod_0246, G_mod_0246)
    rings = [ring for ring in corpus + folds + small_krasner_tables() + [square]
             if ring.validation.passed and ring.size <= 6]
    ill_defined_g = []
    for ring in rings:
        hyperideals = set(lattice(ring))
        for size in range(1, ring.size):
            for subset in map(frozenset, itertools.combinations(ring.carrier, size)):
                try:
                    table, _ = quotient(ring, subset)
                except IllDefinedQuotientError as error:
                    assert subset not in hyperideals, ring.name
                    with pytest.raises(IllDefinedQuotientError) as scanned:
                        scanned_quotient(ring, subset)
                    assert str(error) == str(scanned.value), ring.name
                    if "induced g ill-defined" in str(error):
                        ill_defined_g.append(ring.subset_label(subset))
                else:
                    assert subset in hyperideals, ring.name
                    assert table.memo["parent"][1] == subset
                    assert_scanned(table, ring, subset)
    assert square.subset_label(
        {0, square.size - 1}) in ill_defined_g, "the diagonal of F2 x F2"


def test_quotients_of_a_quotient(G):
    inner, _ = quotient(G, {G.index("0"), G.index("6")})
    assert inner.memo["parent"][0] is G
    assert assert_derived_quotients(inner) == len(lattice(inner)) - 1 == 3


def test_a_derived_lattice_runs_no_search(searches):
    G = parse_document(document_text("g.json"))
    enumerate_hyperideals(G)
    del searches[:]
    table, _ = quotient(G, {G.index("0"), G.index("6")})
    assert ("hyperideals",) not in table.memo
    lattice(table)
    assert searches == []


def test_a_quotient_of_a_failing_table_takes_the_closure_search(searches):
    H = parse_document(document_text("h.json"), validate=False)
    assert not H.validation.passed
    table, _ = quotient(H, {H.zero})
    assert table.name == "H/{0}"
    assert "parent" not in table.memo
    assert lattice(table) == closure_lattice(table)
    assert searches == [table]
    assert_scanned(table, H, frozenset({H.zero}))


def test_a_failing_table_keeps_the_scan(G):
    """The certificate needs a passing table: G with one g entry changed
    fails, and its quotient by a set that is still closed raises from the
    scan."""
    two, six = G.index("2"), G.index("6")
    broken = mutate(G, "G'", g_overrides={(two, two): G.index("3")})
    assert not broken.validation.passed
    q = frozenset({G.zero, six})
    assert ideal_closure(broken, q) == q
    with pytest.raises(IllDefinedQuotientError) as scanned:
        scanned_quotient(broken, q)
    with pytest.raises(IllDefinedQuotientError, match="induced g ill-defined") as error:
        quotient(broken, q)
    assert str(error.value) == str(scanned.value)
