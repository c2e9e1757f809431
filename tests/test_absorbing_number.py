"""The absorbing number of a radical (FINDINGS.md (ix)): on a passing
table, a radical hyperideal with t minimal primes over it is
(k,n)-absorbing exactly when t <= (k-1)(n-1)+1.  `classify` decides the
absorbing predicates of radicals by that count; the scans it no longer
runs there are the oracles, witnesses included."""
import importlib

import pytest

from hyperrings.classify import (InternalInconsistencyError,
                                 is_kn_absorbing, is_kn_absorbing_primary)
from hyperrings.corpus import document_text
from hyperrings.documents import parse_document
from hyperrings.ideals import (prime_hyperideals, proper_hyperideals,
                               radical_by_primes)

from conftest import fold, load_gen, memo_entries

classify_module = importlib.import_module("hyperrings.classify")


def fresh_g():
    return parse_document(document_text("g.json"))


def minimal_primes_over(ring, members):
    above = [p.members for p in prime_hyperideals(ring)
             if members <= p.members]
    return [p for p in above if not any(q < p for q in above)]


def check_table(ring):
    """Compare the evaluators with the scans on every proper hyperideal at
    k = 1, 2, 3, and on the radicals also the count with the scans' verdict;
    return the t of each proper radical and the count's verdicts."""
    assert ring.validation.passed, ring.name
    evaluate = classify_module._EVALUATORS
    scan = classify_module._absorbing_scan
    counts, verdicts = [], set()
    for p in proper_hyperideals(ring):
        members = p.members
        radical = radical_by_primes(ring, members) == members
        if radical:
            t = len(minimal_primes_over(ring, members))
            counts.append(t)
        for k in (1, 2, 3):
            where = (ring.name, ring.subset_label(members), k)
            sorted_scan = scan(ring, members, members, members, k, False)
            got = evaluate["absorbing"](ring, members, k)
            assert got == sorted_scan, where
            if not radical:
                continue
            verdicts.add(sorted_scan[0])
            assert sorted_scan[0] == (t <= (k - 1) * (ring.n - 1) + 1), where
            got = evaluate["absorbing_primary"](ring, members, k)
            assert got == sorted_scan, where
            # the ordered scan of a (2,4) fold at k = 3 walks 10-tuples and
            # takes minutes; the sorted one there takes a tenth of a second
            if ring.n < 4 or k < 3:
                assert scan(ring, members, members, members, k, True) == (
                    sorted_scan), where
    return counts, verdicts


def z30_folds():
    gen = load_gen()
    q = gen.Quotient(30, frozenset(gen.units(30)))
    return [parse_document(gen.quotient_item(q, m, n).text)
            for m, n in ((2, 2), (2, 3), (3, 3), (2, 4))]


@pytest.mark.parametrize("group, t_max", [
    ("builtin", 4), ("folds_of_g", 2), ("local16", 1), ("krasner", 2),
    ("z30", 3)])
def test_count_matches_the_scans(request, group, t_max):
    if group == "builtin":
        tables = [r for r in request.getfixturevalue("corpus")
                  if r.validation.passed]
    elif group == "folds_of_g":
        G = request.getfixturevalue("G")
        tables = [fold(G, m, n) for m, n in ((2, 3), (3, 3), (3, 2), (2, 4))]
    elif group == "local16":
        tables = [request.getfixturevalue("local16")]
    elif group == "krasner":
        tables = [parse_document(item.text)
                  for item in load_gen().krasner_corpus()]
    else:
        tables = z30_folds()
    counts, verdicts = [], set()
    for ring in tables:
        more, seen = check_table(ring)
        counts += more
        verdicts |= seen
    # GxG's zero radical has four minimal primes, Z_30's three, and there
    # at n >= 3 the n = 2 bound t <= k is wrong; local16's one radical is
    # prime, so (k,n)-absorbing at every k
    assert max(counts) == t_max
    assert verdicts == ({True} if t_max == 1 else {True, False})


def g_radicals(G):
    """G's proper radicals, each with its number of minimal primes."""
    return [(p, len(minimal_primes_over(G, p.members)))
            for p in proper_hyperideals(G)
            if radical_by_primes(G, p) == p.members]


def test_a_true_count_runs_no_scan(monkeypatch):
    calls = []
    original = classify_module._absorbing_scan

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(classify_module, "_absorbing_scan", counted)
    G = fresh_g()
    true_counts = 0
    for p, t in g_radicals(G):
        for k in (1, 2, 3):
            if t <= k:    # (k-1)(n-1)+1 = k at n = 2
                assert is_kn_absorbing(p, k) and is_kn_absorbing_primary(p, k)
                true_counts += 1
    assert true_counts == 8 and calls == []
    # a False count scans once, for the witness, and the ordered
    # absorbing primary reads that outcome
    p, = [p for p, t in g_radicals(G) if t == 2]
    assert not is_kn_absorbing(p, 1) and not is_kn_absorbing_primary(p, 1)
    assert len(calls) == 1


def test_a_false_count_without_a_witness_raises(monkeypatch):
    monkeypatch.setattr(classify_module, "_absorbing_scan",
                        lambda *args: (True, None))
    G = fresh_g()
    p, = [p for p, t in g_radicals(G) if t == 2]
    for predicate in (is_kn_absorbing, is_kn_absorbing_primary):
        with pytest.raises(InternalInconsistencyError,
                           match=r"^\{0,6\} has 2 minimal primes but the "
                                 r"\(1,2\)-absorbing scan finds no witness$"):
            predicate(p, 1)
        assert not any(tag == "outcome" and args[1] in (
            "absorbing", "absorbing_primary") for tag, args in memo_entries(G))
    # a True count never reaches the patched scan
    assert is_kn_absorbing(p, 2)
