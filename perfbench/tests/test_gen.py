"""Tests of the benchmark's input generator, oracle and statistics.

    python3 -m pytest perfbench/tests -q
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import hyperrings as hr  # noqa: E402
from run import tail_percentile  # noqa: E402


def test_unit_subgroups():
    assert gen.units(8) == [1, 3, 5, 7]
    assert [sorted(s) for s in gen.subgroups(8)] == [
        [1], [1, 3], [1, 5], [1, 7], [1, 3, 5, 7]]
    # U(Z_7) is cyclic of order 6: one subgroup per divisor of 6
    assert [len(s) for s in gen.subgroups(7)] == [1, 2, 3, 6]


def test_arithmetic_helpers():
    assert gen.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert gen.squarefree_part(72) == 6
    assert [d for d in range(1, 13) if gen.is_prime_power(d)] == [2, 3, 4, 5, 7, 8, 9, 11]
    assert [d for d in range(1, 13) if gen.is_prime(d)] == [2, 3, 5, 7, 11]


def test_z12_mod_units_is_the_shipped_g():
    q = gen.Quotient(12, frozenset(gen.units(12)))
    ours = json.loads(gen.quotient_item(q).text)
    with open(os.path.join(ROOT, "src", "hyperrings", "data", "g.json"),
              encoding="utf-8") as fh:
        shipped = json.load(fh)
    for key in ("m", "n", "elements", "zero", "one", "f", "g"):
        assert ours[key] == shipped[key], key


def test_oracle_of_z12():
    item = gen.quotient_item(gen.Quotient(12, frozenset(gen.units(12))))
    assert item.ideals == {frozenset({"0", "2", "4", "6"}): 2,
                           frozenset({"0", "3", "6"}): 3,
                           frozenset({"0", "4"}): 4,
                           frozenset({"0", "6"}): 6,
                           frozenset({"0"}): 12}
    assert item.radicals[frozenset({"0", "4"})] == frozenset({"0", "2", "4", "6"})
    assert item.radicals[frozenset({"0"})] == frozenset({"0", "6"})
    # U(Z_12) = {1,5,7,11} acts on Z_4 as {1,3}: orbits {0},{1,3},{2}
    assert item.quotient_sizes[frozenset({"0", "4"})] == 3


def test_fold_keeps_a_left_fold():
    labels, f2, g2 = gen.quotient_tables(gen.Quotient(5, frozenset({1, 4})))
    f, g = gen.fold_tables(labels, f2, g2, 3, 3)
    assert g[("2", "2", "2")] == g2[(g2[("2", "2")], "2")]
    assert f[("0", "0", "1")] == frozenset({"1"})
    assert f[("1", "1", "1")] == frozenset().union(*(f2[(a, "1")] for a in f2[("1", "1")]))


def test_corpus_make_up():
    items = gen.krasner_corpus()
    assert len({i.name for i in items}) == len(items)
    folds = [i for i in items if (i.m, i.n) != (2, 2)]
    assert {(i.m, i.n) for i in folds} == set(gen.FOLD_ARITIES)
    assert all(i.size in gen.FOLD_SIZES for i in folds)


def test_oracle_matches_library_on_small_structures():
    picks = [gen.quotient_item(gen.Quotient(8, frozenset({1, 3}))),
             gen.quotient_item(gen.Quotient(9, frozenset({1, 8})), 3, 2),
             gen.quotient_item(gen.Quotient(6, frozenset({1})), 2, 3)]
    for item in picks:
        ring = hr.parse_document(item.text)
        assert hr.serialize_document(ring) == item.text
        lattice = [p for p in hr.enumerate_hyperideals(ring) if p.proper]
        got = {frozenset(ring.labels[x] for x in p.members): p for p in lattice}
        assert set(got) == set(item.ideals)
        for ideal, p in got.items():
            rad = frozenset(ring.labels[x] for x in hr.radical_by_primes(ring, p))
            assert rad == item.radicals[ideal]
            table, _ = hr.quotient(ring, p)
            assert table.size == item.quotient_sizes[ideal]


def test_product_oracle():
    base, factors = gen.ladder()
    small = factors[0]
    g = hr.parse_document(base.text)
    f = hr.parse_document(small.text)
    p = hr.direct_product(g, f)
    got = {frozenset(p.labels[x] for x in i.members)
           for i in hr.enumerate_hyperideals(p)}
    assert got == gen.product_lattice(base, small)
    rad = hr.radical_by_powers(p, frozenset({p.zero}))
    assert frozenset(p.labels[x] for x in rad) == gen.product_zero_radical(base, small)


def test_tail_percentile_leaves_ten_items_beyond():
    assert tail_percentile(10) is None
    assert tail_percentile(24) == 58
    for n in range(11, 400):
        p = tail_percentile(n)
        beyond = n - -(-p * n // 100)
        assert beyond >= 10
        assert n - -(-(p + 1) * n // 100) < 10 or p == 99
