"""Benchmark inputs and the arithmetic oracle that checks the library on them.

Inputs are canonical hyperring documents (the text format that
`hyperrings.parse_document` reads), generated from integer arithmetic
alone, so nothing here imports the library:

* Krasner quotients Z_k/U: the classes xU of Z_k under multiplication by a
  subgroup U of the unit group, with hyperaddition
  [a] + [b] = {[x + y] : x in [a], y in [b]} and multiplication
  [a][b] = [ab].  Every U is taken, for every k up to a bound.
* Derived (m,n)-structures ("folds") of a (2,2) table, after Mirvakili and
  Davvaz, *Relations on Krasner (m,n)-hyperrings* (Eur. J. Combin. 2010):
  f is the left fold of the binary hyperaddition, g the left fold of the
  binary multiplication.

The oracle side predicts, from k, U and the divisors of k, what the
library must compute: the hyperideals of Z_k/U are exactly the images of
dZ_k for d | k; the radical of the image of dZ_k is the image of
rad(d)Z_k; that ideal is prime iff d is prime and primary (and q-primary)
iff d is a prime power; the quotient by it has one element per U-orbit on
Z_d.  A fold keeps the carrier, so it has the same lattice and radicals as
its source, and a direct product's lattice is exactly the set of I1 x I2.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import gcd

# k bound of the krasner-corpus workload, and the size range of the members
# whose (3,3), (2,3) and (3,2) folds are added to it
CORPUS_K_MAX = 16
FOLD_SIZES = range(3, 6)
FOLD_ARITIES = ((3, 3), (2, 3), (3, 2))

# product-ladder rungs: G = Z_12/U(Z_12) times one generated factor Z_k/U
# each, U given by generators (None: all units); the factors have 2 to 8
# elements, so the rungs have 12, 18, ..., 48
LADDER_BASE = (12, None)
LADDER_FACTORS = ((3, None), (4, None), (8, None), (9, (8,)), (11, (10,)),
                  (13, (12,)), (15, (14,)))


def divisors(k):
    return [d for d in range(1, k + 1) if k % d == 0]


def prime_factors(d):
    out = []
    p = 2
    while p * p <= d:
        if d % p == 0:
            out.append(p)
            while d % p == 0:
                d //= p
        p += 1
    if d > 1:
        out.append(d)
    return out


def squarefree_part(d):
    out = 1
    for p in prime_factors(d):
        out *= p
    return out


def is_prime(d):
    return d > 1 and prime_factors(d) == [d]


def is_prime_power(d):
    return d > 1 and len(prime_factors(d)) == 1


def units(k):
    return [u for u in range(1, k) if gcd(u, k) == 1]


def _subgroup_closure(k, gens):
    group = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for u in gens:
            y = x * u % k
            if y not in group:
                group.add(y)
                frontier.append(y)
    return frozenset(group)


def subgroups(k):
    """Every subgroup of the unit group of Z_k, smallest first."""
    found = {_subgroup_closure(k, [u]) for u in units(k)}
    while True:
        fresh = {_subgroup_closure(k, a | b)
                 for a, b in itertools.combinations(found, 2)} - found
        if not fresh:
            break
        found |= fresh
    return sorted(found, key=lambda s: (len(s), sorted(s)))


@dataclass(frozen=True)
class Quotient:
    """Z_k/U as classes of residues; labels are the least representatives."""
    k: int
    U: frozenset

    @property
    def classes(self):
        seen, out = set(), []
        for x in range(self.k):
            if x not in seen:
                orbit = frozenset(x * u % self.k for u in self.U)
                seen |= orbit
                out.append(orbit)
        return out

    @property
    def name(self):
        gens = "".join(f".{u}" for u in sorted(self.U) if u != 1)
        return f"Z{self.k}U{len(self.U)}{gens}"

    @property
    def size(self):
        return len(self.classes)

    def image(self, d):
        """Labels of the classes inside dZ_k, for d | k."""
        return frozenset(str(min(c)) for c in self.classes if min(c) % d == 0)

    def orbits_mod(self, d):
        """Number of U-orbits on Z_d."""
        seen, count = set(), 0
        for x in range(d):
            if x not in seen:
                seen |= {x * u % d for u in self.U}
                count += 1
        return count


def quotient_tables(q):
    """Labels plus the binary f and g of Z_k/U, keyed by label tuples."""
    classes = q.classes
    label_of = {}
    for c in classes:
        for x in c:
            label_of[x] = str(min(c))
    labels = [str(min(c)) for c in classes]
    f, g = {}, {}
    for a, b in itertools.product(classes, repeat=2):
        key = (str(min(a)), str(min(b)))
        f[key] = frozenset(label_of[(x + y) % q.k] for x in a for y in b)
        g[key] = label_of[min(a) * min(b) % q.k]
    return labels, f, g


def fold_tables(labels, f2, g2, m, n):
    """Left folds of binary f and g to arities m and n."""
    f, g = {}, {}
    for t in itertools.product(labels, repeat=m):
        acc = {t[0]}
        for x in t[1:]:
            acc = set().union(*(f2[(a, x)] for a in acc))
        f[t] = frozenset(acc)
    for t in itertools.product(labels, repeat=n):
        acc = t[0]
        for x in t[1:]:
            acc = g2[(acc, x)]
        g[t] = acc
    return f, g


def document(name, m, n, labels, f, g):
    """Canonical document text for a commutative table with zero "0" and
    identity "1"."""
    order = {lab: i for i, lab in enumerate(labels)}

    def keys(arity):
        return itertools.combinations_with_replacement(labels, arity)

    doc = {
        "name": name,
        "m": m,
        "n": n,
        "elements": list(labels),
        "zero": "0",
        "one": "1",
        "commutative_f": True,
        "commutative_g": True,
        "f": {",".join(t): sorted(f[t], key=order.__getitem__) for t in keys(m)},
        "g": {",".join(t): g[t] for t in keys(n)},
    }
    return json.dumps(doc, indent=2) + "\n"


@dataclass(frozen=True)
class Item:
    """One generated structure and what the oracle says about it.

    `ideals` maps each proper hyperideal (a frozenset of labels) to its d,
    `radicals` maps it to the labels of its radical, and `quotient_sizes`
    to the size of the quotient by it.
    """
    name: str
    m: int
    n: int
    size: int
    text: str
    ideals: dict
    radicals: dict
    quotient_sizes: dict
    full: frozenset

    def prime(self, ideal):
        return is_prime(self.ideals[ideal])

    def primary(self, ideal):
        return is_prime_power(self.ideals[ideal])


def quotient_item(q, m=2, n=2):
    labels, f2, g2 = quotient_tables(q)
    if (m, n) == (2, 2):
        f, g, name = f2, g2, q.name
    else:
        f, g = fold_tables(labels, f2, g2, m, n)
        name = f"{q.name}^({m},{n})"
    proper = [d for d in divisors(q.k) if d > 1]
    ideals = {q.image(d): d for d in proper}
    radicals = {q.image(d): q.image(squarefree_part(d)) for d in proper}
    sizes = {q.image(d): q.orbits_mod(d) for d in proper}
    return Item(name, m, n, q.size, document(name, m, n, labels, f, g),
                ideals, radicals, sizes, frozenset(labels))


def krasner_corpus():
    """Every Z_k/U with 2 <= k <= CORPUS_K_MAX, then the folds of the
    members whose size is in FOLD_SIZES."""
    base = [Quotient(k, U) for k in range(2, CORPUS_K_MAX + 1)
            for U in subgroups(k)]
    items = [quotient_item(q) for q in base]
    for m, n in FOLD_ARITIES:
        items += [quotient_item(q, m, n) for q in base if q.size in FOLD_SIZES]
    return items


def ladder_factor(k, gens):
    """Z_k/U, with U generated by gens (the whole unit group when None)."""
    U = (frozenset(units(k)) if gens is None
         else _subgroup_closure(k, list(gens)))
    return quotient_item(Quotient(k, U))


def ladder():
    """(base, [factor, ...]) for the product-ladder rungs."""
    return (ladder_factor(*LADDER_BASE),
            [ladder_factor(k, gens) for k, gens in LADDER_FACTORS])


def product_lattice(a, b):
    """Oracle lattice of a direct product: every I1 x I2, R included,
    with the library's f"{x}_{y}" labels."""
    def lattice(item):
        return list(item.ideals) + [item.full]
    return {frozenset(f"{x}_{y}" for x in i1 for y in i2)
            for i1 in lattice(a) for i2 in lattice(b)}


def product_zero_radical(a, b):
    """rad({0}) of a direct product is rad_a({0}) x rad_b({0})."""
    zero = frozenset({"0"})
    return frozenset(f"{x}_{y}" for x in a.radicals[zero] for y in b.radicals[zero])
