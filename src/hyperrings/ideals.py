"""Hyperideal detection, enumeration, radicals and related lattice machinery.

A hyperideal is a subset containing zero, closed under the extended
hyperaddition and under additive inverses, and absorbing under g in every
argument position.  Two independent radical algorithms are provided: the
intersection of the prime hyperideals above an ideal, and the set of
elements some g-power of which lands in the ideal.  On every corpus
structure the two must agree; the test suite enforces it.

Closures are worklists: each round handles only the elements new in that
round, so every f- or g-tuple is evaluated once per closure, and a join
of two closed sets starts from the larger.  The lattice search joins only
the pairs with a set new in the round before, and under a size bound it
closes no set above the bound.  Per-table indexes of g
give for each element the g-values of every n-tuple containing it (for
absorption), and the value rows that row masks are unions of.  A subset
is a hyperideal exactly when its closure adds nothing, and that is how
`make_hyperideal` and `generated_by` decide it;
`hyperideal_violations` names the broken invariants for error messages
and serves as the test oracle.

The hyperideals of a product of passing tables are the I1 x I2 of theirs
(FINDINGS.md (v)), and those of a quotient R/Q of a passing table are
the images p[I] of the hyperideals I ⊇ Q of R (FINDINGS.md (vi)).  So
the lattice of such a product or quotient is built from its factors' or
its parent's lattice on first read, in the closure search's order.  The
power radical reads all powers of an element off one chain of g lookups.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .core import ArityError, g_product, memoised


class ImproperIdealError(ValueError):
    """Raised when a predicate that needs a proper hyperideal gets R itself."""


@dataclass(frozen=True)
class Hyperideal:
    """A subset of a hyperring carrier treated as a hyperideal.

    `valid` records whether the subset actually satisfies the hyperideal
    invariants; non-strict construction keeps deviant subsets inspectable
    (needed for tables transcribed with known defects).
    """
    ring: object
    members: frozenset
    valid: bool = True

    @property
    def proper(self):
        return len(self.members) < self.ring.size

    def __contains__(self, x):
        return x in self.members

    def render(self):
        return self.ring.subset_label(self.members)


def hyperideal_violations(ring, members):
    """Which hyperideal invariants the subset breaks, with witnesses.

    Empty exactly when the subset is its own `ideal_closure`, which is the
    cheaper test; this scan is kept for error messages and as the oracle.
    """
    members = frozenset(members)
    out = []
    if not members:
        return ["empty subset"]
    if ring.zero not in members:
        out.append("zero missing")
    f = ring.f
    order = sorted(members)
    for t in itertools.product(order, repeat=ring.m):
        if not f[t] <= members:
            out.append(f"not f-closed at ({ring.tuple_label(t)}): "
                       f"{ring.subset_label(f[t])}")
            break
    for x in order:
        if not ring.inverses(x) <= members:
            out.append(f"inverse of {ring.label(x)} missing")
            break
    g = ring.g
    n = ring.n
    hit = None
    for i in range(n):
        for amb in itertools.product(range(ring.size), repeat=n - 1):
            for s in order:
                t = amb[:i] + (s,) + amb[i:]
                if g[t] not in members:
                    hit = t
                    break
            if hit:
                break
        if hit:
            break
    if hit:
        out.append(f"not absorbing at g({ring.tuple_label(hit)})="
                   f"{ring.label(g[hit])}")
    return out


def is_hyperideal(ring, members):
    return not hyperideal_violations(ring, members)


def make_hyperideal(ring, members, strict=True):
    members = frozenset(members)
    valid = ideal_closure(ring, members) == members
    if not valid and strict:
        bad = hyperideal_violations(ring, members)
        raise ValueError(f"{ring.subset_label(members)} is not a hyperideal "
                         f"of {ring.name}: {bad[0]}")
    return Hyperideal(ring, members, valid=valid)


def ideal_from_labels(ring, labels):
    members = frozenset(ring.index(lab) for lab in labels.split(","))
    return make_hyperideal(ring, members)


@memoised("absorption")
def absorption_index(ring):
    """For each element x, the g-values of every n-tuple containing x.

    A set holding x is absorbing at x exactly when it contains this set,
    so a closure absorbs a new element with one union.  Built in one pass
    over the g table.
    """
    out = [set() for _ in ring.carrier]
    for t, v in ring.g.items():
        for x in t:
            out[x].add(v)
    return [frozenset(s) for s in out]


def _touching(old, new, every, arity):
    """Every tuple over old | new with an entry in new, each exactly once:
    the tuples whose first entry from new is at position i are
    old^i x new x every^(arity-1-i)."""
    return itertools.chain.from_iterable(
        itertools.product(*[old] * i, new, *[every] * (arity - 1 - i))
        for i in range(arity))


def worklist_closure(ring, seed, absorbing, base=frozenset()):
    """Least superset of seed | base | {0} closed under f, the inverses,
    and either absorption under g (a hyperideal) or g itself (a
    subhyperring), for a base that is already closed.

    Each round only processes the elements that are new in that round:
    their inverses and absorption sets, and f (or g) on the tuples over
    the members that contain at least one new element.  Every tuple is
    therefore evaluated once, and one over the base alone never: the
    rules are Horn rules, so the closed base yields nothing on its own.
    """
    f, g, m, n = ring.f, ring.g, ring.m, ring.n
    absorb = absorption_index(ring) if absorbing else None
    members = set(base)
    new = (set(seed) | {ring.zero}) - members
    while new:
        old = list(members)
        members |= new
        every = list(members)
        fresh = set(itertools.chain.from_iterable(
            map(f.__getitem__, _touching(old, new, every, m))))
        for x in new:
            fresh |= ring.inverses(x)
        if absorbing:
            for x in new:
                fresh |= absorb[x]
        else:
            fresh.update(map(g.__getitem__, _touching(old, new, every, n)))
        new = fresh - members
    return frozenset(members)


def ideal_closure(ring, seed, base=frozenset()):
    """Smallest hyperideal holding the seed and a hyperideal base."""
    return worklist_closure(ring, seed, True, base)


def _canonical_order(sets):
    return sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))


def closed_sets(ring, closure, limit=math.inf):
    """Every set of at most limit elements closed under closure(ring,
    seed, base), the least closed set holding seed and the closed set base.

    Each closed set is the join (closure of the union) of the closures of
    its elements, so closing the singleton closures under binary joins
    yields the whole lattice, in canonical order.  A round joins only the
    pairs with a set new in the round before, closing the smaller onto the
    larger.  The least element is the closure of {0}, not {0} itself,
    which a broken table need not keep closed.  Every partial join on the
    way to a closed S lies inside S, so a singleton closure or join above
    the limit is not kept, and a pair whose union is above it is not
    closed (FINDINGS.md (vii)).
    """
    found = set()
    new = {s for s in (closure(ring, frozenset([x])) for x in ring.carrier)
           if len(s) <= limit}
    while new:
        pairs = [*itertools.product(new, found), *itertools.combinations(new, 2)]
        found |= new
        joins = (closure(ring, *sorted(pair, key=len)) for pair in pairs
                 if not (pair[0] <= pair[1] or pair[1] <= pair[0])
                 and len(pair[0] | pair[1]) <= limit)
        new = {s for s in joins if len(s) <= limit} - found
    return _canonical_order(found)


@memoised("hyperideals")
def enumerate_hyperideals(ring):
    """All hyperideals, R included: the closed sets of ideal_closure, or,
    on a product of passing factors, the I1 x I2 of their lattices, or,
    on a quotient R/Q of a passing table, the p[I] of its I ⊇ Q.

    Verified against the 2^|R| brute-force filter for small carriers, and
    the products and quotients against the closure search, in the test
    suite.
    """
    memo = ring.memo
    if "factors" in memo:
        sets = _product_lattice(*memo["factors"])
    elif "parent" in memo:
        sets = _quotient_lattice(*memo["parent"])
    else:
        sets = closed_sets(ring, ideal_closure)
    return [Hyperideal(ring, s, True) for s in sets]


def product_pack(r2, i, j):
    """The element (i, j) of a direct product whose second factor is r2."""
    return i * r2.size + j


def _product_lattice(r1, r2):
    """Every I1 x I2, in canonical order: the hyperideals of the product
    of two passing tables (FINDINGS.md (v))."""
    return _canonical_order(
        frozenset(product_pack(r2, a, b) for a in p1.members for b in p2.members)
        for p1 in enumerate_hyperideals(r1) for p2 in enumerate_hyperideals(r2))


def _quotient_lattice(parent, q_members, proj):
    """Every p[I] with I ⊇ Q, in canonical order: the hyperideals of the
    quotient of a passing table by Q (FINDINGS.md (vi))."""
    return _canonical_order(
        frozenset(map(proj.__getitem__, p.members))
        for p in enumerate_hyperideals(parent) if q_members <= p.members)


def proper_hyperideals(ring):
    return [p for p in enumerate_hyperideals(ring) if p.proper]


@memoised("value_rows")
def value_rows(ring):
    """For each (n-1)-tuple key, the list over values v of the bitmask of
    the c with g(key, c) = v: one pass over the g table."""
    out = {key: [0] * ring.size
           for key in itertools.product(ring.carrier, repeat=ring.n - 1)}
    for t, v in ring.g.items():
        out[t[:-1]][v] |= 1 << t[-1]
    return out


@memoised("rows")
def row_masks(ring, members):
    """For each (n-1)-tuple key, the bitmask of the c with g(key, c) in
    members, a union of value rows, memoised by the member set."""
    return {key: reduce(or_, map(row.__getitem__, members), 0)
            for key, row in value_rows(ring).items()}


def complement(ring, members):
    return [x for x in ring.carrier if x not in members]


def mask_of(elements):
    return sum(1 << x for x in elements)


def lowest(mask):
    """The least element of a non-empty bitmask."""
    return (mask & -mask).bit_length() - 1


def tuple_scan(ring, members, rest, rad=frozenset(), weak=False):
    """(True, None), or (False, t) for the first n-tuple t over rest, in
    product order, whose g-value lies in members, and is not zero when
    weak, and none of whose drops (an entry replaced by the identity) has
    its g-value in rad.  Each prefix settles its row of last entries at
    once; the witness takes the least entry left, since the last entry
    varies fastest."""
    rows, kept = row_masks(ring, members), row_masks(ring, rad)
    zeros = row_masks(ring, frozenset([ring.zero]) if weak else frozenset())
    g, one, allowed = ring.g, ring.one, mask_of(rest)
    for prefix in itertools.product(rest, repeat=ring.n - 1):
        if g[prefix + (one,)] in rad:
            continue
        hit = rows[prefix] & allowed & ~zeros[prefix]
        for i in range(len(prefix)):
            hit &= ~kept[prefix[:i] + (one,) + prefix[i + 1:]]
        if hit:
            return False, prefix + (lowest(hit),)
    return True, None


@memoised("prime_hyperideals")
def prime_hyperideals(ring):
    return [p for p in enumerate_hyperideals(ring)
            if p.proper
            and tuple_scan(ring, p.members, complement(ring, p.members))[0]]


def _members_of(ideal_or_set):
    if isinstance(ideal_or_set, Hyperideal):
        return ideal_or_set.members
    return frozenset(ideal_or_set)


def radical_by_primes(ring, ideal):
    """Intersection of the prime hyperideals containing the ideal; R when
    no prime contains it."""
    return _radical_by_primes(ring, _members_of(ideal))


@memoised("radical_by_primes")
def _radical_by_primes(ring, members):
    out = None
    for p in prime_hyperideals(ring):
        if members <= p.members:
            out = p.members if out is None else out & p.members
    return ring.full_set if out is None else out


def radical_by_powers(ring, ideal):
    """Elements with some g-power in the ideal.

    Over a finite carrier the power sequence is eventually periodic, so
    powers up to |R| suffice.
    """
    return _radical_by_powers(ring, _members_of(ideal))


@memoised("radical_by_powers")
def _radical_by_powers(ring, members):
    return frozenset(a for a in ring.carrier
                     if not members.isdisjoint(_power_chain(ring, a, ring.size)))


def _power_chain(ring, a, count):
    """g_power(ring, a, s) for s = 1, ..., count, one g lookup each.

    g_product folds a^(s) from the left in groups: g(a^n), then whole
    groups a^(n-1), with the identity padding only the last group.  So
    each power is the head of the whole groups before it with its last
    group a^r 1^(n-1-r) folded in, and at r = n-1 it is the next head.
    """
    g, n, one = ring.g, ring.n, ring.one
    tails = [(a,) * r + (one,) * (n - 1 - r) for r in range(n)]
    head, r = a, 0
    for _ in range(count):
        value = g[(head,) + tails[r]]
        yield value
        head, r = (value, 1) if r == n - 1 else (head, r + 1)


@dataclass(frozen=True)
class GeneratedIdeal:
    """Raw generated set g(R, x, 1^(n-2)) plus its hyperideal closure."""
    raw: frozenset
    raw_is_ideal: bool
    ideal: Hyperideal


def generated_by(ring, x):
    raw = frozenset(g_product(ring, (r, x)) for r in ring.carrier)
    closed = ideal_closure(ring, raw)
    return GeneratedIdeal(raw, closed == raw, Hyperideal(ring, closed, True))


@dataclass(frozen=True)
class IdealSetPair:
    """P_r and A_r for an anchor element r: the elements whose g-product
    with r lands in P, respectively equals zero."""
    p_r: frozenset
    a_r: frozenset


def quotient_sets(ring, ideal, r):
    members = _members_of(ideal)
    products = [g_product(ring, (r, a)) for a in ring.carrier]
    p_r = frozenset(a for a, v in enumerate(products) if v in members)
    a_r = frozenset(a for a, v in enumerate(products) if v == ring.zero)
    return IdealSetPair(p_r, a_r)


@dataclass(frozen=True)
class IdealProduct:
    """g-product of hyperideals: the raw element set and its closure."""
    raw: frozenset
    ideal: Hyperideal
    closure_added: bool


def hyperideal_product(ring, factors):
    """Hyperideal closure of {g(p_1,...,p_n)} with identity padding.

    Factors beyond the given ones are the singleton {1}, mirroring the
    1^(n-2) padding convention; whether closure added anything is recorded
    so the raw set stays auditable.
    """
    sets = [sorted(_members_of(p)) for p in factors]
    if not sets or len(sets) > ring.n:
        raise ArityError(f"need between 1 and {ring.n} factors, got {len(sets)}")
    while len(sets) < ring.n:
        sets.append([ring.one])
    raw = frozenset(ring.g[t] for t in itertools.product(*sets))
    closed = ideal_closure(ring, raw)
    return IdealProduct(raw, Hyperideal(ring, closed, True), closed != raw)
