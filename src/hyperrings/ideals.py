"""Hyperideal detection, enumeration, radicals and related lattice machinery.

A hyperideal is a subset containing zero, closed under the extended
hyperaddition and under additive inverses, and absorbing under g in every
argument position.  Two independent radical algorithms are provided: the
intersection of the prime hyperideals above an ideal, and the set of
elements some g-power of which lands in the ideal.  On every corpus
structure the two must agree; the test suite enforces it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .core import ArityError, g_power, g_product


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
    """Which hyperideal invariants the subset breaks, with witnesses."""
    members = frozenset(members)
    out = []
    if not members:
        return ["empty subset"]
    if ring.zero not in members:
        out.append("zero missing")
    f = ring.f
    for t in itertools.product(sorted(members), repeat=ring.m):
        if not f[t] <= members:
            out.append(f"not f-closed at ({ring.tuple_label(t)}): "
                       f"{ring.subset_label(f[t])}")
            break
    for x in sorted(members):
        if not ring.inverses(x) <= members:
            out.append(f"inverse of {ring.label(x)} missing")
            break
    g = ring.g
    n = ring.n
    hit = None
    for i in range(n):
        for amb in itertools.product(range(ring.size), repeat=n - 1):
            for s in members:
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
    bad = hyperideal_violations(ring, members)
    if bad and strict:
        raise ValueError(f"{ring.subset_label(members)} is not a hyperideal "
                         f"of {ring.name}: {bad[0]}")
    return Hyperideal(ring, members, valid=not bad)


def ideal_from_labels(ring, labels, strict=True):
    members = frozenset(ring.index(lab) for lab in labels.split(","))
    return make_hyperideal(ring, members, strict=strict)


def ideal_closure(ring, seed):
    """Smallest hyperideal containing the seed (least fixpoint)."""
    members = set(seed)
    members.add(ring.zero)
    f, g, n = ring.f, ring.g, ring.n
    rng = range(ring.size)
    while True:
        added = set()
        for x in list(members):
            added |= ring.inverses(x) - members
        for t in itertools.product(sorted(members), repeat=ring.m):
            added |= f[t] - members
        for i in range(n):
            for amb in itertools.product(rng, repeat=n - 1):
                for s in members:
                    v = g[amb[:i] + (s,) + amb[i:]]
                    if v not in members:
                        added.add(v)
        if not added:
            return frozenset(members)
        members |= added


def _canonical_order(sets):
    return sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))


def closed_sets(ring, closure):
    """Every set closed under a closure operator on the carrier.

    Each closed set is the join (closure of the union) of the closures of
    its elements, so closing the singleton closures and {0} under binary
    joins yields the whole lattice, in canonical order.
    """
    found = {closure(ring, frozenset([x])) for x in ring.carrier}
    found.add(frozenset([ring.zero]))
    while True:
        fresh = set()
        for a, b in itertools.combinations(found, 2):
            if a <= b or b <= a:
                continue
            j = closure(ring, a | b)
            if j not in found:
                fresh.add(j)
        if not fresh:
            break
        found |= fresh
    return _canonical_order(found)


@lru_cache(maxsize=None)
def enumerate_hyperideals(ring):
    """All hyperideals, R included: the closed sets of ideal_closure.

    Verified against the 2^|R| brute-force filter for small carriers in
    the test suite.
    """
    return [Hyperideal(ring, s, True) for s in closed_sets(ring, ideal_closure)]


def proper_hyperideals(ring):
    return [p for p in enumerate_hyperideals(ring) if p.proper]


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


def _is_prime_set(ring, members):
    g = ring.g
    for t in itertools.product(range(ring.size), repeat=ring.n):
        if g[t] in members and not any(x in members for x in t):
            return False, t
    return True, None


@lru_cache(maxsize=None)
def prime_hyperideals(ring):
    out = []
    for p in enumerate_hyperideals(ring):
        if p.proper and _is_prime_set(ring, p.members)[0]:
            out.append(p)
    return out


def _members_of(ideal_or_set):
    if isinstance(ideal_or_set, Hyperideal):
        return ideal_or_set.members
    return frozenset(ideal_or_set)


def radical_by_primes(ring, ideal):
    """Intersection of the prime hyperideals containing the ideal; R when
    no prime contains it."""
    return _radical_by_primes(ring, _members_of(ideal))


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _radical_by_powers(ring, members):
    out = set()
    for a in ring.carrier:
        for s in range(1, ring.size + 1):
            if g_power(ring, a, s) in members:
                out.add(a)
                break
    return frozenset(out)


def maximal_hyperideals(ring):
    proper = [p.members for p in enumerate_hyperideals(ring) if p.proper]
    out = [m for m in proper if not any(m < other for other in proper)]
    return [Hyperideal(ring, m, True) for m in _canonical_order(out)]


def jacobson_radical(ring):
    maximal = maximal_hyperideals(ring)
    if not maximal:
        return ring.full_set
    out = maximal[0].members
    for m in maximal[1:]:
        out &= m.members
    return out


@dataclass(frozen=True)
class GeneratedIdeal:
    """Raw generated set g(R, x, 1^(n-2)) plus its hyperideal closure."""
    raw: frozenset
    raw_is_ideal: bool
    ideal: Hyperideal


def generated_by(ring, x):
    raw = frozenset(g_product(ring, (r, x)) for r in ring.carrier)
    ok = is_hyperideal(ring, raw)
    closed = raw if ok else ideal_closure(ring, raw)
    return GeneratedIdeal(raw, ok, Hyperideal(ring, closed, True))


@dataclass(frozen=True)
class IdealSetPair:
    """P_r and A_r for an anchor element r: the elements whose g-product
    with r lands in P, respectively equals zero."""
    anchor: int
    p_r: frozenset
    a_r: frozenset
    p_r_is_ideal: bool


def quotient_sets(ring, ideal, r):
    members = _members_of(ideal)
    products = [g_product(ring, (r, a)) for a in ring.carrier]
    p_r = frozenset(a for a, v in enumerate(products) if v in members)
    a_r = frozenset(a for a, v in enumerate(products) if v == ring.zero)
    return IdealSetPair(r, p_r, a_r, is_hyperideal(ring, p_r))


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
