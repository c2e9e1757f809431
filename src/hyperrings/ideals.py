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
passes the bound to each closure, which stops once it is above it, and
keeps no set above the bound.  Per-table indexes of g
give for each element the g-values of every n-tuple containing it (for
absorption), and the value rows that row masks are unions of.  A subset
is a hyperideal exactly when its closure adds nothing, and that is how
`make_hyperideal` and `generated_by` decide it, except that on a
certified product or quotient `make_hyperideal` looks the set up in the
derived lattice below; both results are
memoised with the table, by member set and by element, as is
`hyperideal_product` by its factors' member sets, and `quotient_sets`
reads each element's memoised row of g.
`hyperideal_violations` names the broken invariants for error messages
and serves as the test oracle.

The hyperideals of a product of passing tables are the I1 x I2 of theirs
(FINDINGS.md (v)), and those of a quotient R/Q of a passing table are
the images p[I] of the hyperideals I ⊇ Q of R (FINDINGS.md (vi)).  So
the lattice of such a product or quotient is built from its factors' or
its parent's lattice on first read, in the closure search's order; a
product's are the very objects `factor_ideals` lists with their factors.
Their primes come from the same certificates (FINDINGS.md (x)).  The
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
    """Raised when a predicate or a quotient that needs a proper
    hyperideal gets R itself."""


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
    valid = _is_closed(ring, members)
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


def worklist_closure(ring, seed, absorbing, base=frozenset(), limit=math.inf):
    """Least superset of seed | base | {0} closed under f, the inverses,
    and either absorption under g (a hyperideal) or g itself (a
    subhyperring), for a base that is already closed; or, once the
    members exceed limit, the members so far.

    Each round only processes the elements that are new in that round:
    their inverses and absorption sets, and f (or g) on the tuples over
    the members that contain at least one new element.  Every tuple is
    therefore evaluated once, and one over the base alone never: the
    rules are Horn rules, so the closed base yields nothing on its own.
    The members after each round lie inside the closure, so a set
    returned above limit means the closure is above it too
    (FINDINGS.md (vii)).
    """
    f, g, m, n = ring.f, ring.g, ring.m, ring.n
    absorb = absorption_index(ring) if absorbing else None
    members = set(base)
    new = (set(seed) | {ring.zero}) - members
    while new:
        old = list(members)
        members |= new
        if len(members) > limit:
            break
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


def ideal_closure(ring, seed, base=frozenset(), limit=math.inf):
    """Smallest hyperideal holding the seed and a hyperideal base, or a
    set above limit inside it."""
    return worklist_closure(ring, seed, True, base, limit)


@memoised("closed")
def _is_closed(ring, members):
    """Whether the member set is a hyperideal: on a certified product or
    quotient, one of the lattice derived from its factors or parent
    (FINDINGS.md (v), (vi)), and otherwise its own ideal closure."""
    if "factors" in ring.memo or "parent" in ring.memo:
        return any(p.members == members for p in enumerate_hyperideals(ring))
    return ideal_closure(ring, members) == members


def _canonical_key(members):
    return len(members), tuple(sorted(members))


def _canonical_order(sets):
    return sorted(sets, key=_canonical_key)


def closed_sets(ring, closure, limit=math.inf):
    """Every set of at most limit elements closed under closure(ring,
    seed, base, limit), the least closed set holding seed and the closed
    set base, or a set above limit inside it.

    Each closed set is the join (closure of the union) of the closures of
    its elements, so closing the singleton closures under binary joins
    yields the whole lattice, in canonical order.  A round joins only the
    pairs with a set new in the round before, closing the smaller onto the
    larger.  The least element is the closure of {0}, not {0} itself,
    which a broken table need not keep closed.  Every partial join on the
    way to a closed S lies inside S, so a singleton closure or join above
    the limit is not kept, and a pair whose union is above it is not
    closed; each closure is passed the limit, and stops once it is above
    it (FINDINGS.md (vii)).
    """
    found = set()
    new = {s for s in (closure(ring, frozenset([x]), frozenset(), limit)
                       for x in ring.carrier)
           if len(s) <= limit}
    while new:
        pairs = [*itertools.product(new, found), *itertools.combinations(new, 2)]
        found |= new
        joins = (closure(ring, *sorted(pair, key=len), limit) for pair in pairs
                 if not (pair[0] <= pair[1] or pair[1] <= pair[0])
                 and len(pair[0] | pair[1]) <= limit)
        new = {s for s in joins if len(s) <= limit} - found
    return _canonical_order(found)


@memoised("hyperideals")
def enumerate_hyperideals(ring):
    """All hyperideals, R included: the closed sets of ideal_closure, or,
    on a product of passing factors, the I1 x I2 of `factor_ideals`, or,
    on a quotient R/Q of a passing table, the p[I] of its I ⊇ Q.

    Verified against the 2^|R| brute-force filter for small carriers, and
    the products and quotients against the closure search, in the test
    suite.
    """
    memo = ring.memo
    if "factors" in memo:
        return sorted((p for _, _, p in factor_ideals(ring)),
                      key=lambda p: _canonical_key(p.members))
    if "parent" in memo:
        sets = _quotient_lattice(*memo["parent"])
    else:
        sets = closed_sets(ring, ideal_closure)
    return [Hyperideal(ring, s, True) for s in sets]


def product_pack(r2, i, j):
    """The element (i, j) of a direct product whose second factor is r2."""
    return i * r2.size + j


@memoised("factor_ideals")
def factor_ideals(ring):
    """(I1, I2, I1 x I2) for every pair of hyperideals of the factors of a
    certified product, I1 outer and I2 inner, each in its factor's
    lattice order: the I1 x I2 are the product's hyperideals
    (FINDINGS.md (v)), so none is closed here."""
    r1, r2 = ring.memo["factors"]
    return [(p1, p2, Hyperideal(ring, frozenset(
                product_pack(r2, a, b) for a in p1.members for b in p2.members)))
            for p1 in enumerate_hyperideals(r1) for p2 in enumerate_hyperideals(r2)]


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


def tuple_scan(ring, members, rest, rad=frozenset(), weak=False, every=False):
    """(True, None), or (False, t) for the first n-tuple t, in product
    order, whose g-value lies in members, and is not zero when weak, and
    that fails.  Position i fails when t_i lies in rest and its drop (t_i
    replaced by the identity) has its g-value outside rad; t fails when
    every position fails, or with every when any one does.  Without every
    a failing t lies over rest, so only those prefixes are walked.  Each
    prefix settles its row of last entries at once; the witness takes the
    least entry left, since the last entry varies fastest."""
    rows, kept = row_masks(ring, members), row_masks(ring, rad)
    zeros = row_masks(ring, frozenset([ring.zero]) if weak else frozenset())
    g, one, fails = ring.g, ring.one, mask_of(rest)
    for prefix in itertools.product(ring.carrier if every else rest,
                                    repeat=ring.n - 1):
        bad = fails if g[prefix + (one,)] not in rad else 0
        if not (bad or every):
            continue
        for i, x in enumerate(prefix):
            drop = (~kept[prefix[:i] + (one,) + prefix[i + 1:]]
                    if fails >> x & 1 else 0)
            bad = bad | drop if every else bad & drop
        hit = rows[prefix] & ~zeros[prefix] & bad
        if hit:
            return False, prefix + (lowest(hit),)
    return True, None


@memoised("prime_hyperideals")
def prime_hyperideals(ring):
    """The proper hyperideals P with no n-tuple outside P whose g-value
    lies in P, in lattice order.  On a product of passing factors they
    are the P1 x R2 and R1 x P2 with P1, P2 prime, and on a quotient R/Q
    of a passing table the p[P] of R's primes P ⊇ Q (FINDINGS.md (x)):
    these are read off the lattice, with no tuple scanned."""
    memo = ring.memo
    if "factors" in memo:
        r1, r2 = memo["factors"]
        primes1 = {p.members for p in prime_hyperideals(r1)}
        primes2 = {p.members for p in prime_hyperideals(r2)}
        keep = {p.members for p1, p2, p in factor_ideals(ring)
                if p1.members in primes1 and not p2.proper
                or not p1.proper and p2.members in primes2}
    elif "parent" in memo:
        parent, q_members, proj = memo["parent"]
        keep = {frozenset(map(proj.__getitem__, p.members))
                for p in prime_hyperideals(parent) if q_members <= p.members}
    else:
        return [p for p in enumerate_hyperideals(ring)
                if p.proper
                and tuple_scan(ring, p.members, complement(ring, p.members))[0]]
    return [p for p in enumerate_hyperideals(ring) if p.members in keep]


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


@memoised("generated")
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


@memoised("g_row")
def _g_row(ring, r):
    """r's multiplication row: g(r, a, 1^(n-2)) for each element a."""
    return tuple(g_product(ring, (r, a)) for a in ring.carrier)


def quotient_sets(ring, ideal, r):
    members = _members_of(ideal)
    products = _g_row(ring, r)
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
    so the raw set stays auditable.  Memoised by the factors' member sets.
    """
    return _hyperideal_product(ring, tuple(map(_members_of, factors)))


@memoised("ideal_product")
def _hyperideal_product(ring, factors):
    sets = [sorted(p) for p in factors]
    if not sets or len(sets) > ring.n:
        raise ArityError(f"need between 1 and {ring.n} factors, got {len(sets)}")
    while len(sets) < ring.n:
        sets.append([ring.one])
    raw = frozenset(ring.g[t] for t in itertools.product(*sets))
    closed = ideal_closure(ring, raw)
    return IdealProduct(raw, Hyperideal(ring, closed, True), closed != raw)
