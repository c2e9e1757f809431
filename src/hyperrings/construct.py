"""Constructions: direct products, quotients, homomorphisms and transfers.

Quotient classes are keyed by their full member sets rather than by
representatives.  On a passing table and a hyperideal the classes
partition the carrier and each is computed once, from its least member
(FINDINGS.md (xii)), and the induced operations are well defined
(FINDINGS.md (viii)) and are read off one representative per class; on
any other table or subset both are explicit, exhaustively checked
assertions instead of assumptions.
The one-representative fill projects only the f-values that the tuples of
class minima read, and builds each induced table with one `dict(zip(...))`
over `map`, with no Python step per entry.
A built table is validated when its `validation` is first read, except that
products and quotients of passing tables are certified (FINDINGS.md).  A
product's tables are built with one dict update per tuple of the first
factor, its keys and values drawn from `itertools.product` and `map` over
the second factor's entries, with no Python step per entry.  A certified
product records its factors, and a certified quotient its parent,
hyperideal and projection; the hyperideal lattice and the prime
hyperideals are derived from them.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import (ArityError, HyperringTable, ValidationReport, Violation,
                   _first_read, f_extend, memoised)
from .ideals import (ImproperIdealError, _is_closed, _members_of,
                     make_hyperideal, product_pack, worklist_closure)


class IllDefinedQuotientError(ValueError):
    """Induced quotient operation depends on the choice of representatives."""


class NotSurjectiveError(ValueError):
    pass


class KernelNotContainedError(ValueError):
    pass


@dataclass(frozen=True)
class Homomorphism:
    """Total map between hyperrings, stored as a target-index tuple."""
    source: object
    target: object
    mapping: tuple

    def __call__(self, x):
        return self.mapping[x]

    @property
    def injective(self):
        return len(set(self.mapping)) == len(self.mapping)

    @_first_read
    def surjective(self):
        return len(set(self.mapping)) == self.target.size

    @_first_read
    def kernel(self):
        z = self.target.zero
        return frozenset(x for x, y in enumerate(self.mapping) if y == z)


@memoised("product")
def direct_product(r1, r2):
    """Componentwise product hyperring on the cartesian carrier, memoised
    in its first factor."""
    if (r1.m, r1.n) != (r2.m, r2.n):
        raise ArityError(f"arity mismatch: ({r1.m},{r1.n}) vs ({r2.m},{r2.n})")
    m, n = r1.m, r1.n
    owner = {}
    for pair in itertools.product(r1.labels, r2.labels):
        label = "_".join(pair)
        if owner.setdefault(label, pair) is not pair:
            raise ValueError(
                f"elements ({','.join(owner[label])}) and ({','.join(pair)}) "
                f"of {r1.name}x{r2.name} both get the label {label!r}")
    labels = list(owner)
    pair = [[product_pack(r2, a, b) for b in r2.carrier] for a in r1.carrier]
    sums = {u: {v: frozenset(pair[a][b] for a in u for b in v)
                for v in set(r2.f.values())}
            for u in set(r1.f.values())}

    def combine(arity, table1, table2, value):
        # keys in product order of r1's tuples, then of r2's: for a fixed
        # t1, (t1, t2) packs to the tuple of pair[t1[i]][t2[i]], and these
        # tuples in t2's product order are the product of the rows pair[a]
        inner = list(map(table2.__getitem__,
                         itertools.product(r2.carrier, repeat=arity)))
        out = {}
        for t1 in itertools.product(r1.carrier, repeat=arity):
            out.update(zip(itertools.product(*map(pair.__getitem__, t1)),
                           map(value[table1[t1]].__getitem__, inner)))
        return out

    ring = HyperringTable._built(
        name=f"{r1.name}x{r2.name}", m=m, n=n, labels=labels,
        zero=pair[r1.zero][r2.zero], one=pair[r1.one][r2.one],
        f=combine(m, r1.f, r2.f, sums), g=combine(n, r1.g, r2.g, pair))
    # every axiom holds componentwise on non-empty factors, and every
    # hyperideal is an I1 x I2, derived on first read (FINDINGS.md)
    if r1.validation.passed and r2.validation.passed:
        ring.validation = ValidationReport(True, [])
        ring.memo["factors"] = (r1, r2)
    return ring


def quotient(ring, ideal):
    """Quotient by a proper hyperideal via the class map r -> f(r, Q, 0^(m-2)).

    The classes must partition the carrier, and the induced operations
    must be independent of representatives.  Both hold on a passing table
    and a hyperideal (FINDINGS.md (xii), (viii)); off that certificate the
    partition is verified, and so is every representative tuple.
    Violations raise IllDefinedQuotientError with a witness.  Returns the
    quotient table and the projection homomorphism.
    """
    return _quotient(ring, _members_of(ideal))


@memoised("quotient")
def _quotient(ring, q_members):
    if len(q_members) >= ring.size:
        raise ImproperIdealError("quotient needs a proper hyperideal")
    m, n = ring.m, ring.n
    zero_pad = [frozenset({ring.zero})] * (m - 2)
    # on a passing table and a hyperideal Q the classes partition R, so each
    # uncovered r gives its class to all its members, and the classes come
    # in min order (FINDINGS.md (xii)); and every choice of representatives
    # gives the same value (FINDINGS.md (viii)): read the class minima, and
    # project only the f-values read there.  Every other table or subset
    # gets the class of every r, the checks and the scan
    certified = _is_closed(ring, q_members) and ring.validation.passed
    cls_of = {}
    for r in ring.carrier:
        if not (certified and r in cls_of):
            c = f_extend(ring, [frozenset({r}), q_members] + zero_pad)
            cls_of.update(dict.fromkeys(c if certified else (r,), c))
    classes = list(dict.fromkeys(cls_of.values()))    # in first-seen order
    if not certified:
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
    first = {}
    for c, label in zip(classes, labels):
        if first.setdefault(label, c) is not c:
            raise ValueError(
                f"classes {ring.subset_label(first[label])} and {ring.subset_label(c)} "
                f"of {ring.name}/{ring.subset_label(q_members)} both get the label {label!r}")

    minima = [min(c) for c in classes]
    read = (map(ring.f.__getitem__, itertools.product(minima, repeat=m))
            if certified else ring.f.values())
    image = {v: frozenset(map(proj.__getitem__, v)) for v in set(read)}
    induced = {}
    for name, table, arity, project in (("f", ring.f, m, image), ("g", ring.g, n, proj)):
        keys = itertools.product(range(len(classes)), repeat=arity)
        if certified:
            induced[name] = dict(zip(keys, map(project.__getitem__, map(
                table.__getitem__, itertools.product(minima, repeat=arity)))))
            continue
        induced[name] = {}
        for key in keys:
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

    out = HyperringTable._built(
        name=f"{ring.name}/{ring.subset_label(q_members)}", m=m, n=n,
        labels=labels, zero=proj[ring.zero], one=proj[ring.one],
        f=induced["f"], g=induced["g"])
    # f and g commute with proj, so every axiom passes to the image, Q is a
    # hyperideal, and every hyperideal is a p[I], I ⊇ Q, derived on first
    # read (FINDINGS.md)
    if ring.validation.passed:
        out.validation = ValidationReport(True, [])
        out.memo["parent"] = (ring, q_members, proj)
    return out, Homomorphism(ring, out, proj)


def is_homomorphism(mapping, r1, r2):
    """Exhaustive check of the three homomorphism axioms; failures are
    reported, not raised."""
    out = []
    h = tuple(mapping)
    if len(h) != r1.size:
        raise ValueError("mapping must be total on the source carrier")
    if h[r1.one] != r2.one:
        out.append(Violation("hom-identity", f"h({r1.label(r1.one)})",
                             r2.label(r2.one), r2.label(h[r1.one])))
    if (r1.m, r1.n) == (r2.m, r2.n):
        for t in itertools.product(range(r1.size), repeat=r1.m):
            image = frozenset(h[x] for x in r1.f[t])
            direct = r2.f[tuple(h[x] for x in t)]
            if image != direct:
                out.append(Violation(
                    "hom-f", f"h(f({r1.tuple_label(t)}))",
                    r2.subset_label(direct), r2.subset_label(image)))
        for t in itertools.product(range(r1.size), repeat=r1.n):
            if h[r1.g[t]] != r2.g[tuple(h[x] for x in t)]:
                out.append(Violation(
                    "hom-g", f"h(g({r1.tuple_label(t)}))",
                    r2.label(r2.g[tuple(h[x] for x in t)]), r2.label(h[r1.g[t]])))
    else:
        out.append(Violation("hom-arity", f"({r1.m},{r1.n}) vs ({r2.m},{r2.n})",
                             "matching arities", "mismatch"))
    return ValidationReport(not out, out)


def preimage_ideal(h, p2):
    """Preimage of a target hyperideal; always a hyperideal of the source."""
    members = frozenset(x for x in h.source.carrier if h(x) in p2.members)
    return make_hyperideal(h.source, members, strict=False)


def image_ideal(h, p1):
    """Elementwise image of a source hyperideal under an epimorphism whose
    kernel the ideal contains."""
    if not h.surjective:
        raise NotSurjectiveError("image of a hyperideal needs an epimorphism")
    if not h.kernel <= p1.members:
        raise KernelNotContainedError(
            f"kernel {h.source.subset_label(h.kernel)} not inside {p1.render()}")
    members = frozenset(map(h.mapping.__getitem__, p1.members))
    return make_hyperideal(h.target, members, strict=False)


# -- subhyperrings ------------------------------------------------------------

def is_subhyperring(ring, members):
    """Whether the subset holds 0 and is closed under f, inverses and g."""
    members = frozenset(members)
    order = sorted(members)
    return (ring.zero in members
            and all(ring.f[t] <= members for t in itertools.product(order, repeat=ring.m))
            and all(ring.inverses(x) <= members for x in order)
            and all(ring.g[t] in members for t in itertools.product(order, repeat=ring.n)))


def _subring_closure(ring, seed, base=frozenset(), limit=math.inf):
    return worklist_closure(ring, seed, False, base, limit)


def scalar_identity_in(ring, members):
    """The element of the subset acting as scalar identity on it, if any."""
    n = ring.n
    for e in sorted(members):
        if all(ring.g[(e,) * (n - 1) + (x,)] == x for x in members):
            return e
    return None


def subhyperring_table(ring, members):
    """Extract a subhyperring as a standalone table.

    Returns None when the subset has no scalar identity of its own, since
    the radical machinery needs one.
    """
    members = frozenset(members)
    if not is_subhyperring(ring, members):
        return None
    e = scalar_identity_in(ring, members)
    if e is None:
        return None
    order = sorted(members)
    new_index = {x: i for i, x in enumerate(order)}
    f = {}
    for t in itertools.product(order, repeat=ring.m):
        f[tuple(new_index[x] for x in t)] = frozenset(new_index[y] for y in ring.f[t])
    g = {}
    for t in itertools.product(order, repeat=ring.n):
        g[tuple(new_index[x] for x in t)] = new_index[ring.g[t]]
    out = HyperringTable._built(
        name=f"{ring.name}|{ring.subset_label(members)}", m=ring.m, n=ring.n,
        labels=[ring.labels[x] for x in order],
        zero=new_index[ring.zero], one=new_index[e], f=f, g=g)
    return out
