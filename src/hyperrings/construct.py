"""Constructions: direct products, quotients, homomorphisms and transfers.

Quotient classes are keyed by their full member sets rather than by
representatives, so well-definedness of the induced operations is an
explicit, exhaustively checked assertion instead of an assumption.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .core import (ArityError, HyperringTable, ValidationReport, Violation,
                   f_extend, validate_krasner)
from .ideals import Hyperideal, closed_sets, make_hyperideal


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

    @property
    def surjective(self):
        return len(set(self.mapping)) == self.target.size

    @property
    def kernel(self):
        z = self.target.zero
        return frozenset(x for x, y in enumerate(self.mapping) if y == z)


@lru_cache(maxsize=None)
def direct_product(r1, r2):
    """Componentwise product hyperring on the cartesian carrier."""
    if (r1.m, r1.n) != (r2.m, r2.n):
        raise ArityError(f"arity mismatch: ({r1.m},{r1.n}) vs ({r2.m},{r2.n})")
    m, n = r1.m, r1.n
    s2 = r2.size
    labels = [f"{a}_{b}" for a in r1.labels for b in r2.labels]

    def pack(i, j):
        return i * s2 + j

    f = {}
    for t1 in itertools.product(range(r1.size), repeat=m):
        v1 = r1.f[t1]
        for t2 in itertools.product(range(s2), repeat=m):
            v2 = r2.f[t2]
            key = tuple(pack(a, b) for a, b in zip(t1, t2))
            f[key] = frozenset(pack(a, b) for a in v1 for b in v2)
    g = {}
    for t1 in itertools.product(range(r1.size), repeat=n):
        v1 = r1.g[t1]
        for t2 in itertools.product(range(s2), repeat=n):
            key = tuple(pack(a, b) for a, b in zip(t1, t2))
            g[key] = pack(v1, r2.g[t2])

    ring = HyperringTable(
        name=f"{r1.name}x{r2.name}", m=m, n=n, labels=labels,
        zero=pack(r1.zero, r2.zero), one=pack(r1.one, r2.one), f=f, g=g,
        commutative_f=r1.commutative_f and r2.commutative_f,
        commutative_g=r1.commutative_g and r2.commutative_g)
    ring.validation = validate_krasner(ring)
    return ring


def product_pack(r2, i, j):
    return i * r2.size + j


def product_ideal(ring, r1, r2, m1, m2, strict=True):
    """The ideal I1 x I2 inside a direct product built from r1, r2."""
    members = frozenset(product_pack(r2, a, b) for a in m1 for b in m2)
    return make_hyperideal(ring, members, strict=strict)


def quotient(ring, ideal):
    """Quotient by a proper hyperideal via the class map r -> f(r, Q, 0^(m-2)).

    The classes must partition the carrier and the induced operations must
    be independent of representatives; both are verified exhaustively and
    violations raise IllDefinedQuotientError with a witness.  Returns the
    quotient table and the projection homomorphism.
    """
    return _quotient_cached(ring, ideal.members if isinstance(ideal, Hyperideal)
                            else frozenset(ideal))


@lru_cache(maxsize=None)
def _quotient_cached(ring, q_members):
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
    if covered != set(ring.carrier):
        raise IllDefinedQuotientError("classes do not cover the carrier")
    for r in ring.carrier:
        if r not in cls_of[r]:
            raise IllDefinedQuotientError(
                f"element {ring.label(r)} not in its own class")

    classes.sort(key=min)
    cls_index = {c: i for i, c in enumerate(classes)}
    proj = tuple(cls_index[cls_of[r]] for r in ring.carrier)
    labels = ["+".join(ring.labels[i] for i in sorted(c)) for c in classes]

    fq = {}
    for key in itertools.product(range(len(classes)), repeat=m):
        value = None
        for reps in itertools.product(*[sorted(classes[i]) for i in key]):
            got = frozenset(proj[t] for t in ring.f[reps])
            if value is None:
                value = got
            elif got != value:
                raise IllDefinedQuotientError(
                    f"induced f ill-defined at classes ({','.join(labels[i] for i in key)}): "
                    f"representatives ({ring.tuple_label(reps)}) give a different value")
        fq[key] = value
    gq = {}
    for key in itertools.product(range(len(classes)), repeat=n):
        value = None
        for reps in itertools.product(*[sorted(classes[i]) for i in key]):
            got = proj[ring.g[reps]]
            if value is None:
                value = got
            elif got != value:
                raise IllDefinedQuotientError(
                    f"induced g ill-defined at classes ({','.join(labels[i] for i in key)}): "
                    f"representatives ({ring.tuple_label(reps)}) give a different value")
        gq[key] = value

    out = HyperringTable(
        name=f"{ring.name}/{ring.subset_label(q_members)}", m=m, n=n,
        labels=labels, zero=proj[ring.zero], one=proj[ring.one], f=fq, g=gq,
        commutative_f=ring.commutative_f, commutative_g=ring.commutative_g)
    out.validation = validate_krasner(out)
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
    members = frozenset(h(x) for x in p1.members)
    return make_hyperideal(h.target, members, strict=False)


# -- subhyperrings and multiplicative subsets --------------------------------

def subhyperring_violations(ring, members):
    members = frozenset(members)
    out = []
    if not members:
        return ["empty subset"]
    if ring.zero not in members:
        out.append("zero missing")
        return out
    for t in itertools.product(sorted(members), repeat=ring.m):
        if not ring.f[t] <= members:
            out.append(f"not f-closed at ({ring.tuple_label(t)})")
            return out
    for x in sorted(members):
        if not ring.inverses(x) <= members:
            out.append(f"inverse of {ring.label(x)} missing")
            return out
    for t in itertools.product(sorted(members), repeat=ring.n):
        if ring.g[t] not in members:
            out.append(f"not g-closed at ({ring.tuple_label(t)})")
            return out
    return out


def is_subhyperring(ring, members):
    return not subhyperring_violations(ring, members)


def _subring_closure(ring, seed):
    members = set(seed)
    members.add(ring.zero)
    while True:
        added = set()
        for x in list(members):
            added |= ring.inverses(x) - members
        for t in itertools.product(sorted(members), repeat=ring.m):
            added |= ring.f[t] - members
        for t in itertools.product(sorted(members), repeat=ring.n):
            v = ring.g[t]
            if v not in members:
                added.add(v)
        if not added:
            return frozenset(members)
        members |= added


@lru_cache(maxsize=None)
def enumerate_subhyperrings(ring):
    """All subhyperrings: the closed sets of the subhyperring closure."""
    return closed_sets(ring, _subring_closure)


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
    out = HyperringTable(
        name=f"{ring.name}|{ring.subset_label(members)}", m=ring.m, n=ring.n,
        labels=[ring.labels[x] for x in order],
        zero=new_index[ring.zero], one=new_index[e], f=f, g=g,
        commutative_f=ring.commutative_f, commutative_g=ring.commutative_g)
    out.validation = validate_krasner(out)
    return out


def is_multiplicative_subset(ring, members):
    members = frozenset(members)
    if not members:
        return False
    return all(ring.g[t] in members
               for t in itertools.product(sorted(members), repeat=ring.n))
