"""Mechanical instance checking of the classification theorems over a corpus.

Each registered checker quantifies a theorem's hypothesis over everything
available in the given structures (hyperideals, elements, bounded families,
products of two or three structures, quotient projections,
subhyperrings), each structure counted once.  A checker
is a generator: for every instance that satisfies the hypothesis it yields
`(ring, failures)`, where failures lists the violations of the conclusion
as detail strings, empty when the conclusion holds, and is rendered only
on failure (`_unless`).  One driver, `_run`, turns the yields into a
`TheoremReport`: one instance per yield, each failure prefixed with the
ring's name.  A report is vacuous when nothing satisfied the hypothesis;
vacuity is reported, never hidden.

The five product checkers (Thm 2.3, Cor 2.4, Thm 3.9, Thm 4.15, Cor
4.16) read one pool, `_Harness.product_ideals`: each product hyperideal
with its factor hyperideals, straight from the product's memoised
`factor_ideals`, I1 outer and I2 inner, so none is split or closed again.

Desk-scale bounds: products are capped at 36 elements (triples at
27), quotient-based monomorphisms at source size 8, and subhyperring
instances at 12 elements, mirroring the size of the built-in corpus.  The
subhyperring bound limits the lattice search too: no set above it is
built, and each structure's bounded pool is memoised with its tables.
So are Thm 3.7's n-tuples of hyperideals, with the masks of their
g-products, squares and drops: the memos hold derived data of a table,
never a verdict or a report.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_

from .classify import (_IMPLICATIONS, _outcome, _record_entries, _squares,
                       classify, is_kn_absorbing_primary,
                       is_kn_absorbing_q_primary, is_q_primary, is_sq_primary,
                       is_weakly_prime, is_weakly_primary, is_wsq_primary)

from .construct import (Homomorphism, _subring_closure, direct_product,
                        image_ideal, preimage_ideal, quotient,
                        subhyperring_table)
from .core import g_product, memoised
from .ideals import (closed_sets, enumerate_hyperideals, factor_ideals,
                     generated_by, hyperideal_product, make_hyperideal, mask_of,
                     proper_hyperideals, quotient_sets, radical_by_primes,
                     radical_by_powers)

# a cap in elements at every arity: a product of passing factors skips the
# axiom scan, so run_all([G^(3,3)]) builds its 36-element product in ~3 s
MAX_PAIR_PRODUCT = 36
MAX_TRIPLE_PRODUCT = 27
MAX_MONO_SOURCE = 8
MAX_SUBRING = 12


@dataclass
class TheoremReport:
    theorem_id: str
    title: str
    scope: str
    instances: int = 0
    failures: list = field(default_factory=list)

    @property
    def status(self):
        if self.failures:
            return "fail"
        return "pass" if self.instances else "vacuous"

    def render(self):
        line = f"{self.theorem_id}: {self.status} ({self.instances} instances) - {self.title}"
        lines = [line]
        lines.extend(f"  counterexample: {f}" for f in self.failures)
        return "\n".join(lines)


class StructureRejectedError(ValueError):
    """A structure failing axiom validation was offered to the harness."""


def _admit(structures):
    """The structures, each table once (tables hash by identity)."""
    out = list(dict.fromkeys(structures))
    for ring in out:
        if not ring.validation.passed and not ring.validation_waived:
            raise StructureRejectedError(
                f"{ring.name} fails axiom validation "
                f"({len(ring.validation.violations)} violations); theorems "
                f"run only on validated structures or waived corpus fixtures")
    return out


class _Harness:
    def __init__(self, structures, k=2):
        self.structures = _admit(structures)
        self.k = k

    # -- shared pools, built on first use ---------------------------------

    @cached_property
    def ideals(self):
        """(ring, P) for every proper hyperideal P of every structure."""
        return [(ring, p) for ring in self.structures
                for p in proper_hyperideals(ring)]

    def product_ideals(self, t):
        """(product, factor hyperideals, product hyperideal) for the
        products of t = 2 or 3 structures of one arity within the cap,
        factors taken with repetition in structure order, and every
        product hyperideal with a proper factor, I1 outer and I2 inner."""
        # theorem hypotheses presuppose a nonzero scalar identity and the
        # full axiom set, so the trivial structure and known-deviant corpus
        # members stay out of the product construction pool
        pool = [r for r in self.structures if r.size > 1 and r.validation.passed]
        cap = MAX_PAIR_PRODUCT if t == 2 else MAX_TRIPLE_PRODUCT
        for combo in itertools.combinations_with_replacement(pool, t):
            if (len({(r.m, r.n) for r in combo}) != 1
                    or math.prod(r.size for r in combo) > cap):
                continue
            # a triple is (R1 x R2) x R3: each I12 is read back as I1, I2
            split = {} if t == 2 else {
                p: (p1, p2) for p1, p2, p in factor_ideals(direct_product(*combo[:2]))}
            rp = reduce(direct_product, combo)
            for p1, p2, p in factor_ideals(rp):
                factors = (*split[p1], p2) if split else (p1, p2)
                if any(f.proper for f in factors):
                    yield rp, factors, p

    def quotient_ideals(self):
        """(ring, Q, quotient table, projection, P) for every pair of
        proper hyperideals Q inside P."""
        for ring in self.structures:
            propers = proper_hyperideals(ring)
            for q in propers:
                table, proj = quotient(ring, q)
                for p in propers:
                    if q.members <= p.members:
                        yield ring, q, table, proj, p

    def scope_name(self):
        return ",".join(r.name for r in self.structures)


def _unless(ok, detail):
    """An instance's failures: none when ok, else the rendered detail."""
    return [] if ok else [detail()]


def _intersection(family):
    return reduce(and_, (p.members for p in family))


# -- section 2: q-primary and absorbing q-primary ---------------------------

def _one_proper(factors, predicate):
    """Whether exactly one factor hyperideal is proper, and it satisfies
    the predicate."""
    propers = [p for p in factors if p.proper]
    return len(propers) == 1 and predicate(propers[0])


def _check_2_3(h):
    for rp, factors, p in h.product_ideals(2):
        lhs = is_q_primary(p)
        rhs = _one_proper(factors, is_q_primary)
        yield rp, _unless(lhs == rhs, lambda: (
            f"ideal {p.render()}: q_primary={lhs} but product form={rhs}"))


def _check_2_4(h):
    for rp, factors, p in h.product_ideals(3):
        lhs = is_q_primary(p)
        rhs = _one_proper(factors, is_q_primary)
        yield rp, _unless(lhs == rhs, lambda: (
            f"ideal {p.render()}: q_primary={lhs} but t-fold form={rhs}"))


def _check_2_6(h):
    k = h.k
    for ring, p in h.ideals:
        if is_q_primary(p):
            yield ring, _unless(is_kn_absorbing_q_primary(p, k), lambda: (
                f"{p.render()} q-primary but not ({k},n)-absorbing q-primary"))
        if is_kn_absorbing_primary(p, k):
            yield ring, _unless(is_kn_absorbing_q_primary(p, k), lambda: (
                f"{p.render()} ({k},n)-absorbing primary but not "
                f"({k},n)-absorbing q-primary"))


def _check_2_7(h):
    k = h.k
    for ring in h.structures:
        by_radical = {}
        for p in proper_hyperideals(ring):
            by_radical.setdefault(radical_by_primes(ring, p), []).append(p)
        for rad, ideals in sorted(by_radical.items(),
                                  key=lambda kv: tuple(sorted(kv[0]))):
            if len(rad) == ring.size or not _outcome(ring, rad, "absorbing", k)[0]:
                continue
            for size in (2, 3):
                for family in itertools.combinations(ideals, size):
                    got = radical_by_primes(ring, _intersection(family))
                    ok = got == rad and _outcome(ring, got, "absorbing", k)[0]
                    yield ring, _unless(ok, lambda: (
                        f"intersection of {[p.render() for p in family]} "
                        f"has radical {ring.subset_label(got)}, not "
                        f"{ring.subset_label(rad)}-absorbing-q-primary"))


def _check_2_8(h):
    # the predicate raises when its radical and tuple characterizations differ
    for ring, p in h.ideals:
        if len(radical_by_primes(ring, p)) < ring.size:
            is_kn_absorbing_q_primary(p, h.k)
            yield ring, []


def _check_2_9(h):
    k = h.k
    for ring, p in h.ideals:
        if not is_kn_absorbing_q_primary(p, k):
            continue
        rad = radical_by_primes(ring, p)
        variants = ((f"u>n variant (u={ring.n + 1})", ring.n + 1),
                    (f"u>k variant (u={k + 1})", k + 1))
        yield ring, [f"{p.render()} ({k},n)-absorbing q-primary but not "
                     f"({u},n)-absorbing q-primary [{tag}]"
                     for tag, u in variants
                     if not _outcome(ring, rad, "absorbing", u)[0]]


# -- section 3: sq-primary ---------------------------------------------------

def _check_3_3(h):
    # the paper's claim, kept by every n = 2 structure checked.  It is
    # refuted at n = 3: on G^(2,3) and G^(3,3), {0} and {0,6} are
    # sq-primary but not q-primary, as the omega(d) reading of ROADMAP.md
    # open item 1(a) predicts for d = 12 and d = 6 in Z_12
    for ring, p in h.ideals:
        if is_sq_primary(p):
            yield ring, _unless(is_q_primary(p), lambda: (
                f"{p.render()} sq-primary but not q-primary"))


def _check_3_4(h):
    for ring, p in h.ideals:
        rad = radical_by_primes(ring, p)
        square = hyperideal_product(ring, [rad, rad])
        if square.ideal.members <= p.members and is_q_primary(p):
            yield ring, _unless(is_sq_primary(p), lambda: (
                f"{p.render()} q-primary with squared radical inside "
                f"it but not sq-primary"))


def _check_3_5(h):
    for ring in h.structures:
        principal = (generated_by(ring, x) for x in ring.carrier)
        if all(gen.raw_is_ideal and gen.ideal.proper and is_sq_primary(gen.ideal)
               for gen in principal):
            yield ring, [f"all principal ideals sq-primary but {p.render()} is not"
                         for p in proper_hyperideals(ring) if not is_sq_primary(p)]


@memoised("ideal_tuples")
def _ideal_tuples(ring):
    """Thm 3.7's data on each n-tuple of hyperideals, in product order:
    (family, the mask of its g-product, for each position i the mask of
    the i-th ideal's squares, and for each i the mask of the product with
    the i-th ideal dropped, the identity in its place).  A drop mask is
    built once for its position and remaining ideals; on a certified
    product every mask is packed from the factors'."""
    if "factors" in ring.memo:
        return _product_ideal_tuples(ring)
    ideals = enumerate_hyperideals(ring)
    members = [sorted(p.members) for p in ideals]
    squares = _squares(ring)
    square_masks = [mask_of({squares[x] for x in m}) for m in members]
    g, one, n = ring.g, ring.one, ring.n

    def over(idx):
        return itertools.product(*[members[j] for j in idx])

    drops = {(i, rest): mask_of({g[t[:i] + (one,) + t[i:]] for t in over(rest)})
             for i in range(n)
             for rest in itertools.product(range(len(ideals)), repeat=n - 1)}
    return [(tuple(ideals[j] for j in idx),
             mask_of({g[t] for t in over(idx)}),
             tuple(square_masks[j] for j in idx),
             tuple(drops[i, idx[:i] + idx[i + 1:]] for i in range(n)))
            for idx in itertools.product(range(len(ideals)), repeat=n)]


def _product_ideal_tuples(ring):
    """`_ideal_tuples` of a certified product: g, the squares and the
    identity are componentwise, so each set is the S1 x S2 of the
    factors' sets, and in `product_pack`'s layout its mask holds a copy of
    S2's mask in the |R2|-bit block of each a in S1."""
    r1, r2 = ring.memo["factors"]
    width = r2.size
    rows = [{tuple(p.members for p in row[0]): row[1:] for row in _ideal_tuples(r)}
            for r in (r1, r2)]
    parts = {p.members: (p1.members, p2.members) for p1, p2, p in factor_ideals(ring)}
    ideals = enumerate_hyperideals(ring)
    first, second = zip(*(parts[p.members] for p in ideals))
    blocks = {}

    def pack(mask1, mask2):
        if mask1 not in blocks:
            blocks[mask1] = sum(1 << a * width for a in range(r1.size) if mask1 >> a & 1)
        return blocks[mask1] * mask2

    out = []
    for idx in itertools.product(range(len(ideals)), repeat=ring.n):
        prod1, squares1, drops1 = rows[0][tuple(map(first.__getitem__, idx))]
        prod2, squares2, drops2 = rows[1][tuple(map(second.__getitem__, idx))]
        out.append((tuple(ideals[j] for j in idx), pack(prod1, prod2),
                    tuple(map(pack, squares1, squares2)),
                    tuple(map(pack, drops1, drops2))))
    return out


def _check_3_7(h):
    # the conclusion at a tuple: for some i, the squares of the i-th ideal
    # lie in P, or the product with the i-th ideal dropped lies in rad P
    for ring in h.structures:
        sq_ideals = [p for p in proper_hyperideals(ring) if is_sq_primary(p)]
        if not sq_ideals:
            continue
        tuples = _ideal_tuples(ring)
        for p in sq_ideals:
            outside = ~mask_of(p.members)
            beyond = ~mask_of(radical_by_primes(ring, p))
            for family, prod, squares, drops in tuples:
                if prod & outside:
                    continue
                ok = any(not sq & outside or not drop & beyond
                         for sq, drop in zip(squares, drops))
                yield ring, _unless(ok, lambda: (
                    f"sq-primary {p.render()} with ideal tuple "
                    f"{[i.render() for i in family]} violating the conclusion"))


def _check_3_8(h):
    for ring, p in h.ideals:
        if not is_sq_primary(p):
            continue
        for r in ring.carrier:
            if r in p.members:
                continue
            square = g_product(ring, (r, r))
            if generated_by(ring, r).raw != generated_by(ring, square).raw:
                continue
            p_r = make_hyperideal(ring, quotient_sets(ring, p, r).p_r, strict=False)
            yield ring, (
                _unless(p_r.valid, lambda: (
                    f"P_r of {p.render()} at r={ring.label(r)} "
                    f"is not a hyperideal"))
                or _unless(is_sq_primary(p_r), lambda: (
                    f"P_r={p_r.render()} of sq-primary {p.render()} at "
                    f"r={ring.label(r)} is not sq-primary")))


def _check_3_9(h):
    # the paper's claim: I1 x I2 is sq-primary exactly when one factor is
    # sq-primary and the other is full.  It is refuted at n = 3: on the
    # squares of G^(2,3) and G^(3,3), {0,4} x {0,4} and eight more products
    # of proper factors are sq-primary (ROADMAP.md open item 1(b), open)
    for rp, (p1, p2), pid in h.product_ideals(2):
        lhs = is_sq_primary(pid)
        rhs = _one_proper((p1, p2), is_sq_primary)
        yield rp, _unless(lhs == rhs, lambda: (
            f"{p1.render()} x {p2.render()}: sq={lhs} but "
            f"factor form={rhs}"))


# -- section 4: wsq-primary ---------------------------------------------------

def _wsq_not_sq(ring):
    return [p for p in proper_hyperideals(ring)
            if is_wsq_primary(p) and not is_sq_primary(p)]


def _check_4_4(h):
    for ring in h.structures:
        zero_ideal = frozenset({ring.zero})
        for p in _wsq_not_sq(ring):
            square = hyperideal_product(ring, [p, p])
            yield ring, _unless(square.ideal.members == zero_ideal, lambda: (
                f"wsq-not-sq {p.render()} has square "
                f"{ring.subset_label(square.ideal.members)} != <0>"))


def _check_4_5(h):
    for ring in h.structures:
        rad_zero = radical_by_primes(ring, frozenset({ring.zero}))
        for p in _wsq_not_sq(ring):
            yield ring, _unless(radical_by_primes(ring, p) == rad_zero, lambda: (
                f"wsq-not-sq {p.render()} has radical != radical(<0>)"))


def _check_4_6(h):
    for ring in h.structures:
        pool = _wsq_not_sq(ring)
        for size in (2, 3):
            for family in itertools.combinations(pool, size):
                inter = make_hyperideal(ring, _intersection(family))
                yield ring, _unless(is_wsq_primary(inter), lambda: (
                    f"intersection of {[p.render() for p in family]} "
                    f"not wsq-primary"))


def _check_4_7(h):
    for ring, p in h.ideals:
        if not is_weakly_primary(p):
            continue
        for q in proper_hyperideals(ring):
            if not p.members <= q.members:
                continue
            prod = hyperideal_product(ring, [p, q])
            yield ring, _unless(is_wsq_primary(prod.ideal), lambda: (
                f"g({p.render()},{q.render()},1...) = "
                f"{prod.ideal.render()} not wsq-primary"))


def _check_4_8(h):
    for ring, p in h.ideals:
        if is_weakly_primary(p):
            prod = hyperideal_product(ring, [p, p])
            yield ring, _unless(is_wsq_primary(prod.ideal), lambda: (
                f"square of weakly primary {p.render()} not wsq-primary"))


def _trichotomy(ring, p, rad, r):
    """Thm 4.9's alternative at r: <r> inside P_r, or P_r inside rad P or
    inside A_r."""
    pair = quotient_sets(ring, p, r)
    return (generated_by(ring, r).raw <= pair.p_r or pair.p_r <= rad
            or pair.p_r <= pair.a_r)


def _check_4_9(h):
    # the paper's claim: P is wsq-primary exactly when the trichotomy holds
    # at every r.  It is refuted at n = 3: on G^(2,3) and G^(3,3), {0,6} is
    # wsq-primary but the trichotomy fails at r = 2 (ROADMAP.md open item
    # 1(b), open)
    for ring, p in h.ideals:
        lhs = is_wsq_primary(p)
        rad = radical_by_primes(ring, p)
        bad_r = next((r for r in ring.carrier
                      if not _trichotomy(ring, p, rad, r)), None)
        rhs = bad_r is None
        yield ring, _unless(lhs == rhs, lambda: (
            f"{p.render()}: wsq={lhs} but P_r trichotomy={rhs}"
            + (f" (r={ring.label(bad_r)})" if bad_r is not None else "")))


def _check_4_10(h):
    for ring in h.structures:
        zero_ideal = frozenset({ring.zero})
        if radical_by_powers(ring, zero_ideal) != zero_ideal:
            continue
        for p in proper_hyperideals(ring):
            if not is_wsq_primary(p):
                continue
            rad = radical_by_primes(ring, p)
            yield ring, (
                _unless(len(rad) < ring.size, lambda: (
                    f"radical of wsq {p.render()} is improper"))
                or _unless(is_weakly_prime(make_hyperideal(ring, rad)), lambda: (
                    f"radical {ring.subset_label(rad)} of wsq {p.render()} "
                    f"not weakly prime")))


def _monomorphisms(h):
    """(source, target, hom) monomorphism pool: identities plus the
    relabelling isomorphism onto the quotient by the zero ideal."""
    out = []
    for ring in h.structures:
        out.append((ring, ring, Homomorphism(ring, ring, tuple(ring.carrier))))
        if 1 < ring.size <= MAX_MONO_SOURCE:
            table, proj = quotient(ring, frozenset({ring.zero}))
            out.append((ring, table, proj))
    return out


def _check_4_11(h):
    for source, target, hom in _monomorphisms(h):
        if not hom.injective:
            continue
        for p2 in proper_hyperideals(target):
            if not is_wsq_primary(p2):
                continue
            pre = preimage_ideal(hom, p2)
            ok = pre.valid and pre.proper and is_wsq_primary(pre)
            yield source, _unless(ok, lambda: (
                f"preimage {pre.render()} of wsq {p2.render()} "
                f"not wsq-primary"))
    for ring, qid, table, proj, p1 in h.quotient_ideals():
        if not is_wsq_primary(p1):
            continue
        img = image_ideal(proj, p1)
        ok = img.valid and img.proper and is_wsq_primary(img)
        yield ring, _unless(ok, lambda: (
            f"image of wsq {p1.render()} under projection onto "
            f"{table.name} not wsq-primary"))


def _check_4_12(h):
    for ring, qid, table, proj, p in h.quotient_ideals():
        img = image_ideal(proj, p)
        if is_wsq_primary(p):
            yield ring, _unless(img.proper and is_wsq_primary(img), lambda: (
                f"{p.render()}/{qid.render()} not wsq-primary "
                f"in {table.name}"))
        if is_wsq_primary(qid) and img.proper and is_wsq_primary(img):
            yield ring, _unless(is_wsq_primary(p), lambda: (
                f"{qid.render()} and {p.render()}/{qid.render()} "
                f"wsq-primary but {p.render()} is not"))


@memoised("subring_pool")
def _subring_pool(ring):
    """(members, table) for each subhyperring of at most MAX_SUBRING
    elements with a scalar identity of its own, in canonical order: the
    bounded lattice search (FINDINGS.md (vii)), whose tables keep their
    own memo from one run to the next."""
    out = []
    for s in closed_sets(ring, _subring_closure, MAX_SUBRING):
        table = subhyperring_table(ring, s)
        if table is not None:
            out.append((s, table))
    return out


def _check_4_13(h):
    for ring in h.structures:
        for members, sub in _subring_pool(ring):
            for p in proper_hyperideals(ring):
                if members <= p.members or not is_wsq_primary(p):
                    continue
                inter = frozenset(sorted(members & p.members))
                relabel = frozenset(sorted(members).index(x) for x in inter)
                ideal = make_hyperideal(sub, relabel, strict=False)
                yield ring, _unless(ideal.valid and is_wsq_primary(ideal), lambda: (
                    f"{ring.subset_label(members)} intersect {p.render()} not "
                    f"wsq-primary in the subhyperring"))


def _check_4_15(h):
    # one factor proper, the other full: P1 x R2, then R1 x P2, but only
    # the first orientation on a square
    for rp, (p1, p2), pid in h.product_ideals(2):
        if p1.proper == p2.proper or (p2.proper and p1.ring is p2.ring):
            continue
        proper = p1 if p1.proper else p2
        wsq = is_wsq_primary(pid)
        sq = is_sq_primary(pid)
        factor_sq = is_sq_primary(proper)
        yield rp, _unless(wsq == sq == factor_sq, lambda: (
            f"{proper.render()} x full: wsq={wsq} sq={sq} "
            f"factor sq={factor_sq}"))


def _check_4_16(h):
    for rp, (p1, p2), pid in h.product_ideals(2):
        if not (p1.proper and p2.proper) or pid.members == {rp.zero}:
            continue
        wsq = is_wsq_primary(pid)
        sq = is_sq_primary(pid)
        # the paper's claim: with both factors proper the product
        # is neither wsq- nor sq-primary.  It is refuted at n = 3:
        # on G^(2,3), {0,4} x {0,3,6} is sq-primary (ROADMAP.md
        # open item 1, the n >= 3 sq/wsq findings)
        yield rp, _unless(not (wsq or sq), lambda: (
            f"{p1.render()} x {p2.render()} != <0> with both "
            f"factors proper but wsq={wsq} sq={sq}"))


_REGISTRY = [
    ("Thm 2.3", "product hyperideal is q-primary iff one factor is q-primary and the other is full", _check_2_3),
    ("Cor 2.4", "t-fold product form of q-primary hyperideals (via associated binary products)", _check_2_4),
    ("Thm 2.6", "q-primary implies (2,n)-absorbing q-primary; (k,n)-absorbing primary implies (k,n)-absorbing q-primary", _check_2_6),
    ("Thm 2.7", "intersections of families sharing a (k,n)-absorbing radical stay (k,n)-absorbing q-primary", _check_2_7),
    ("Thm 2.8", "radical characterization of (k,n)-absorbing q-primary matches the tuple characterization", _check_2_8),
    ("Thm 2.9", "(k,n)-absorbing q-primary implies (u,n)-absorbing q-primary (both u-readings)", _check_2_9),
    ("Thm 3.3", "sq-primary implies q-primary", _check_3_3),
    ("Thm 3.4", "q-primary with squared radical inside the ideal implies sq-primary", _check_3_4),
    ("Thm 3.5", "all principal ideals sq-primary forces every proper hyperideal sq-primary", _check_3_5),
    ("Thm 3.7", "sq-primary pushes the square-or-radical alternative to hyperideal tuples", _check_3_7),
    ("Thm 3.8", "P_r of an sq-primary ideal is sq-primary when <r> = <r squared>", _check_3_8),
    ("Thm 3.9", "product hyperideal is sq-primary iff one factor is sq-primary and the other is full", _check_3_9),
    ("Thm 4.4", "wsq-primary but not sq-primary forces the squared ideal to be <0>", _check_4_4),
    ("Cor 4.5", "wsq-primary but not sq-primary forces radical(P) = radical(<0>)", _check_4_5),
    ("Thm 4.6", "intersections of wsq-not-sq families are wsq-primary", _check_4_6),
    ("Thm 4.7", "g(P,Q,1...) of a weakly primary P inside Q is wsq-primary", _check_4_7),
    ("Cor 4.8", "the square of a weakly primary hyperideal is wsq-primary", _check_4_8),
    ("Thm 4.9", "wsq-primary iff the <r>/P_r/A_r trichotomy holds for every r", _check_4_9),
    ("Thm 4.10", "without nonzero nilpotents, radicals of wsq-primary hyperideals are weakly prime", _check_4_10),
    ("Thm 4.11", "wsq-primary transfers along monomorphism preimages and epimorphism images", _check_4_11),
    ("Cor 4.12", "wsq-primary passes to and lifts from quotients", _check_4_12),
    ("Thm 4.13", "wsq-primary restricts to subhyperrings not containing the ideal", _check_4_13),
    ("Thm 4.15", "P1 x R2: wsq-primary, sq-primary and sq-primary of the factor coincide", _check_4_15),
    ("Cor 4.16", "nonzero products of proper ideals on both sides are neither wsq- nor sq-primary", _check_4_16),
]

THEOREM_IDS = [tid for tid, _, _ in _REGISTRY]


def _run(h, theorem_id, title, checker):
    """The report of one checker: one instance per yield, each failure
    prefixed with the name of the ring it was found in."""
    report = TheoremReport(theorem_id, title, h.scope_name())
    for ring, failures in checker(h):
        report.instances += 1
        if failures:
            report.failures.extend(f"{ring.name}: {d}" for d in failures)
    return report


def run_theorem(theorem_id, structures, k=2):
    for entry in _REGISTRY:
        if entry[0] == theorem_id:
            return _run(_Harness(structures, k), *entry)
    raise KeyError(f"unknown theorem id {theorem_id!r}; "
                   f"registered: {', '.join(THEOREM_IDS)}")


def run_all(structures, k=2):
    h = _Harness(structures, k)
    return [_run(h, *entry) for entry in _REGISTRY]


def summary_line(reports):
    count = {"pass": 0, "vacuous": 0, "fail": 0}
    for r in reports:
        count[r.status] += 1
    return (f"theorems: {len(reports)}; pass: {count['pass']}; "
            f"vacuous: {count['vacuous']}; fail: {count['fail']}")


# -- implication matrix -------------------------------------------------------

KNOWN_IMPLICATIONS = [(a, b) for a, b, _ in _IMPLICATIONS]


@dataclass
class ImplicationMatrix:
    predicates: tuple
    entries: dict

    def holds(self, a, b):
        return self.entries[(a, b)] is None

    def render(self):
        lines = []
        for a, b in itertools.permutations(self.predicates, 2):
            cex = self.entries[(a, b)]
            lines.append(f"{a} => {b}: " + ("holds" if cex is None
                                            else f"fails ({cex})"))
        return "\n".join(lines) + "\n"


def implication_matrix(structures, k=2):
    """Empirical implication map over every proper hyperideal of the
    given structures; an entry is None when no counterexample exists."""
    names = [label for label, _, _ in _record_entries(k)]
    records = []
    for ring in structures:
        for p in proper_hyperideals(ring):
            records.append((ring, p, classify(p, k).outcomes))
    entries = {}
    for a, b in itertools.permutations(names, 2):
        cex = None
        for ring, p, outcomes in records:
            if outcomes[a] and not outcomes[b]:
                cex = f"{ring.name}: {p.render()}"
                break
        entries[(a, b)] = cex
    return ImplicationMatrix(tuple(names), entries)
