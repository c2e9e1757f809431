"""Mechanical instance checking of the classification theorems over a corpus.

Each registered checker quantifies a theorem's hypothesis over everything
available in the given structures (hyperideals, elements, bounded families,
products built on demand, quotient projections, subhyperrings) and records
violations of the conclusion.  A report is vacuous when nothing satisfied
the hypothesis; vacuity is reported, never hidden.

Desk-scale bounds: on-demand products are capped at 36 elements (triples at
27), quotient-based monomorphisms at source size 8, and subhyperring
instances at 12 elements, mirroring the size of the built-in corpus.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .classify import (_kn_absorbing_cached, _kn_absorbing_q_primary_cached,
                       _squares, classify, is_kn_absorbing_primary,
                       is_kn_absorbing_q_primary, is_q_primary, is_sq_primary,
                       is_weakly_prime, is_weakly_primary, is_wsq_primary)

from .construct import (Homomorphism, direct_product,
                        enumerate_subhyperrings, image_ideal,
                        preimage_ideal, product_ideal, product_pack,
                        quotient, subhyperring_table)
from .core import g_product, validate_krasner
from .ideals import (Hyperideal, enumerate_hyperideals, hyperideal_product,
                     generated_by, make_hyperideal, proper_hyperideals,
                     quotient_sets, radical_by_primes, radical_by_powers)

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
    out = []
    for ring in structures:
        if ring.validation is None:
            ring.validation = validate_krasner(ring)
        if not ring.validation.passed and not ring.validation_waived:
            raise StructureRejectedError(
                f"{ring.name} fails axiom validation "
                f"({len(ring.validation.violations)} violations); theorems "
                f"run only on validated structures or waived corpus fixtures")
        out.append(ring)
    return out


class _Harness:
    def __init__(self, structures, k=2):
        self.structures = _admit(structures)
        self.k = k

    # -- shared pools -----------------------------------------------------

    def _product_worthy(self):
        # theorem hypotheses presuppose a nonzero scalar identity and the
        # full axiom set, so the trivial structure and known-deviant corpus
        # members stay out of the product construction pool
        return [r for r in self.structures
                if r.size > 1 and r.validation.passed]

    @property
    def pairs(self):
        """Unordered factor pairs with an on-demand product structure."""
        if not hasattr(self, "_pairs"):
            out = []
            seen = set()
            pool = self._product_worthy()
            for i, r1 in enumerate(pool):
                for r2 in pool[i:]:
                    if (r1.m, r1.n) != (r2.m, r2.n):
                        continue
                    if r1.size * r2.size > MAX_PAIR_PRODUCT:
                        continue
                    key = (id(r1), id(r2))
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append((r1, r2, direct_product(r1, r2)))
            self._pairs = out
        return self._pairs

    def quotients(self, ring):
        """(Q, quotient table, projection) for every proper hyperideal Q."""
        out = []
        for qid in proper_hyperideals(ring):
            table, proj = quotient(ring, qid)
            out.append((qid, table, proj))
        return out

    def subrings(self, ring):
        out = []
        for s in enumerate_subhyperrings(ring):
            if len(s) > MAX_SUBRING:
                continue
            table = subhyperring_table(ring, s)
            if table is not None:
                out.append((s, table))
        return out

    def scope_name(self):
        return ",".join(r.name for r in self.structures)


def _fail(report, ring, detail):
    report.failures.append(f"{ring.name}: {detail}")


# -- section 2: q-primary and absorbing q-primary ---------------------------

def _check_2_3(h, report):
    for r1, r2, rp in h.pairs:
        for p in proper_hyperideals(rp):
            report.instances += 1
            lhs = is_q_primary(p)
            rhs = _product_form_q(h, r1, r2, rp, p)
            if lhs != rhs:
                _fail(report, rp,
                      f"ideal {p.render()}: q_primary={lhs} but product form={rhs}")


def _split_product_ideal(r1, r2, rp, p):
    """Factor an ideal of a product; None when it is not a product set."""
    m1 = frozenset(e // r2.size for e in p.members)
    m2 = frozenset(e % r2.size for e in p.members)
    if len(m1) * len(m2) != len(p.members):
        return None
    if any(product_pack(r2, a, b) not in p.members for a in m1 for b in m2):
        return None
    return m1, m2


def _product_form_q(h, r1, r2, rp, p):
    split = _split_product_ideal(r1, r2, rp, p)
    if split is None:
        return False
    m1, m2 = split
    if len(m2) == r2.size and len(m1) < r1.size:
        return is_q_primary(make_hyperideal(r1, m1))
    if len(m1) == r1.size and len(m2) < r2.size:
        return is_q_primary(make_hyperideal(r2, m2))
    return False


def _check_2_4(h, report):
    triples = []
    for combo in itertools.combinations_with_replacement(h._product_worthy(), 3):
        r1, r2, r3 = combo
        if len({(r.m, r.n) for r in combo}) != 1:
            continue
        if r1.size * r2.size * r3.size > MAX_TRIPLE_PRODUCT:
            continue
        triples.append(combo)
    for r1, r2, r3 in triples:
        r12 = direct_product(r1, r2)
        rp = direct_product(r12, r3)
        for p in proper_hyperideals(rp):
            report.instances += 1
            lhs = is_q_primary(p)
            split = _split_product_ideal(r12, r3, rp, p)
            rhs = False
            if split is not None:
                m12, m3 = split
                split12 = _split_product_ideal(
                    r1, r2, r12, Hyperideal(r12, m12, True))
                if split12 is not None:
                    parts = [(r1, split12[0]), (r2, split12[1]), (r3, m3)]
                    propers = [(r, m) for r, m in parts if len(m) < r.size]
                    if len(propers) == 1:
                        r_u, m_u = propers[0]
                        rhs = is_q_primary(make_hyperideal(r_u, m_u))
            if lhs != rhs:
                _fail(report, rp,
                      f"ideal {p.render()}: q_primary={lhs} but t-fold form={rhs}")


def _check_2_6(h, report):
    k = h.k
    for ring in h.structures:
        for p in proper_hyperideals(ring):
            if is_q_primary(p):
                report.instances += 1
                if not is_kn_absorbing_q_primary(p, k):
                    _fail(report, ring,
                          f"{p.render()} q-primary but not ({k},n)-absorbing q-primary")
            if is_kn_absorbing_primary(p, k):
                report.instances += 1
                if not is_kn_absorbing_q_primary(p, k):
                    _fail(report, ring,
                          f"{p.render()} ({k},n)-absorbing primary but not "
                          f"({k},n)-absorbing q-primary")


def _check_2_7(h, report):
    k = h.k
    for ring in h.structures:
        by_radical = {}
        for p in proper_hyperideals(ring):
            by_radical.setdefault(radical_by_primes(ring, p), []).append(p)
        for rad, ideals in sorted(by_radical.items(),
                                  key=lambda kv: tuple(sorted(kv[0]))):
            if len(rad) == ring.size or not _kn_absorbing_cached(ring, rad, k)[0]:
                continue
            for size in (2, 3):
                for family in itertools.combinations(ideals, size):
                    report.instances += 1
                    inter = family[0].members
                    for p in family[1:]:
                        inter &= p.members
                    got = radical_by_primes(ring, inter)
                    if got != rad or not _kn_absorbing_cached(ring, got, k)[0]:
                        _fail(report, ring,
                              f"intersection of {[p.render() for p in family]} "
                              f"has radical {ring.subset_label(got)}, not "
                              f"{ring.subset_label(rad)}-absorbing-q-primary")


def _check_2_8(h, report):
    k = h.k
    for ring in h.structures:
        for p in proper_hyperideals(ring):
            both = _kn_absorbing_q_primary_cached(ring, p.members, k)
            if both is None:
                continue
            report.instances += 1
            (direct, _), (via, _) = both
            if direct != via:
                _fail(report, ring,
                      f"{p.render()}: radical characterization={direct} but "
                      f"tuple characterization={via}")


def _check_2_9(h, report):
    k = h.k
    for ring in h.structures:
        variants = {f"u>n variant (u={ring.n + 1})": ring.n + 1,
                    f"u>k variant (u={k + 1})": k + 1}
        for p in proper_hyperideals(ring):
            if not is_kn_absorbing_q_primary(p, k):
                continue
            report.instances += 1
            rad = radical_by_primes(ring, p)
            for tag, u in variants.items():
                if not _kn_absorbing_cached(ring, rad, u)[0]:
                    _fail(report, ring,
                          f"{p.render()} ({k},n)-absorbing q-primary but not "
                          f"({u},n)-absorbing q-primary [{tag}]")


# -- section 3: sq-primary ---------------------------------------------------

def _check_3_3(h, report):
    for ring in h.structures:
        for p in proper_hyperideals(ring):
            if is_sq_primary(p):
                report.instances += 1
                if not is_q_primary(p):
                    _fail(report, ring, f"{p.render()} sq-primary but not q-primary")


def _check_3_4(h, report):
    for ring in h.structures:
        for p in proper_hyperideals(ring):
            rad = radical_by_primes(ring, p)
            square = hyperideal_product(ring, [rad, rad])
            if square.ideal.members <= p.members and is_q_primary(p):
                report.instances += 1
                if not is_sq_primary(p):
                    _fail(report, ring,
                          f"{p.render()} q-primary with squared radical inside "
                          f"it but not sq-primary")


def _check_3_5(h, report):
    for ring in h.structures:
        hyp = True
        for x in ring.carrier:
            gen = generated_by(ring, x)
            ideal = gen.ideal if gen.raw_is_ideal else None
            if ideal is None or not ideal.proper or not is_sq_primary(ideal):
                hyp = False
                break
        if not hyp:
            continue
        report.instances += 1
        for p in proper_hyperideals(ring):
            if not is_sq_primary(p):
                _fail(report, ring,
                      f"all principal ideals sq-primary but {p.render()} is not")


def _check_3_7(h, report):
    for ring in h.structures:
        ideals = enumerate_hyperideals(ring)
        n = ring.n
        sq_ideals = [p for p in proper_hyperideals(ring) if is_sq_primary(p)]
        if not sq_ideals:
            continue
        squares = _squares(ring)
        families = []
        for family in itertools.product(ideals, repeat=n):
            prod = frozenset(
                ring.g[t] for t in itertools.product(*[sorted(i.members)
                                                       for i in family]))
            families.append((family, prod))
        for p in sq_ideals:
            rad = radical_by_primes(ring, p)
            for family, prod in families:
                if not prod <= p.members:
                    continue
                report.instances += 1
                ok = False
                for i in range(n):
                    if all(squares[x] in p.members for x in family[i].members):
                        ok = True
                        break
                    rest = [sorted(family[j].members) for j in range(n) if j != i]
                    dropped = frozenset(
                        ring.g[t[:i] + (ring.one,) + t[i:]]
                        for t in itertools.product(*rest))
                    if dropped <= rad:
                        ok = True
                        break
                if not ok:
                    _fail(report, ring,
                          f"sq-primary {p.render()} with ideal tuple "
                          f"{[i.render() for i in family]} violating the conclusion")


def _check_3_8(h, report):
    for ring in h.structures:
        for p in proper_hyperideals(ring):
            if not is_sq_primary(p):
                continue
            for r in ring.carrier:
                if r in p.members:
                    continue
                square = g_product(ring, (r, r))
                if generated_by(ring, r).raw != generated_by(ring, square).raw:
                    continue
                report.instances += 1
                pair = quotient_sets(ring, p, r)
                p_r = make_hyperideal(ring, pair.p_r, strict=False)
                if not p_r.valid:
                    _fail(report, ring,
                          f"P_r of {p.render()} at r={ring.label(r)} "
                          f"is not a hyperideal")
                elif not is_sq_primary(p_r):
                    _fail(report, ring,
                          f"P_r={p_r.render()} of sq-primary {p.render()} at "
                          f"r={ring.label(r)} is not sq-primary")


def _check_3_9(h, report):
    for r1, r2, rp in h.pairs:
        for p1 in enumerate_hyperideals(r1):
            for p2 in enumerate_hyperideals(r2):
                if not p1.proper and not p2.proper:
                    continue
                pid = product_ideal(rp, r1, r2, p1.members, p2.members)
                report.instances += 1
                lhs = is_sq_primary(pid)
                rhs = ((not p2.proper and p1.proper and is_sq_primary(p1))
                       or (not p1.proper and p2.proper and is_sq_primary(p2)))
                if lhs != rhs:
                    _fail(report, rp,
                          f"{p1.render()} x {p2.render()}: sq={lhs} but "
                          f"factor form={rhs}")


# -- section 4: wsq-primary ---------------------------------------------------

def _wsq_not_sq(h, ring):
    return [p for p in proper_hyperideals(ring)
            if is_wsq_primary(p) and not is_sq_primary(p)]


def _check_4_4(h, report):
    for ring in h.structures:
        zero_ideal = frozenset({ring.zero})
        for p in _wsq_not_sq(h, ring):
            report.instances += 1
            square = hyperideal_product(ring, [p, p])
            if square.ideal.members != zero_ideal:
                _fail(report, ring,
                      f"wsq-not-sq {p.render()} has square "
                      f"{ring.subset_label(square.ideal.members)} != <0>")


def _check_4_5(h, report):
    for ring in h.structures:
        rad_zero = radical_by_primes(ring, frozenset({ring.zero}))
        for p in _wsq_not_sq(h, ring):
            report.instances += 1
            if radical_by_primes(ring, p) != rad_zero:
                _fail(report, ring,
                      f"wsq-not-sq {p.render()} has radical != radical(<0>)")


def _check_4_6(h, report):
    for ring in h.structures:
        pool = _wsq_not_sq(h, ring)
        for size in (2, 3):
            for family in itertools.combinations(pool, size):
                report.instances += 1
                inter = family[0].members
                for p in family[1:]:
                    inter &= p.members
                if not is_wsq_primary(make_hyperideal(ring, inter)):
                    _fail(report, ring,
                          f"intersection of {[p.render() for p in family]} "
                          f"not wsq-primary")


def _check_4_7(h, report):
    for ring in h.structures:
        propers = proper_hyperideals(ring)
        for p in propers:
            if not is_weakly_primary(p):
                continue
            for q in propers:
                if not p.members <= q.members:
                    continue
                report.instances += 1
                prod = hyperideal_product(ring, [p, q])
                if not is_wsq_primary(prod.ideal):
                    _fail(report, ring,
                          f"g({p.render()},{q.render()},1...) = "
                          f"{prod.ideal.render()} not wsq-primary")


def _check_4_8(h, report):
    for ring in h.structures:
        for p in proper_hyperideals(ring):
            if not is_weakly_primary(p):
                continue
            report.instances += 1
            prod = hyperideal_product(ring, [p, p])
            if not is_wsq_primary(prod.ideal):
                _fail(report, ring,
                      f"square of weakly primary {p.render()} not wsq-primary")


def _check_4_9(h, report):
    for ring in h.structures:
        for p in proper_hyperideals(ring):
            report.instances += 1
            lhs = is_wsq_primary(p)
            rad = radical_by_primes(ring, p)
            rhs = True
            bad_r = None
            for r in ring.carrier:
                pair = quotient_sets(ring, p, r)
                gen = generated_by(ring, r).raw
                if gen <= pair.p_r or pair.p_r <= rad or pair.p_r <= pair.a_r:
                    continue
                rhs = False
                bad_r = r
                break
            if lhs != rhs:
                detail = (f" (r={ring.label(bad_r)})" if bad_r is not None else "")
                _fail(report, ring,
                      f"{p.render()}: wsq={lhs} but P_r trichotomy={rhs}{detail}")


def _check_4_10(h, report):
    for ring in h.structures:
        zero_ideal = frozenset({ring.zero})
        if radical_by_powers(ring, zero_ideal) != zero_ideal:
            continue
        for p in proper_hyperideals(ring):
            if not is_wsq_primary(p):
                continue
            report.instances += 1
            rad = radical_by_primes(ring, p)
            if len(rad) == ring.size:
                _fail(report, ring, f"radical of wsq {p.render()} is improper")
            elif not is_weakly_prime(make_hyperideal(ring, rad)):
                _fail(report, ring,
                      f"radical {ring.subset_label(rad)} of wsq {p.render()} "
                      f"not weakly prime")


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


def _check_4_11(h, report):
    for source, target, hom in _monomorphisms(h):
        if not hom.injective:
            continue
        for p2 in proper_hyperideals(target):
            if not is_wsq_primary(p2):
                continue
            report.instances += 1
            pre = preimage_ideal(hom, p2)
            if not pre.valid or not pre.proper or not is_wsq_primary(pre):
                _fail(report, source,
                      f"preimage {pre.render()} of wsq {p2.render()} "
                      f"not wsq-primary")
    for ring in h.structures:
        for qid, table, proj in h.quotients(ring):
            for p1 in proper_hyperideals(ring):
                if not qid.members <= p1.members:
                    continue
                if not is_wsq_primary(p1):
                    continue
                report.instances += 1
                img = image_ideal(proj, p1)
                if not img.valid or not img.proper or not is_wsq_primary(img):
                    _fail(report, ring,
                          f"image of wsq {p1.render()} under projection onto "
                          f"{table.name} not wsq-primary")


def _check_4_12(h, report):
    for ring in h.structures:
        for qid, table, proj in h.quotients(ring):
            for p in proper_hyperideals(ring):
                if not qid.members <= p.members:
                    continue
                img = image_ideal(proj, p)
                if is_wsq_primary(p):
                    report.instances += 1
                    if not (img.proper and is_wsq_primary(img)):
                        _fail(report, ring,
                              f"{p.render()}/{qid.render()} not wsq-primary "
                              f"in {table.name}")
                if is_wsq_primary(qid) and img.proper and is_wsq_primary(img):
                    report.instances += 1
                    if not is_wsq_primary(p):
                        _fail(report, ring,
                              f"{qid.render()} and {p.render()}/{qid.render()} "
                              f"wsq-primary but {p.render()} is not")


def _check_4_13(h, report):
    for ring in h.structures:
        for members, sub in h.subrings(ring):
            for p in proper_hyperideals(ring):
                if members <= p.members or not is_wsq_primary(p):
                    continue
                report.instances += 1
                inter = frozenset(sorted(members & p.members))
                relabel = frozenset(sorted(members).index(x) for x in inter)
                ideal = make_hyperideal(sub, relabel, strict=False)
                if not ideal.valid or not is_wsq_primary(ideal):
                    _fail(report, ring,
                          f"{ring.subset_label(members)} intersect {p.render()} not "
                          f"wsq-primary in the subhyperring")


def _check_4_15(h, report):
    for r1, r2, rp in h.pairs:
        for ring_a, ring_b, flip in ((r1, r2, False), (r2, r1, True)):
            if flip and ring_a is ring_b:
                continue
            for p1 in proper_hyperideals(ring_a):
                report.instances += 1
                if flip:
                    pid = product_ideal(rp, r1, r2, r1.full_set, p1.members)
                else:
                    pid = product_ideal(rp, r1, r2, p1.members, r2.full_set)
                wsq = is_wsq_primary(pid)
                sq = is_sq_primary(pid)
                factor_sq = is_sq_primary(p1)
                if not (wsq == sq == factor_sq):
                    _fail(report, rp,
                          f"{p1.render()} x full: wsq={wsq} sq={sq} "
                          f"factor sq={factor_sq}")


def _check_4_16(h, report):
    for r1, r2, rp in h.pairs:
        zero_pair = frozenset({rp.zero})
        for p1 in proper_hyperideals(r1):
            for p2 in proper_hyperideals(r2):
                pid = product_ideal(rp, r1, r2, p1.members, p2.members)
                if pid.members == zero_pair:
                    continue
                report.instances += 1
                wsq = is_wsq_primary(pid)
                sq = is_sq_primary(pid)
                # with both factors proper the product form is unsatisfiable
                if wsq or sq:
                    _fail(report, rp,
                          f"{p1.render()} x {p2.render()} != <0> with both "
                          f"factors proper but wsq={wsq} sq={sq}")


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


def run_theorem(theorem_id, structures, k=2):
    for tid, title, checker in _REGISTRY:
        if tid == theorem_id:
            h = _Harness(structures, k)
            report = TheoremReport(tid, title, h.scope_name())
            checker(h, report)
            return report
    raise KeyError(f"unknown theorem id {theorem_id!r}; "
                   f"registered: {', '.join(THEOREM_IDS)}")


def run_all(structures, k=2):
    h = _Harness(structures, k)
    reports = []
    for tid, title, checker in _REGISTRY:
        report = TheoremReport(tid, title, h.scope_name())
        checker(h, report)
        reports.append(report)
    return reports


def summary_line(reports):
    count = {"pass": 0, "vacuous": 0, "fail": 0}
    for r in reports:
        count[r.status] += 1
    return (f"theorems: {len(reports)}; pass: {count['pass']}; "
            f"vacuous: {count['vacuous']}; fail: {count['fail']}")


# -- implication matrix -------------------------------------------------------

KNOWN_IMPLICATIONS = [
    ("prime", "weakly_prime"),
    ("prime", "primary"),
    ("primary", "weakly_primary"),
    ("primary", "q_primary"),
    ("sq_primary", "q_primary"),
    ("sq_primary", "wsq_primary"),
    ("q_primary", "absorbing_q_primary_k2"),
    ("absorbing_primary_k2", "absorbing_q_primary_k2"),
]


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
    names = ["prime", "weakly_prime", "primary", "weakly_primary", "q_primary",
             "sq_primary", "wsq_primary"]
    for kk in range(2, k + 1):
        names += [f"absorbing_k{kk}", f"absorbing_primary_k{kk}",
                  f"absorbing_q_primary_k{kk}"]
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
