"""Hyperideal predicates: prime, primary, q-primary, absorbing variants,
sq-primary and wsq-primary, plus full classification records.

All predicates quantify exhaustively over tuples of carrier elements;
witnesses are the first violating tuple in lexicographic carrier order so
that golden outputs stay deterministic.  Predicates require a proper
hyperideal and raise ImproperIdealError otherwise.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .core import g_product
from .ideals import (Hyperideal, ImproperIdealError, _is_prime_set,
                     radical_by_primes)


class InternalInconsistencyError(RuntimeError):
    """Two characterizations that must agree disagreed: implementation bug."""


def _require_proper(ideal, k=1):
    if not ideal.proper:
        raise ImproperIdealError(
            f"{ideal.render()} is the whole of {ideal.ring.name}")
    if k < 1:
        raise ValueError("k must be positive")


def _squares(ring):
    return [g_product(ring, (x, x)) for x in ring.carrier]


def _drop(ring, t, i):
    """g of the tuple with position i replaced by the scalar identity."""
    return ring.g[t[:i] + (ring.one,) + t[i + 1:]]


# -- n-tuple predicates ----------------------------------------------------

def _weakly_prime_eval(ring, members):
    g, zero = ring.g, ring.zero
    for t in itertools.product(range(ring.size), repeat=ring.n):
        v = g[t]
        if v == zero or v not in members:
            continue
        if not any(x in members for x in t):
            return False, t
    return True, None


def _primary_eval(ring, members, rad):
    g, n = ring.g, ring.n
    for t in itertools.product(range(ring.size), repeat=n):
        if g[t] not in members:
            continue
        for i in range(n):
            if t[i] not in members and _drop(ring, t, i) not in rad:
                return False, t
    return True, None


def _weakly_primary_eval(ring, members, rad):
    g, n, zero = ring.g, ring.n, ring.zero
    for t in itertools.product(range(ring.size), repeat=n):
        v = g[t]
        if v == zero or v not in members:
            continue
        if not any(t[i] in members or _drop(ring, t, i) in rad for i in range(n)):
            return False, t
    return True, None


def _sq_eval(ring, members, rad, weak):
    g, n, zero = ring.g, ring.n, ring.zero
    sq = _squares(ring)
    for t in itertools.product(range(ring.size), repeat=n):
        v = g[t]
        if v not in members or (weak and v == zero):
            continue
        if not any(sq[t[i]] in members or _drop(ring, t, i) in rad for i in range(n)):
            return False, t
    return True, None


# -- absorbing predicates ---------------------------------------------------

class _Products(dict):
    """Per-scan cache: sub-tuple -> its identity-padded g-product."""

    def __init__(self, ring):
        super().__init__()
        self.ring = ring

    def __missing__(self, t):
        out = self[t] = g_product(self.ring, t)
        return out


def _iter_qualifying(ring, members, length, sorted_only=False):
    """Tuples over R \\ members of the given length whose left-nested
    g-product lies in members.

    Tuples with an entry in the ideal satisfy every absorbing-type
    condition automatically (any index subset through that entry has its
    product absorbed into the ideal), so they are skipped.  With
    sorted_only (sound for symmetric per-tuple conditions when g is
    commutative) only non-decreasing tuples are produced; the first one
    found is still the lexicographically first overall, since the sorted
    permutation of any qualifying tuple is lexicographically least.
    """
    g, n = ring.g, ring.n
    outside = [x for x in ring.carrier if x not in members]
    if not outside:
        return
    if sorted_only and ring.commutative_g:
        tuples = itertools.combinations_with_replacement(outside, length)
        if length == n:
            yield from (t for t in tuples if g[t] in members)
            return
        products = _Products(ring)
        # neighbouring tuples share all but their last n-1 entries, so the
        # product of that head comes from the cache
        head = length - (n - 1)
        for t in tuples:
            if g[(products[t[:head]],) + t[head:]] in members:
                yield t
        return
    steps = (length - n) // (n - 1)
    last_blocks = list(itertools.product(outside, repeat=n - 1))
    first_blocks = itertools.product(outside, repeat=n)

    def extend(prefix, acc, remaining):
        if remaining == 1:
            for blk in last_blocks:
                if g[(acc,) + blk] in members:
                    yield prefix + blk
            return
        for blk in last_blocks:
            yield from extend(prefix + blk, g[(acc,) + blk], remaining - 1)

    for first in first_blocks:
        acc = g[first]
        if steps == 0:
            if acc in members:
                yield first
        else:
            yield from extend(first, acc, steps)


def _picks(length, small):
    """One getter per index subset of the given size, in combinations
    order; each returns that sub-tuple of a tuple, a 1-tuple included."""
    if small == 1:
        return [lambda t, i=i: (t[i],) for i in range(length)]
    return [itemgetter(*s) for s in itertools.combinations(range(length), small)]


def _kn_absorbing_eval(ring, members, target, k):
    """Every qualifying tuple of the ideal has some small-subset product
    in target: the ideal itself for (k,n)-absorbing, its radical for the
    tuple characterization of (k,n)-absorbing q-primary."""
    length = k * (ring.n - 1) + 1
    picks = _picks(length, (k - 1) * (ring.n - 1) + 1)
    products = _Products(ring)
    # the per-tuple condition is permutation-invariant, so sorted tuples
    # suffice on a commutative g
    for t in _iter_qualifying(ring, members, length, sorted_only=True):
        if not any(products[pick(t)] in target for pick in picks):
            return False, t
    return True, None


def _kn_absorbing_primary_eval(ring, members, rad, k):
    length = k * (ring.n - 1) + 1
    leading, *others = _picks(length, (k - 1) * (ring.n - 1) + 1)
    products = _Products(ring)
    for t in _iter_qualifying(ring, members, length):
        if products[leading(t)] in members:
            continue
        if not any(products[pick(t)] in rad for pick in others):
            return False, t
    return True, None


# -- memoised outcomes --------------------------------------------------------

def _q_primary_eval(ring, members, k):
    rad = radical_by_primes(ring, members)
    if len(rad) == ring.size:
        return False, "radical is improper"
    return _outcome(ring, rad, "prime")


def _kn_absorbing_q_primary_eval(ring, members, k):
    """The radical of the ideal is (k,n)-absorbing: checked on the radical,
    and by the tuple condition on the ideal with the radical as target.  A
    disagreement means a bug, not mathematics, and raises.  False when the
    radical is improper, since an absorbing hyperideal is proper."""
    rad = radical_by_primes(ring, members)
    if len(rad) == ring.size:
        return False, "radical is improper"
    direct = _outcome(ring, rad, "absorbing", k)
    via_tuples = _outcome(ring, members, "absorbing_q_primary_tuples", k)
    if direct[0] != via_tuples[0]:
        raise InternalInconsistencyError(
            f"absorbing q-primary characterizations disagree on "
            f"{ring.subset_label(members)} (k={k}): radical={direct[0]} "
            f"tuples={via_tuples[0]}")
    return direct


# predicate name -> evaluator(ring, members, k), giving (ok, witness)
_EVALUATORS = {
    "prime": lambda ring, p, k: _is_prime_set(ring, p),
    "weakly_prime": lambda ring, p, k: _weakly_prime_eval(ring, p),
    "primary": lambda ring, p, k: _primary_eval(
        ring, p, radical_by_primes(ring, p)),
    "weakly_primary": lambda ring, p, k: _weakly_primary_eval(
        ring, p, radical_by_primes(ring, p)),
    "q_primary": _q_primary_eval,
    "sq_primary": lambda ring, p, k: _sq_eval(
        ring, p, radical_by_primes(ring, p), weak=False),
    "wsq_primary": lambda ring, p, k: _sq_eval(
        ring, p, radical_by_primes(ring, p), weak=True),
    "absorbing": lambda ring, p, k: _kn_absorbing_eval(ring, p, p, k),
    "absorbing_primary": lambda ring, p, k: _kn_absorbing_primary_eval(
        ring, p, radical_by_primes(ring, p), k),
    "absorbing_q_primary_tuples": lambda ring, p, k: _kn_absorbing_eval(
        ring, p, radical_by_primes(ring, p), k),
    "absorbing_q_primary": _kn_absorbing_q_primary_eval,
}


def _outcome(ring, members, name, k=None):
    """The evaluator `name` on a member set of the ring, memoised there."""
    key = (name, members, k)
    try:
        return ring.memo[key]
    except KeyError:
        pass
    out = ring.memo[key] = _EVALUATORS[name](ring, members, k)
    return out


# -- public predicates -------------------------------------------------------

def is_prime(ideal):
    _require_proper(ideal)
    return _outcome(ideal.ring, ideal.members, "prime")[0]


def is_weakly_prime(ideal):
    _require_proper(ideal)
    return _outcome(ideal.ring, ideal.members, "weakly_prime")[0]


def is_primary(ideal):
    _require_proper(ideal)
    return _outcome(ideal.ring, ideal.members, "primary")[0]


def is_weakly_primary(ideal):
    _require_proper(ideal)
    return _outcome(ideal.ring, ideal.members, "weakly_primary")[0]


def is_q_primary(ideal):
    """Radical is a proper, prime hyperideal."""
    _require_proper(ideal)
    return _outcome(ideal.ring, ideal.members, "q_primary")[0]


def is_kn_absorbing(ideal, k):
    _require_proper(ideal, k)
    return _outcome(ideal.ring, ideal.members, "absorbing", k)[0]


def is_kn_absorbing_primary(ideal, k):
    _require_proper(ideal, k)
    return _outcome(ideal.ring, ideal.members, "absorbing_primary", k)[0]


def is_kn_absorbing_q_primary(ideal, k):
    """Radical is a (k,n)-absorbing hyperideal.

    Evaluated both directly on the radical and through the equivalent
    tuple-level condition on the ideal itself; the two must agree.  When
    the radical is improper the answer is False.
    """
    _require_proper(ideal, k)
    return _outcome(ideal.ring, ideal.members, "absorbing_q_primary", k)[0]


def is_sq_primary(ideal):
    _require_proper(ideal)
    return _outcome(ideal.ring, ideal.members, "sq_primary")[0]


def is_wsq_primary(ideal):
    _require_proper(ideal)
    return _outcome(ideal.ring, ideal.members, "wsq_primary")[0]


# -- classification records ---------------------------------------------------

@dataclass(frozen=True)
class ClassificationRecord:
    ideal: Hyperideal
    outcomes: dict
    witnesses: dict
    k_range: tuple

    def render_lines(self):
        lines = []
        for name, value in self.outcomes.items():
            lines.append(f"{name}={'true' if value else 'false'}")
            if name in self.witnesses:
                lines.append(f"  witness: {self.witnesses[name]}")
        return lines


# (a, b, n_max): a implies b on valid structures with n <= n_max, or any n
# when n_max is None.  sq => q is proved for n = 2 (Koc, Tekir and Yildiz,
# Bull. Korean Math. Soc. 2019); {0} of the (3,3) fold of G refutes n = 3.
_IMPLICATIONS = [
    ("prime", "weakly_prime", None),
    ("prime", "primary", None),
    ("primary", "weakly_primary", None),
    ("primary", "q_primary", None),
    ("sq_primary", "q_primary", 2),
    ("sq_primary", "wsq_primary", None),
    ("q_primary", "absorbing_q_primary_k2", None),
    ("absorbing_primary_k2", "absorbing_q_primary_k2", None),
]


def classify(ideal, k_max=2):
    """Evaluate every predicate on one hyperideal, recording witnesses.

    Every implication of `_IMPLICATIONS` whose arity scope covers the ring
    and whose two predicates were evaluated is asserted for genuine
    hyperideals of valid structures; a violation raises
    InternalInconsistencyError.  The record is memoised in the ring's memo.
    """
    _require_proper(ideal)
    key = ("classify", ideal.members, ideal.valid, k_max)
    try:
        return ideal.ring.memo[key]
    except KeyError:
        pass
    out = ideal.ring.memo[key] = _classify(ideal, k_max)
    return out


def _classify(ideal, k_max):
    ring = ideal.ring
    members = ideal.members
    outcomes = {}
    witnesses = {}

    def record(name, ok, witness):
        outcomes[name] = ok
        if not ok and witness is not None:
            if isinstance(witness, tuple):
                witness = f"({ring.tuple_label(witness)})"
            witnesses[name] = witness

    for name in ("prime", "weakly_prime", "primary", "weakly_primary",
                 "q_primary", "sq_primary", "wsq_primary"):
        record(name, *_outcome(ring, members, name))
    for k in range(2, k_max + 1):
        for name in ("absorbing", "absorbing_primary", "absorbing_q_primary"):
            record(f"{name}_k{k}", *_outcome(ring, members, name, k))

    # the implications are theorems about valid structures; they are not
    # asserted for deviant subsets or known-deviant ambient tables
    ring_ok = ring.validation is None or ring.validation.passed
    if ideal.valid and ring_ok:
        for a, b, n_max in _IMPLICATIONS:
            if n_max is not None and ring.n > n_max:
                continue
            if outcomes.get(a) and outcomes.get(b) is False:
                raise InternalInconsistencyError(
                    f"{a} holds but {b} fails on {ideal.render()} of {ring.name}")
    return ClassificationRecord(ideal, outcomes, witnesses,
                                tuple(range(2, k_max + 1)))
