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
from functools import lru_cache

from .core import g_product
from .ideals import (Hyperideal, ImproperIdealError, _is_prime_set,
                     radical_by_primes)


class InternalInconsistencyError(RuntimeError):
    """Two characterizations that must agree disagreed: implementation bug."""


def _require_proper(ideal):
    if not ideal.proper:
        raise ImproperIdealError(
            f"{ideal.render()} is the whole of {ideal.ring.name}")


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
        for t in itertools.combinations_with_replacement(outside, length):
            if g_product(ring, t) in members:
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


def _kn_absorbing_eval(ring, members, target, k):
    """Every qualifying tuple of the ideal has some small-subset product
    in target: the ideal itself for (k,n)-absorbing, its radical for the
    tuple characterization of (k,n)-absorbing q-primary."""
    length = k * (ring.n - 1) + 1
    small = (k - 1) * (ring.n - 1) + 1
    subsets = list(itertools.combinations(range(length), small))
    # the per-tuple condition is permutation-invariant, so sorted tuples
    # suffice on a commutative g
    for t in _iter_qualifying(ring, members, length, sorted_only=True):
        if not any(g_product(ring, [t[i] for i in s]) in target for s in subsets):
            return False, t
    return True, None


def _kn_absorbing_primary_eval(ring, members, rad, k):
    length = k * (ring.n - 1) + 1
    small = (k - 1) * (ring.n - 1) + 1
    leading = tuple(range(small))
    others = [s for s in itertools.combinations(range(length), small) if s != leading]
    for t in _iter_qualifying(ring, members, length):
        if g_product(ring, t[:small]) in members:
            continue
        if not any(g_product(ring, [t[i] for i in s]) in rad for s in others):
            return False, t
    return True, None


# -- cached per-(ring, members) evaluators ------------------------------------

@lru_cache(maxsize=None)
def _prime_cached(ring, members):
    return _is_prime_set(ring, members)


@lru_cache(maxsize=None)
def _weakly_prime_cached(ring, members):
    return _weakly_prime_eval(ring, members)


@lru_cache(maxsize=None)
def _primary_cached(ring, members):
    rad = radical_by_primes(ring, members)
    return _primary_eval(ring, members, rad)


@lru_cache(maxsize=None)
def _weakly_primary_cached(ring, members):
    rad = radical_by_primes(ring, members)
    return _weakly_primary_eval(ring, members, rad)


@lru_cache(maxsize=None)
def _q_primary_cached(ring, members):
    rad = radical_by_primes(ring, members)
    if len(rad) == ring.size:
        return False, "radical is improper"
    ok, witness = _prime_cached(ring, rad)
    return ok, witness


@lru_cache(maxsize=None)
def _kn_absorbing_cached(ring, members, k):
    return _kn_absorbing_eval(ring, members, members, k)


@lru_cache(maxsize=None)
def _kn_absorbing_q_primary_cached(ring, members, k):
    """Both characterizations of (k,n)-absorbing q-primary as (ok, witness)
    pairs: the radical is (k,n)-absorbing, and the tuple condition on the
    ideal with the radical as target.  None when the radical is improper,
    since an absorbing hyperideal is proper by definition."""
    rad = radical_by_primes(ring, members)
    if len(rad) == ring.size:
        return None
    return (_kn_absorbing_cached(ring, rad, k),
            _kn_absorbing_eval(ring, members, rad, k))


@lru_cache(maxsize=None)
def _kn_absorbing_primary_cached(ring, members, k):
    rad = radical_by_primes(ring, members)
    return _kn_absorbing_primary_eval(ring, members, rad, k)


@lru_cache(maxsize=None)
def _sq_cached(ring, members):
    rad = radical_by_primes(ring, members)
    return _sq_eval(ring, members, rad, weak=False)


@lru_cache(maxsize=None)
def _wsq_cached(ring, members):
    rad = radical_by_primes(ring, members)
    return _sq_eval(ring, members, rad, weak=True)


# -- public predicates -------------------------------------------------------

def is_prime(ideal):
    _require_proper(ideal)
    return _prime_cached(ideal.ring, ideal.members)[0]


def is_weakly_prime(ideal):
    _require_proper(ideal)
    return _weakly_prime_cached(ideal.ring, ideal.members)[0]


def is_primary(ideal):
    _require_proper(ideal)
    return _primary_cached(ideal.ring, ideal.members)[0]


def is_weakly_primary(ideal):
    _require_proper(ideal)
    return _weakly_primary_cached(ideal.ring, ideal.members)[0]


def is_q_primary(ideal):
    """Radical is a proper, prime hyperideal."""
    _require_proper(ideal)
    return _q_primary_cached(ideal.ring, ideal.members)[0]


def is_kn_absorbing(ideal, k):
    _require_proper(ideal)
    if k < 1:
        raise ValueError("k must be positive")
    return _kn_absorbing_cached(ideal.ring, ideal.members, k)[0]


def is_kn_absorbing_primary(ideal, k):
    _require_proper(ideal)
    if k < 1:
        raise ValueError("k must be positive")
    return _kn_absorbing_primary_cached(ideal.ring, ideal.members, k)[0]


def _kn_absorbing_q_primary(ideal, k):
    """(ok, witness) of the radical characterization, once both
    characterizations are found to agree; a disagreement raises (it would
    mean a bug, not mathematics)."""
    both = _kn_absorbing_q_primary_cached(ideal.ring, ideal.members, k)
    if both is None:
        return False, "radical is improper"
    direct, via_tuples = both
    if direct[0] != via_tuples[0]:
        raise InternalInconsistencyError(
            f"absorbing q-primary characterizations disagree on "
            f"{ideal.render()} (k={k}): radical={direct[0]} tuples={via_tuples[0]}")
    return direct


def is_kn_absorbing_q_primary(ideal, k):
    """Radical is a (k,n)-absorbing hyperideal.

    Evaluated both directly on the radical and through the equivalent
    tuple-level condition on the ideal itself; the two must agree.  When
    the radical is improper the answer is False.
    """
    _require_proper(ideal)
    if k < 1:
        raise ValueError("k must be positive")
    return _kn_absorbing_q_primary(ideal, k)[0]


def is_sq_primary(ideal):
    _require_proper(ideal)
    return _sq_cached(ideal.ring, ideal.members)[0]


def is_wsq_primary(ideal):
    _require_proper(ideal)
    return _wsq_cached(ideal.ring, ideal.members)[0]


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


_IMPLICATIONS = [
    ("prime", "primary"),
    ("primary", "q_primary"),
    ("sq_primary", "wsq_primary"),
    ("sq_primary", "q_primary"),
]


def classify(ideal, k_max=2):
    """Evaluate every predicate on one hyperideal, recording witnesses.

    Consistency of the implication chain (prime => primary => q-primary,
    sq => wsq, sq => q) is asserted for genuine hyperideals; a violation
    raises InternalInconsistencyError.
    """
    _require_proper(ideal)
    return _classify_cached(ideal, k_max)


@lru_cache(maxsize=None)
def _classify_cached(ideal, k_max):
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

    record("prime", *_prime_cached(ring, members))
    record("weakly_prime", *_weakly_prime_cached(ring, members))
    record("primary", *_primary_cached(ring, members))
    record("weakly_primary", *_weakly_primary_cached(ring, members))
    record("q_primary", *_q_primary_cached(ring, members))
    record("sq_primary", *_sq_cached(ring, members))
    record("wsq_primary", *_wsq_cached(ring, members))
    for k in range(2, k_max + 1):
        record(f"absorbing_k{k}", *_kn_absorbing_cached(ring, members, k))
        record(f"absorbing_primary_k{k}",
               *_kn_absorbing_primary_cached(ring, members, k))
        record(f"absorbing_q_primary_k{k}", *_kn_absorbing_q_primary(ideal, k))

    # the implication chain is a theorem about valid structures; it is not
    # asserted for deviant subsets or known-deviant ambient tables
    ring_ok = ring.validation is None or ring.validation.passed
    if ideal.valid and ring_ok:
        for a, b in _IMPLICATIONS:
            if outcomes[a] and not outcomes[b]:
                raise InternalInconsistencyError(
                    f"{a} holds but {b} fails on {ideal.render()} of {ring.name}")
    return ClassificationRecord(ideal, outcomes, witnesses,
                                tuple(range(2, k_max + 1)))
