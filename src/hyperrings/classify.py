"""Hyperideal predicates: prime, primary, q-primary, absorbing variants,
sq-primary and wsq-primary, plus full classification records.

All predicates quantify exhaustively over tuples of carrier elements;
witnesses are the first violating tuple in lexicographic carrier order so
that golden outputs stay deterministic.  The scans go row by row: a tuple
is a prefix and a last entry c, and `ideals.row_masks` gives, for each
prefix, the bitmask of the c whose g-value lies in a set.  A prefix
settles every c at once with a few mask operations, and since c varies
fastest, the witness is the first failing prefix with its least c left.
Every predicate is an entry of `_EVALUATORS`, read through the memoised
`_outcome`.  That table names the predicates and orders a classification
record (`_record_entries`); `_outcome` checks, on a memo miss only, that
the ideal is proper (else ImproperIdealError) and that k is positive;
`classify` checks its k_max the same way.  A call that raises stores
nothing, so a memo hit is always a checked call.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .core import g_product, memoised
from .ideals import (Hyperideal, ImproperIdealError, complement, lowest,
                     mask_of, radical_by_primes, row_masks, tuple_scan)


class InternalInconsistencyError(RuntimeError):
    """Two characterizations that must agree disagreed: implementation bug."""


def _squares(ring):
    return [g_product(ring, (x, x)) for x in ring.carrier]


# -- n-tuple predicates ----------------------------------------------------

def _primary_eval(ring, members, rad):
    """A tuple fails where some entry outside the ideal drops to a g-value
    outside the radical; the rows of the drops mark where that happens."""
    rows, kept = row_masks(ring, members), row_masks(ring, rad)
    g, one, outside = ring.g, ring.one, mask_of(complement(ring, members))
    for prefix in itertools.product(ring.carrier, repeat=ring.n - 1):
        hit = rows[prefix]
        bad = outside if g[prefix + (one,)] not in rad else 0
        for i, x in enumerate(prefix):
            if x not in members:
                bad |= ~kept[prefix[:i] + (one,) + prefix[i + 1:]]
        if hit & bad:
            return False, prefix + (lowest(hit & bad),)
    return True, None


def _sq_eval(ring, members, weak):
    """Tuples with an entry whose square lies in the ideal pass."""
    squares = _squares(ring)
    return tuple_scan(ring, members,
                      [x for x in ring.carrier if squares[x] not in members],
                      radical_by_primes(ring, members), weak)


# -- absorbing predicates ---------------------------------------------------

class _Folds(dict):
    """Per-scan cache: a tuple of length l(n-1)+1 -> its left-nested
    g-fold, where a 1-tuple folds to its entry.  A miss costs one g lookup
    on the cached fold of the tuple without its last n-1 entries."""

    def __init__(self, ring):
        super().__init__(((x,), x) for x in ring.carrier)
        self.g, self.cut = ring.g, 1 - ring.n

    def __missing__(self, q):
        out = self[q] = self.g[(self[q[:self.cut]],) + q[self.cut:]]
        return out


def _entries(s):
    """prefix -> its entries at the positions s, as a tuple."""
    if len(s) == 1:
        i, = s
        return lambda t: (t[i],)
    return itemgetter(*s)


def _absorbing_scan(ring, members, lead, target, k, ordered):
    """(True, None), or (False, t) for the first tuple t of length
    k(n-1)+1 over R \\ members whose g-fold lies in members while no index
    subset of size (k-1)(n-1)+1 passes: the leading subset passes when its
    product lies in lead, every other one when its product lies in target.
    (A tuple with an entry in the ideal passes every such condition.)

    A subset without the last position settles the whole prefix; one with
    it clears its sub-prefix's row of target.  Unless ordered, only
    non-decreasing tuples are scanned: sound where the condition is
    permutation-invariant, since the first failing tuple is then sorted.
    """
    n, g = ring.n, ring.g
    length = k * (n - 1) + 1
    small = length - n + 1
    # subsets of one entry (k = 1) are padded with the identity
    pad = (ring.one,) * (n - 1) if k == 1 else ()
    subsets = list(itertools.combinations(range(length), small))
    leaving = [_entries(s) for s in subsets[1:] if s[-1] < length - 1]
    holding = [_entries(s[:-1]) for s in subsets
               if s[-1] == length - 1 and k > 1]
    outside = complement(ring, members)
    rows, hits = row_masks(ring, members), row_masks(ring, target)
    folds = _Folds(ring)
    h = small - n + 1    # a (sub-)prefix folds to h, then one g step
    # at k = 1 the subset of the last entry alone is one fixed mask
    fixed = mask_of(c for c in outside
                    if k == 1 and folds[(c,) + pad] in target)
    if ordered:
        prefixes = itertools.product(outside, repeat=length - 1)
        allowed = dict.fromkeys(outside, mask_of(outside) & ~fixed)
    else:
        prefixes = itertools.combinations_with_replacement(outside, length - 1)
        allowed = {x: mask_of(c for c in outside if c >= x) & ~fixed
                   for x in outside}
    for prefix in prefixes:
        if k == 1:
            head = folds[prefix[:1] + pad]    # the leading subset's product
            key = prefix
        else:
            head = g[(folds[prefix[:h]],) + prefix[h:small]]
            key = (head,) + prefix[small:]
        hit = rows[key] & allowed[prefix[-1]]
        if not hit or head in lead:
            continue
        if leaving and any(folds[get(prefix) + pad] in target
                           for get in leaving):
            continue
        for get in holding:
            q = get(prefix)
            hit &= ~hits[(folds[q[:h]],) + q[h:]]
        if hit:
            return False, prefix + (lowest(hit),)
    return True, None


def _kn_absorbing_eval(ring, members, target, k):
    """Every qualifying tuple of the ideal has some small-subset product
    in target: the ideal itself for (k,n)-absorbing, its radical for the
    tuple characterization of (k,n)-absorbing q-primary.  The condition is
    permutation-invariant on a passing table, so sorted tuples suffice."""
    return _absorbing_scan(ring, members, target, target, k,
                           not ring.validation.passed)


# -- memoised outcomes --------------------------------------------------------

def _q_primary_eval(ring, members, k):
    rad = radical_by_primes(ring, members)
    if len(rad) == ring.size:
        return False, "radical is improper"
    return _outcome(ring, rad, "prime", None)


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


# predicate name -> evaluator(ring, members, k), giving (ok, witness), in
# record order: the seven n-tuple predicates, the three of k, then the tuple
# form of absorbing q-primary, a cross-check that no record lists
_EVALUATORS = {
    "prime": lambda ring, p, k: tuple_scan(ring, p, complement(ring, p)),
    "weakly_prime": lambda ring, p, k: tuple_scan(
        ring, p, complement(ring, p), weak=True),
    "primary": lambda ring, p, k: _primary_eval(
        ring, p, radical_by_primes(ring, p)),
    "weakly_primary": lambda ring, p, k: tuple_scan(
        ring, p, complement(ring, p), radical_by_primes(ring, p), weak=True),
    "q_primary": _q_primary_eval,
    "sq_primary": lambda ring, p, k: _sq_eval(ring, p, weak=False),
    "wsq_primary": lambda ring, p, k: _sq_eval(ring, p, weak=True),
    "absorbing": lambda ring, p, k: _kn_absorbing_eval(ring, p, p, k),
    "absorbing_primary": lambda ring, p, k: _absorbing_scan(
        ring, p, p, radical_by_primes(ring, p), k, True),
    "absorbing_q_primary": _kn_absorbing_q_primary_eval,
    "absorbing_q_primary_tuples": lambda ring, p, k: _kn_absorbing_eval(
        ring, p, radical_by_primes(ring, p), k),
}


def _record_entries(k_max):
    """(label, predicate, k) for each entry of a classification record, in
    order: the n-tuple predicates, then those of k for each k in 2..k_max."""
    names = list(_EVALUATORS)
    for name in names[:7]:
        yield name, name, None
    for k in range(2, k_max + 1):
        for name in names[7:10]:
            yield f"{name}_k{k}", name, k


@memoised("outcome")
def _outcome(ring, members, name, k):
    """The evaluator `name` on a proper member set of the ring; k is None
    for the predicates without one.  Both preconditions are checked here,
    on the miss."""
    if len(members) == ring.size:
        raise ImproperIdealError(
            f"{ring.subset_label(members)} is the whole of {ring.name}")
    if k is not None and k < 1:
        raise ValueError("k must be positive")
    return _EVALUATORS[name](ring, members, k)


# -- public predicates -------------------------------------------------------

def is_prime(ideal):
    return _outcome(ideal.ring, ideal.members, "prime", None)[0]


def is_weakly_prime(ideal):
    return _outcome(ideal.ring, ideal.members, "weakly_prime", None)[0]


def is_primary(ideal):
    return _outcome(ideal.ring, ideal.members, "primary", None)[0]


def is_weakly_primary(ideal):
    return _outcome(ideal.ring, ideal.members, "weakly_primary", None)[0]


def is_q_primary(ideal):
    """Radical is a proper, prime hyperideal."""
    return _outcome(ideal.ring, ideal.members, "q_primary", None)[0]


def is_kn_absorbing(ideal, k):
    return _outcome(ideal.ring, ideal.members, "absorbing", k)[0]


def is_kn_absorbing_primary(ideal, k):
    return _outcome(ideal.ring, ideal.members, "absorbing_primary", k)[0]


def is_kn_absorbing_q_primary(ideal, k):
    """Radical is a (k,n)-absorbing hyperideal.

    Evaluated both directly on the radical and through the equivalent
    tuple-level condition on the ideal itself; the two must agree.  When
    the radical is improper the answer is False.
    """
    return _outcome(ideal.ring, ideal.members, "absorbing_q_primary", k)[0]


def is_sq_primary(ideal):
    return _outcome(ideal.ring, ideal.members, "sq_primary", None)[0]


def is_wsq_primary(ideal):
    return _outcome(ideal.ring, ideal.members, "wsq_primary", None)[0]


# -- classification records ---------------------------------------------------

@dataclass(frozen=True)
class ClassificationRecord:
    ideal: Hyperideal
    outcomes: dict
    witnesses: dict

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
    InternalInconsistencyError.  A k_max below 1 raises ValueError.  The
    record is memoised in the ring's memo.
    """
    return _classify(ideal.ring, ideal.members, ideal.valid, k_max)


@memoised("classify")
def _classify(ring, members, valid, k_max):
    if k_max < 1:
        raise ValueError("k must be positive")
    ideal = Hyperideal(ring, members, valid)
    outcomes = {}
    witnesses = {}
    for label, name, k in _record_entries(k_max):
        ok, witness = _outcome(ring, members, name, k)
        outcomes[label] = ok
        if not ok and witness is not None:
            if isinstance(witness, tuple):
                witness = f"({ring.tuple_label(witness)})"
            witnesses[label] = witness

    # the implications are theorems about valid structures; they are not
    # asserted for deviant subsets or known-deviant ambient tables
    if ideal.valid and ring.validation.passed:
        for a, b, n_max in _IMPLICATIONS:
            if n_max is not None and ring.n > n_max:
                continue
            if outcomes.get(a) and outcomes.get(b) is False:
                raise InternalInconsistencyError(
                    f"{a} holds but {b} fails on {ideal.render()} of {ring.name}")
    return ClassificationRecord(ideal, outcomes, witnesses)
