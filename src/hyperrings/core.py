"""Finite Krasner (m,n)-hyperrings stored as dense operation tables.

A structure is a finite carrier together with an m-ary hyperoperation f
(set-valued, the "addition") and an n-ary single-valued operation g (the
"multiplication"), a zero that is the scalar neutral of f and absorbing
for g, and a scalar identity for g.  Everything here works on explicit
tables, and every axiom is certified by a scan over all tuples.

For the costly axioms (associativity of f and g, distributivity) a
validation call first lays both tables out flat, in `itertools.product`
order: `F` holds each f-value as an int bitmask of its members, `G` each
g-value as an int.  The last argument then varies fastest, so the values
over it form a contiguous row, and the scans compare whole rows (lists of
masks or elements) instead of single entries.  A row that differs is
expanded entry by entry only to report its violations, which come out in
the same order and with the same text as an entry-by-entry scan.  The
flat tables and the per-call memos live only for one validation call.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import or_


class ArityError(ValueError):
    """Argument list length incompatible with a table's arity."""


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: str
    expected: str
    found: str

    def render(self) -> str:
        return (f"axiom={self.axiom} witness={self.witness} "
                f"expected={self.expected} found={self.found}")


@dataclass
class ValidationReport:
    passed: bool
    violations: list

    def render(self, name: str = "") -> str:
        lines = []
        if name:
            lines.append(f"structure: {name}")
        lines.append("status: " + ("PASSED" if self.passed else "FAILED"))
        lines.append(f"violations: {len(self.violations)}")
        lines.extend(v.render() for v in self.violations)
        return "\n".join(lines) + "\n"


class HyperringTable:
    """Immutable dense-table representation of a finite Krasner (m,n)-hyperring.

    f maps every ordered m-tuple of element indices to a frozenset of
    indices; g maps every ordered n-tuple to a single index.  Tables are
    total.  Instances are treated as immutable after construction and are
    hashed by identity, which is what the module-level `lru_cache`s of
    derived data (ideal lattices, radicals, classifications) key on; those
    caches keep every table they see alive for the life of the process.
    """

    def __init__(self, name, m, n, labels, zero, one, f, g,
                 commutative_f=True, commutative_g=True):
        if m < 2 or n < 2:
            raise ValueError("arities m and n must be at least 2")
        self.name = name
        self.m = m
        self.n = n
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate element labels")
        self.size = len(self.labels)
        self.zero = zero
        self.one = one
        self.f = dict(f)
        self.g = dict(g)
        self.commutative_f = commutative_f
        self.commutative_g = commutative_g
        self.validation = None        # ValidationReport, attached by callers
        self.validation_waived = False
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._inverses = None
        self._check_total()

    def _check_total(self):
        rng = range(self.size)
        for t in itertools.product(rng, repeat=self.m):
            if t not in self.f:
                raise ValueError(f"f table not total: missing {self.tuple_label(t)}")
            value = self.f[t] = frozenset(self.f[t])
            if not all(isinstance(x, int) and 0 <= x < self.size for x in value):
                raise ValueError(f"f value out of carrier at {self.tuple_label(t)}")
        for t in itertools.product(rng, repeat=self.n):
            if t not in self.g:
                raise ValueError(f"g table not total: missing {self.tuple_label(t)}")
            v = self.g[t]
            if not isinstance(v, int) or not 0 <= v < self.size:
                raise ValueError(f"g value out of carrier at {self.tuple_label(t)}")

    # -- label helpers ----------------------------------------------------

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown element label {label!r} in {self.name}") from None

    def label(self, i):
        return self.labels[i]

    def tuple_label(self, t):
        return ",".join(self.labels[i] for i in t)

    def subset_label(self, members):
        return "{" + ",".join(self.labels[i] for i in sorted(members)) + "}"

    @property
    def carrier(self):
        return range(self.size)

    @property
    def full_set(self):
        return frozenset(range(self.size))

    def inverses(self, x):
        """All y with 0 in f(x, y, 0^(m-2)); a singleton on valid tables."""
        if self._inverses is None:
            pad = (self.zero,) * (self.m - 2)
            inv = []
            for a in range(self.size):
                inv.append(frozenset(
                    b for b in range(self.size) if self.zero in self.f[(a, b) + pad]))
            self._inverses = inv
        return self._inverses[x]

    def __repr__(self):
        return f"HyperringTable({self.name!r}, m={self.m}, n={self.n}, size={self.size})"


# -- operations -----------------------------------------------------------

def f_extend(ring, subsets):
    """Union of f over all choice tuples drawn from the given subsets."""
    if len(subsets) != ring.m:
        raise ArityError(f"f_extend needs {ring.m} subsets, got {len(subsets)}")
    for s in subsets:
        if not s:
            raise ValueError("f_extend: empty input subset")
    out = set()
    f = ring.f
    for t in itertools.product(*subsets):
        out |= f[t]
    return frozenset(out)


def g_eval(ring, args):
    if len(args) != ring.n:
        raise ArityError(f"g takes {ring.n} arguments, got {len(args)}")
    return ring.g[tuple(args)]


def g_iterated(ring, args):
    """Left-nested fold of g over l(n-1)+1 arguments; l=1 is plain g."""
    n = ring.n
    k = len(args)
    if k < n or (k - 1) % (n - 1) != 0:
        raise ArityError(f"g_iterated needs l(n-1)+1 arguments for n={n}, got {k}")
    return g_product(ring, args)


def g_power(ring, a, s):
    """s-th g-power of a: the g-product of a^(s), identity-padded."""
    if s < 1:
        raise ValueError("power count must be >= 1")
    return g_product(ring, (a,) * s)


def g_product(ring, elems):
    """Left-nested fold of g over a non-empty argument list.

    The list is padded with the scalar identity up to the next length of
    the form l(n-1)+1 with l >= 1, which is value-neutral under the
    identity axiom: g(a^(s), 1^(n-s)) for s <= n.
    """
    elems = tuple(elems)
    k = len(elems)
    if not k:
        raise ValueError("empty product")
    n, g = ring.n, ring.g
    if k <= n:
        return g[elems + (ring.one,) * (n - k)]
    elems += (ring.one,) * (-(k - 1) % (n - 1))
    acc = g[elems[:n]]
    pos = n
    while pos < len(elems):
        acc = g[(acc,) + elems[pos:pos + n - 1]]
        pos += n - 1
    return acc


# -- validators -----------------------------------------------------------

def _digits(size, i, length):
    """The tuple of the given length at position i of
    itertools.product(range(size), repeat=length)."""
    t = []
    for _ in range(length):
        i, x = divmod(i, size)
        t.append(x)
    return tuple(reversed(t))


def _members(mask):
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def _mask_label(ring, mask):
    return ring.subset_label(_members(mask))


def _f_masks(ring):
    """F: each f-value as a bitmask, flat in itertools.product order."""
    f = ring.f
    return [sum(1 << x for x in f[t])
            for t in itertools.product(range(ring.size), repeat=ring.m)]


def _g_values(ring):
    """G: the g-values, flat in itertools.product order."""
    return list(map(ring.g.__getitem__,
                    itertools.product(range(ring.size), repeat=ring.n)))


def _rows(table, size):
    """A flat table cut into rows over its last argument."""
    return [table[k:k + size] for k in range(0, len(table), size)]


def _cuts(size, arity):
    """Flat-index arithmetic for the nesting cuts before the last one.

    Over (2k-2)-prefixes p of a k-ary table, the inner tuple of cut c is
    p[c:c + k], at position p // stride % window; the outer tuple with t in
    place of the inner one is the row p[:c] + (t,) + p[c + k:], at
    p // high * size * stride + t * stride + p % stride.
    """
    return [(size ** (arity - 2 - cut), size ** arity, size ** (2 * arity - 2 - cut))
            for cut in range(arity - 1)]


def _report_rows(ring, axiom, prefix, arity, rows, render, out):
    """Violations of one prefix block: rows[cut][z] is the value nested at
    `cut` for the arguments prefix + (z,), prefix a flat (2k-2)-tuple index."""
    args = _digits(ring.size, prefix, 2 * arity - 2)
    base = rows[0]
    for z in range(ring.size):
        for cut in range(1, len(rows)):
            if rows[cut][z] != base[z]:
                out.append(Violation(
                    axiom,
                    f"args=({ring.tuple_label(args + (z,))}) nest 0 vs nest {cut}",
                    render(base[z]), render(rows[cut][z])))


def _check_f_entries(ring, out):
    ok = True
    for t in itertools.product(range(ring.size), repeat=ring.m):
        if not ring.f[t]:
            out.append(Violation("f-output-nonempty", f"f({ring.tuple_label(t)})",
                                 "non-empty subset", "{}"))
            ok = False
    return ok


def _check_commutative(ring, table, arity, axiom, render, out):
    for t in itertools.product(range(ring.size), repeat=arity):
        st = tuple(sorted(t))
        if st != t and table[t] != table[st]:
            out.append(Violation(
                axiom, f"({ring.tuple_label(t)}) vs ({ring.tuple_label(st)})",
                render(table[st]), render(table[t])))


def _check_f_associativity(ring, F, out):
    # Every nesting position is compared against the leftmost one over all
    # (2m-1)-tuples, one row over the last argument per (2m-2)-prefix.  For
    # a cut before the last the inner f-value is fixed by the prefix, so the
    # row is the union of the F-rows its members select.  At the last cut
    # the inner value runs along the row, and each of its masks is extended
    # through the prefix's first m-1 arguments by a table that only lives
    # for that prefix block.
    s = ring.size
    rows = _rows(F, s)
    members = {mask: _members(mask) for mask in set(F)}
    cuts = _cuts(s, ring.m)
    width = len(rows)
    for head, head_row in enumerate(rows):
        extend = {mask: reduce(or_, map(head_row.__getitem__, ms), 0)
                  for mask, ms in members.items()}
        for tail, tail_row in enumerate(rows):
            prefix = head * width + tail
            nested = []
            for stride, window, high in cuts:
                base = prefix // high * s * stride + prefix % stride
                first, *rest = members[F[prefix // stride % window]]
                row = rows[base + first * stride]
                for t in rest:
                    row = list(map(or_, row, rows[base + t * stride]))
                nested.append(row)
            nested.append(list(map(extend.__getitem__, tail_row)))
            if nested.count(nested[0]) != len(nested):
                _report_rows(ring, "f-associativity", prefix, ring.m, nested,
                             lambda mask: _mask_label(ring, mask), out)


def _check_zero_neutral(ring, out):
    z = ring.zero
    for x in range(ring.size):
        for i in range(ring.m):
            t = (z,) * i + (x,) + (z,) * (ring.m - 1 - i)
            if ring.f[t] != frozenset({x}):
                out.append(Violation(
                    "zero-scalar-neutral", f"f({ring.tuple_label(t)})",
                    "{" + ring.label(x) + "}", ring.subset_label(ring.f[t])))


def _check_inverses(ring, out):
    ok = True
    for x in range(ring.size):
        inv = ring.inverses(x)
        if len(inv) != 1:
            ok = False
            out.append(Violation(
                "inverse-uniqueness", f"x={ring.label(x)}",
                "exactly one inverse", ring.subset_label(inv)))
    return ok


def _check_reversibility(ring, out):
    m = ring.m
    f = ring.f
    inv = [min(ring.inverses(x)) for x in range(ring.size)]
    for args in itertools.product(range(ring.size), repeat=m):
        for x in f[args]:
            for i in range(m):
                rest = tuple(inv[args[j]] for j in range(m) if j != i)
                if args[i] not in f[(x,) + rest]:
                    out.append(Violation(
                        "reversibility",
                        f"{ring.label(x)} in f({ring.tuple_label(args)}), i={i + 1}",
                        f"{ring.label(args[i])} in f({ring.tuple_label((x,) + rest)})",
                        ring.subset_label(f[(x,) + rest])))


def validate_canonical_hypergroup(ring):
    """Check that (R, f) is a canonical m-ary hypergroup.

    Axioms: commutativity, m-ary associativity of the extended operation,
    zero as scalar neutral, unique additive inverses, reversibility.
    Failures are reported, never raised.
    """
    out = []
    _check_canonical_hypergroup(ring, _f_masks(ring), out)
    return ValidationReport(not out, out)


def _check_canonical_hypergroup(ring, F, out):
    entries_ok = _check_f_entries(ring, out)
    _check_commutative(ring, ring.f, ring.m, "f-commutativity", ring.subset_label, out)
    if entries_ok:
        _check_f_associativity(ring, F, out)
    _check_zero_neutral(ring, out)
    inverses_ok = _check_inverses(ring, out)
    if entries_ok and inverses_ok:
        _check_reversibility(ring, out)


def _check_g_associativity(ring, G, out):
    # as for f, one row over the last argument per (2n-2)-prefix: before
    # the last cut the row is a row of G, at the last cut it is the
    # prefix's head row looked up along a row of G
    s = ring.size
    rows = _rows(G, s)
    cuts = _cuts(s, ring.n)
    width = len(rows)
    for head, head_row in enumerate(rows):
        for tail, tail_row in enumerate(rows):
            prefix = head * width + tail
            nested = [rows[prefix // high * s * stride
                           + G[prefix // stride % window] * stride
                           + prefix % stride]
                      for stride, window, high in cuts]
            nested.append(list(map(head_row.__getitem__, tail_row)))
            if nested.count(nested[0]) != len(nested):
                _report_rows(ring, "g-associativity", prefix, ring.n, nested,
                             ring.label, out)


def _distributivity_failures(phi, rows, members, m, s):
    """(xs position, phi applied to f(xs), f(phi(xs))) for every m-tuple xs
    where multiplication by phi does not distribute, as bitmasks.  Both
    sides are built one row over the last argument at a time."""
    bit = [1 << y for y in phi]
    image = {mask: reduce(or_, map(bit.__getitem__, ms), 0)
             for mask, ms in members.items()}
    lifted = phi
    for _ in range(m - 2):
        lifted = [k * s + y for k in lifted for y in phi]
    found = []
    for head, (row, target) in enumerate(zip(rows, lifted)):
        left = list(map(image.__getitem__, row))
        right = list(map(rows[target].__getitem__, phi))
        if left != right:
            found += [(head * s + z, a, b)
                      for z, (a, b) in enumerate(zip(left, right)) if a != b]
    return found


def _check_distributivity(ring, F, G, out):
    # For each position i and ambient, phi(x) = g(ambient with x at i) is a
    # slice of G with the stride of position i.  Whether phi distributes
    # over f depends on phi alone, and many ambients share one phi (both
    # positions of a commutative g, say), so the failures are memoised per
    # phi.
    m, n, s = ring.m, ring.n, ring.size
    rows = _rows(F, s)
    members = {mask: _members(mask) for mask in set(F)}
    failures = {}
    for i in range(n):
        stride = s ** (n - 1 - i)
        for amb in range(s ** (n - 1)):
            base = amb // stride * stride * s + amb % stride
            phi = tuple(G[base:base + s * stride:stride])
            found = failures.get(phi)
            if found is None:
                found = failures[phi] = _distributivity_failures(phi, rows, members, m, s)
            for j, left, right in found:
                out.append(Violation(
                    "distributivity",
                    f"g(pos {i + 1}; ambient={ring.tuple_label(_digits(s, amb, n - 1))}; "
                    f"f({ring.tuple_label(_digits(s, j, m))}))",
                    _mask_label(ring, right), _mask_label(ring, left)))


def _check_zero_absorbing(ring, out):
    n = ring.n
    z = ring.zero
    for i in range(n):
        for amb in itertools.product(range(ring.size), repeat=n - 1):
            t = amb[:i] + (z,) + amb[i:]
            if ring.g[t] != z:
                out.append(Violation(
                    "zero-absorbing", f"g({ring.tuple_label(t)})",
                    ring.label(z), ring.label(ring.g[t])))


def _check_scalar_identity(ring, out):
    n = ring.n
    e = ring.one
    for x in range(ring.size):
        for i in range(n):
            t = (e,) * i + (x,) + (e,) * (n - 1 - i)
            if ring.g[t] != x:
                out.append(Violation(
                    "scalar-identity", f"g({ring.tuple_label(t)})",
                    ring.label(x), ring.label(ring.g[t])))


def validate_krasner(ring):
    """Full axiom check: canonical hypergroup, n-ary semigroup with
    commutative g, distributivity, absorbing zero, scalar identity."""
    F, G = _f_masks(ring), _g_values(ring)
    out = []
    _check_canonical_hypergroup(ring, F, out)
    _check_commutative(ring, ring.g, ring.n, "g-commutativity", ring.label, out)
    _check_g_associativity(ring, G, out)
    _check_distributivity(ring, F, G, out)
    _check_zero_absorbing(ring, out)
    _check_scalar_identity(ring, out)
    return ValidationReport(not out, out)
