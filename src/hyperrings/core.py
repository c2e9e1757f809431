"""Finite Krasner (m,n)-hyperrings stored as dense operation tables.

A structure is a finite carrier together with an m-ary hyperoperation f
(set-valued, the "addition") and an n-ary single-valued operation g (the
"multiplication"), a zero that is the scalar neutral of f and absorbing
for g, and a scalar identity for g.  Everything here works on explicit
tables.  A table's `validation` is its `validate_krasner` report,
computed when it is first read.

A validation call first lays both tables out flat, in `itertools.product`
order, as int bitmasks of their values' members: `F` for f, and for g the
singleton masks `1 << v`, since an operation is a hyperoperation whose
values are singletons.  So associativity, the scalar neutral element and
the left fold are each one routine, run on both tables (distributivity
also reads g's values as elements).  Symmetry is one slice test,
`_symmetric`, which the serializer shares; the element-wise commutativity
walk runs only on a table it finds asymmetric.  Two axioms are decided by
one whole-table comparison: a commutative table is associative exactly
when its leftmost nest, built flat, is symmetric (FINDINGS.md (xiii)), and
multiplication by each distinct multiplier distributes when the two sides,
laid out over the whole f table, are equal lists.  Violations are named
from the same flat lists: any other table has each of its nests built
flat and compared with the leftmost, and a multiplier whose sides differ
has them compared entry by entry.  Either way the violations come out in
the same order and with the same text as an entry-by-entry scan.  The
flat tables and the per-call memos live only for one validation call.

The full scan, `validate_krasner_scan`, is the only source of violations.  At
m > 2 or n > 2, `validate_krasner` first checks on the flat tables that f
and g fold a valid (2,2)-reduct; such a table passes every axiom, and every
valid table is one (FINDINGS.md (i), (iii)).  Others get the full scan.

`HyperringTable(...)` checks that its tables are total over the carrier.
Products, quotients, subhyperring tables and the reducts of folds are made
by `HyperringTable._built`, which skips that check: they are built total
from total tables (FINDINGS.md (xiii)).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce, wraps
from operator import and_, ne, or_


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


def memoised(tag):
    """Keep compute(ring, *args) in ring.memo[tag][args], one dict per tag;
    this is the only code that reads or writes a computed memo entry.
    Every call site passes the same arity, so one computation has one
    entry.  A miss computes after the try block, so a build error does not
    chain the lookup's KeyError, and the tag's dict is made only once the
    compute returns, so a call that raises stores nothing."""
    def decorate(compute):
        @wraps(compute)
        def cached(ring, *args):
            try:
                return ring.memo[tag][args]
            except KeyError:
                pass
            value = compute(ring, *args)
            ring.memo.setdefault(tag, {})[args] = value
            return value
        return cached
    return decorate


class _first_read:
    """functools.cached_property, but stored with object.__setattr__, as a
    frozen dataclass allows: cached_property writes the instance __dict__,
    which on CPython 3.11 makes later attribute loads about twice as slow."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, ring, owner=None):
        if ring is None:
            return self
        value = self.compute(ring)
        object.__setattr__(ring, self.name, value)
        return value


class HyperringTable:
    """Immutable dense-table representation of a finite Krasner (m,n)-hyperring.

    f maps every ordered m-tuple of element indices to a frozenset of
    indices; g maps every ordered n-tuple to a single index.  Tables are
    total.  Instances are treated as immutable after construction and are
    hashed by identity; commutativity, like every axiom, is read off f and
    g by validation.  `validation` is the `validate_krasner` report,
    computed on first read; `direct_product` and `quotient` set it instead
    on a product or quotient of passing tables.  `memo` holds the data
    derived from the table, each datum kept by `memoised` at
    `memo[tag][args]`, beside a certified product's `memo["factors"]` and a
    certified quotient's `memo["parent"]`; it is released with the table.
    """

    def __init__(self, name, m, n, labels, zero, one, f, g):
        if m < 2 or n < 2:
            raise ValueError("arities m and n must be at least 2")
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate element labels")
        # the parser passes frozensets already; only other values are
        # wrapped, in a copy, which halves the cost of a plain rewrap
        f = dict(f)
        for t, value in f.items():
            if type(value) is not frozenset:
                f[t] = frozenset(value)
        self._assign(name, m, n, labels, zero, one, f, dict(g))
        self._check_total()

    @classmethod
    def _built(cls, name, m, n, labels, zero, one, f, g):
        """A table that a construction built total over its carrier, with
        frozenset f-values and distinct labels, from total tables: f and g
        are kept as given, and totality is not re-checked (FINDINGS.md
        (xiii))."""
        ring = cls.__new__(cls)
        ring._assign(name, m, n, tuple(labels), zero, one, f, g)
        return ring

    def _assign(self, name, m, n, labels, zero, one, f, g):
        self.name, self.m, self.n = name, m, n
        self.labels, self.size = labels, len(labels)
        self.zero, self.one = zero, one
        self.f, self.g = f, g
        self.validation_waived = False
        self._index = {lab: i for i, lab in enumerate(labels)}
        self.memo = {}

    def _check_total(self):
        """Name the first tuple, in product order, that f or g lacks or maps
        outside the carrier; extra keys are allowed.  Distinct values are
        checked once each, and only a failing table is walked."""
        def element(x):
            return isinstance(x, int) and 0 <= x < self.size

        for name, table, arity, ok in (
                ("f", self.f, self.m, lambda value: all(map(element, value))),
                ("g", self.g, self.n, element)):
            tuples = itertools.product(range(self.size), repeat=arity)
            if all(map(table.__contains__, tuples)) and all(map(ok, set(table.values()))):
                continue
            for t in itertools.product(range(self.size), repeat=arity):
                if t not in table:
                    raise ValueError(f"{name} table not total: "
                                     f"missing entry for {self.tuple_label(t)}")
                if not ok(table[t]):
                    raise ValueError(f"{name} value out of carrier at {self.tuple_label(t)}")

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

    @_first_read
    def validation(self):
        return validate_krasner(self)

    def inverses(self, x):
        """All y with 0 in f(x, y, 0^(m-2)); a singleton on valid tables."""
        return self._inverses[x]

    @_first_read
    def _inverses(self):
        pad = (self.zero,) * (self.m - 2)
        return [frozenset(b for b in self.carrier if self.zero in self.f[(a, b) + pad])
                for a in self.carrier]

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
    return frozenset().union(*map(ring.f.__getitem__,
                                  itertools.product(*subsets)))


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
    values = list(map(ring.f.__getitem__,
                      itertools.product(range(ring.size), repeat=ring.m)))
    mask = {value: sum(1 << x for x in value) for value in set(values)}
    return list(map(mask.__getitem__, values))


def _g_values(ring):
    """G: the g-values, flat in itertools.product order."""
    return list(map(ring.g.__getitem__,
                    itertools.product(range(ring.size), repeat=ring.n)))


def _singletons(values):
    """Elements as singleton bitmasks: g's values read as f's are."""
    return [1 << v for v in values]


def _rows(table, size):
    """A flat table cut into consecutive slices of the given length: rows
    over its last argument when that is the carrier size."""
    return [table[k:k + size] for k in range(0, len(table), size)]


def _check_f_entries(ring, out):
    ok = True
    for t in itertools.product(range(ring.size), repeat=ring.m):
        if not ring.f[t]:
            out.append(Violation("f-output-nonempty", f"f({ring.tuple_label(t)})",
                                 "non-empty subset", "{}"))
            ok = False
    return ok


def _symmetric(values, size):
    """Whether a table, its values in product order, is invariant under
    the rotation of its arguments and the swap of the last two, which
    generate every permutation: with first entry x as with last entry x,
    and in each size x size block, row a as column a."""
    block, square = len(values) // size, size * size
    return (all(values[x * block:(x + 1) * block] == values[x::size]
                for x in range(size))
            and all(values[b + a * size:b + a * size + size]
                    == values[b + a:b + square:size]
                    for b in range(0, len(values), square)
                    for a in range(size)))


def _check_commutative(ring, table, arity, axiom, render, out):
    for t in itertools.product(range(ring.size), repeat=arity):
        st = tuple(sorted(t))
        if st != t and table[t] != table[st]:
            out.append(Violation(
                axiom, f"({ring.tuple_label(t)}) vs ({ring.tuple_label(st)})",
                render(table[st]), render(table[t])))


def _substitute(T, slabs):
    """A flat mask table with each value of T replaced by the union of the
    slabs of its members: the values of f(f(x..), y..) when T holds f(x..)
    and slabs[a] holds f(a, y..) in product order.  A singleton's slab is
    read off; the empty mask of a broken table gets zeros."""
    unions = dict(zip(_singletons(range(len(slabs))), slabs))
    for mask in set(T).difference(unions):
        unions[mask] = reduce(lambda a, b: list(map(or_, a, b)),
                              map(slabs.__getitem__, _members(mask)),
                              [0] * len(slabs[0]))
    return list(itertools.chain.from_iterable(map(unions.__getitem__, T)))


def _nest(T, size, arity, cut):
    """The nest of a k-ary mask table T at a cut c, flat over
    (2k-1)-tuples: f(x_1..x_c, f(x_(c+1)..x_(c+k)), x_(c+k+1)..x_(2k-1)).
    For each c-prefix, the block of T under it holds one slab per value of
    x_(c+1), and T's values at the inner tuples select them."""
    width = size ** (arity - 1 - cut)
    block = size * width
    return list(itertools.chain.from_iterable(
        _substitute(T, _rows(T[p * block:(p + 1) * block], width))
        for p in range(size ** cut)))


def _nest_symmetric(T, size, arity):
    """Whether the leftmost nest of a k-ary mask table T with no empty
    value is invariant under every permutation of its arguments.  On a
    commutative T this holds exactly when every nesting agrees (FINDINGS.md
    (xiii))."""
    return _symmetric(_nest(T, size, arity, 0), size)


def _check_associativity(ring, T, arity, commutes, axiom, render, out):
    # A commutative T whose leftmost nest is symmetric is associative, and
    # every passing table is one (FINDINGS.md (xiii)).  On any other T each
    # nest is compared with the leftmost as a whole list, and the entries
    # where they differ are named by their (2k-1)-tuple, then by cut.
    s = ring.size
    if commutes and _nest_symmetric(T, s, arity):
        return
    nests = [_nest(T, s, arity, cut) for cut in range(arity)]
    left = nests[0]
    differ = sorted((j, cut) for cut in range(1, arity) if nests[cut] != left
                    for j in itertools.compress(itertools.count(), map(ne, nests[cut], left)))
    for j, cut in differ:
        out.append(Violation(
            axiom,
            f"args=({ring.tuple_label(_digits(s, j, 2 * arity - 1))}) nest 0 vs nest {cut}",
            render(left[j]), render(nests[cut][j])))


def _check_neutral(ring, T, arity, e, op, axiom, render, out):
    # e is scalar neutral when every e^(i), x, e^(k-1-i) takes the value
    # {x}; that tuple sits at the all-e index plus (x - e) strides of i
    s = ring.size
    strides = [s ** (arity - 1 - i) for i in range(arity)]
    at_e = e * sum(strides)
    for x in range(s):
        for i, stride in enumerate(strides):
            value = T[at_e + (x - e) * stride]
            if value != 1 << x:
                t = (e,) * i + (x,) + (e,) * (arity - 1 - i)
                out.append(Violation(axiom, f"{op}({ring.tuple_label(t)})",
                                     render(1 << x), render(value)))


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


def _check_reversibility(ring, F, out):
    # x in f(args) needs args[i] in f(x, q), q the inverses of the other
    # args: f(args) avoids outside[q][args[i]], the x whose f(x, q) lacks
    # args[i].  Whole lines of F over args[i] (rows when i is last) are
    # compared; failing tuples are expanded entry by entry to report.
    m, s, f = ring.m, ring.size, ring.f
    inv = [min(ring.inverses(x)) for x in range(s)]
    width = s ** (m - 1)
    outside = [[-1] * s for _ in range(width)]
    for k, t in enumerate(itertools.product(range(s), repeat=m)):
        for a in f[t]:
            outside[k % width][a] &= ~(1 << t[0])
    lifted = inv    # the other args' index -> their inverses' index
    for _ in range(m - 2):
        lifted = [k * s + y for k in lifted for y in inv]
    failing = set()
    for i in range(m):
        stride = s ** (m - 1 - i)
        for rest, q in enumerate(lifted):
            base = rest // stride * stride * s + rest % stride
            misses = list(map(and_, F[base:base + s * stride:stride], outside[q]))
            if any(misses):
                failing.update(base + a * stride for a, miss in enumerate(misses) if miss)
    for k in sorted(failing):
        args = _digits(s, k, m)
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
    commutes = _symmetric(F, ring.size)
    if not commutes:
        _check_commutative(ring, ring.f, ring.m, "f-commutativity",
                           ring.subset_label, out)
    render = lambda mask: _mask_label(ring, mask)
    if entries_ok:
        _check_associativity(ring, F, ring.m, commutes, "f-associativity",
                             render, out)
    _check_neutral(ring, F, ring.m, ring.zero, "f", "zero-scalar-neutral", render, out)
    inverses_ok = _check_inverses(ring, out)
    if entries_ok and inverses_ok:
        _check_reversibility(ring, F, out)


def _distributivity_failures(phi, F, members, m, s):
    """(xs position, phi applied to f(xs), f(phi(xs))) for every m-tuple xs
    where multiplication by phi does not distribute, as bitmasks.  Both
    sides are built over the whole table and compared once; only a phi
    that fails is walked entry by entry."""
    bit = [1 << y for y in phi]
    image = {mask: reduce(or_, map(bit.__getitem__, ms), 0)
             for mask, ms in members.items()}
    lifted = phi    # the index of phi(xs), for each xs
    for _ in range(m - 1):
        lifted = [k * s + y for k in lifted for y in phi]
    left = list(map(image.__getitem__, F))
    right = list(map(F.__getitem__, lifted))
    if left == right:
        return []
    return [(j, a, b) for j, (a, b) in enumerate(zip(left, right)) if a != b]


def _check_distributivity(ring, F, G, out):
    # For each position i and ambient, phi(x) = g(ambient with x at i) is a
    # slice of G with the stride of position i.  Whether phi distributes
    # over f depends on phi alone, and many ambients share one phi (both
    # positions of a commutative g, say), so the failures are memoised per
    # phi.
    m, n, s = ring.m, ring.n, ring.size
    members = {mask: _members(mask) for mask in set(F)}
    failures = {}
    for i in range(n):
        stride = s ** (n - 1 - i)
        for amb in range(s ** (n - 1)):
            base = amb // stride * stride * s + amb % stride
            phi = tuple(G[base:base + s * stride:stride])
            found = failures.get(phi)
            if found is None:
                found = failures[phi] = _distributivity_failures(phi, F, members, m, s)
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


def _left_fold(rows, arity):
    """Flat mask table of the arity-fold of a binary hyperoperation given
    by its mask rows over the second argument, built prefix by prefix."""
    fold = _singletons(range(len(rows)))
    for _ in range(arity - 1):
        fold = _substitute(fold, rows)
    return fold


def _is_fold_of_valid_reduct(ring):
    """Whether f and g are the left folds of the binary reduct
    x+y = f(x, y, 0^(m-2)), xy = g(x, y, 1^(n-2)) and the reduct passes
    validate_krasner; the table then passes every axiom (FINDINGS.md)."""
    pairs = list(itertools.product(range(ring.size), repeat=2))
    fpad, gpad = (ring.zero,) * (ring.m - 2), (ring.one,) * (ring.n - 2)
    reduct = HyperringTable._built(ring.name, 2, 2, ring.labels, ring.zero, ring.one,
                                   {p: ring.f[p + fpad] for p in pairs},
                                   {p: ring.g[p + gpad] for p in pairs})
    plus, times = (_rows(t, ring.size) for t in
                   (_f_masks(reduct), _singletons(_g_values(reduct))))
    return (_left_fold(plus, ring.m) == _f_masks(ring)
            and _left_fold(times, ring.n) == _singletons(_g_values(ring))
            and validate_krasner(reduct).passed)


def validate_krasner(ring):
    """Full axiom check: canonical hypergroup, n-ary semigroup with
    commutative g, distributivity, absorbing zero, scalar identity.  At
    m > 2 or n > 2, a fold of a valid (2,2)-reduct passes without a scan."""
    if (ring.m > 2 or ring.n > 2) and _is_fold_of_valid_reduct(ring):
        return ValidationReport(True, [])
    return validate_krasner_scan(ring)


def validate_krasner_scan(ring):
    """validate_krasner by scanning every axiom over every tuple."""
    F, G = _f_masks(ring), _g_values(ring)
    masks = _singletons(G)
    render = lambda mask: ring.label(mask.bit_length() - 1)
    out = []
    _check_canonical_hypergroup(ring, F, out)
    commutes = _symmetric(G, ring.size)
    if not commutes:
        _check_commutative(ring, ring.g, ring.n, "g-commutativity", ring.label, out)
    _check_associativity(ring, masks, ring.n, commutes, "g-associativity",
                         render, out)
    _check_distributivity(ring, F, G, out)
    _check_zero_absorbing(ring, out)
    _check_neutral(ring, masks, ring.n, ring.one, "g", "scalar-identity", render, out)
    return ValidationReport(not out, out)
