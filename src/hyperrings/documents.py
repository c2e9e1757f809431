"""Bit-exact file format for hyperring tables.

Documents are a strict JSON subset: a single object with the fields
name, m, n, elements, zero, one, commutative_f, commutative_g, f, g and
an optional notes array.  Operation tables are keyed by comma-joined
element labels (labels therefore must not contain commas); when a
commutative flag is set only non-decreasing tuples, in element-list
order, need appear and the loader expands the symmetric closure; a
table keeps no flag.  Serialization is canonical: fixed field order,
tuples emitted in lexicographic element order, each flag set exactly when
its table is symmetric and the keys then compressed, two-space
indentation, trailing newline.  The writer emits that layout, which is
json.dumps(indent=2)'s, directly and builds no intermediate object; the
loader maps labels through one dict and re-walks them only to name a bad
one.  parse o serialize is the identity on canonical documents.
"""
from __future__ import annotations

import itertools
import json

from .core import HyperringTable, _symmetric


class DocumentError(ValueError):
    """Malformed hyperring document (syntax or schema)."""


class DocumentValidationError(ValueError):
    """Document parsed but the table fails axiom validation."""

    def __init__(self, report, name):
        super().__init__(f"{name} fails validation "
                         f"({len(report.violations)} violations)")
        self.report = report


_FIELDS = ("name", "m", "n", "elements", "zero", "one",
           "commutative_f", "commutative_g", "f", "g")


def _reject_duplicates(pairs):
    out = dict(pairs)
    if len(out) != len(pairs):    # name the first repeated key
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DocumentError(f"duplicate key {key!r}")
            seen.add(key)
    return out


def parse_document(text, validate=True):
    """Parse a document into a dense validated HyperringTable.

    Validation runs by default; pass validate=False to obtain the table
    regardless (its report is then computed when `validation` is first read).
    """
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as e:
        raise DocumentError(f"parse error at line {e.lineno}, column {e.colno}: "
                            f"{e.msg}") from None
    if not isinstance(doc, dict):
        raise DocumentError("document must be a single object")
    for field in _FIELDS:
        if field not in doc:
            raise DocumentError(f"missing field {field!r}")
    for field in doc:
        if field not in _FIELDS and field != "notes":
            raise DocumentError(f"unknown field {field!r}")

    name = doc["name"]
    if not isinstance(name, str):
        raise DocumentError("name must be a string")
    m, n = doc["m"], doc["n"]
    if any(isinstance(v, bool) or not isinstance(v, int) or v < 2
           for v in (m, n)):
        raise DocumentError("m and n must be integers >= 2")
    elements = doc["elements"]
    if (not isinstance(elements, list) or not elements
            or any(not isinstance(e, str) or not e for e in elements)):
        raise DocumentError("elements must be a non-empty list of labels")
    if len(set(elements)) != len(elements):
        raise DocumentError("duplicate element labels")
    for e in elements:
        if "," in e:
            raise DocumentError(f"label {e!r} contains a comma")
    index = {e: i for i, e in enumerate(elements)}

    def look(label, where):
        # from None: parse_table's handlers call this to name a bad label
        if not isinstance(label, str):
            raise DocumentError(f"label {label!r} in {where} is not a string") from None
        if label not in index:
            raise DocumentError(f"unknown label {label!r} in {where}") from None
        return index[label]

    zero = look(doc["zero"], "zero")
    one = look(doc["one"], "one")
    comm_f, comm_g = doc["commutative_f"], doc["commutative_g"]
    if not isinstance(comm_f, bool) or not isinstance(comm_g, bool):
        raise DocumentError("commutative flags must be booleans")

    def parse_table(raw, arity, comm, which):
        if not isinstance(raw, dict):
            raise DocumentError(f"{which} must be an object")
        table = {}
        for key, value in raw.items():
            parts = key.split(",")
            if len(parts) != arity:
                raise DocumentError(f"{which} key {key!r} is not an "
                                    f"{arity}-tuple")
            try:
                t = tuple(map(index.__getitem__, parts))
            except KeyError:
                t = tuple(look(p, f"{which} key {key!r}") for p in parts)
            if comm and tuple(sorted(t)) != t:
                raise DocumentError(f"{which} key {key!r} is not "
                                    f"non-decreasing under commutative compression")
            if which == "f":
                if not isinstance(value, list):
                    raise DocumentError(f"f value for {key!r} must be an array")
                try:
                    out = frozenset(map(index.__getitem__, value))
                except (KeyError, TypeError):    # not a label, or unhashable
                    out = frozenset(look(v, f"f value for {key!r}") for v in value)
            else:
                if not isinstance(value, str):
                    raise DocumentError(f"g value for {key!r} must be a label")
                out = look(value, f"g value for {key!r}")
            if comm:
                table.update(dict.fromkeys(itertools.permutations(t), out))
            else:
                table[t] = out
        return table

    f = parse_table(doc["f"], m, comm_f, "f")
    g = parse_table(doc["g"], n, comm_g, "g")
    try:
        ring = HyperringTable(name=name, m=m, n=n, labels=elements, zero=zero,
                              one=one, f=f, g=g)
    except ValueError as e:    # a table that is not total
        raise DocumentError(str(e)) from None
    notes = doc.get("notes")
    if notes is not None and (not isinstance(notes, list)
                              or any(not isinstance(s, str) for s in notes)):
        raise DocumentError("notes must be an array of strings")
    ring.notes = tuple(notes) if notes else ()
    if validate and not ring.validation.passed:
        raise DocumentValidationError(ring.validation, name)
    return ring


def _layout(items, depth, brackets="[]"):
    """The array, or the object of '"key": value' items, of encoded items
    at the given nesting depth, laid out as json.dumps(indent=2) does."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]


def serialize_document(ring):
    """Canonical text form; deterministic byte-for-byte.  Each flag says
    whether its table is symmetric, and only then are its keys compressed.
    Each label is escaped once, and each distinct value rendered once."""
    quoted = [json.dumps(label) for label in ring.labels]
    bare = [q[1:-1] for q in quoted]

    def table_text(table, arity, show):
        keys = list(itertools.product(range(ring.size), repeat=arity))
        values = list(map(table.__getitem__, keys))
        comm = _symmetric(values, ring.size)
        if comm:
            keys = list(itertools.combinations_with_replacement(
                range(ring.size), arity))
            values = list(map(table.__getitem__, keys))
        shown = {v: show(v) for v in set(values)}
        return comm, _layout([f'"{",".join(map(bare.__getitem__, t))}": {shown[v]}'
                              for t, v in zip(keys, values)], 1, "{}")

    comm_f, f_text = table_text(
        ring.f, ring.m, lambda v: _layout([quoted[i] for i in sorted(v)], 2))
    comm_g, g_text = table_text(ring.g, ring.n, quoted.__getitem__)
    values = [json.dumps(ring.name), json.dumps(ring.m), json.dumps(ring.n),
              _layout(quoted, 1), quoted[ring.zero], quoted[ring.one],
              json.dumps(comm_f), json.dumps(comm_g), f_text, g_text]
    notes = getattr(ring, "notes", ())
    if notes:
        values.append(_layout(list(map(json.dumps, notes)), 1))
    return _layout([f'"{field}": {value}' for field, value
                    in zip(_FIELDS + ("notes",), values)], 0, "{}") + "\n"


def load_path(path, validate=True):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read(), validate=validate)
