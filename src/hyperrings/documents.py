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
indentation, trailing newline.  parse o serialize is the identity on
canonical documents.
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
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise DocumentError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


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
        if not isinstance(label, str):
            raise DocumentError(f"label {label!r} in {where} is not a string")
        if label not in index:
            raise DocumentError(f"unknown label {label!r} in {where}")
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
            t = tuple(look(p, f"{which} key {key!r}") for p in parts)
            if comm and tuple(sorted(t)) != t:
                raise DocumentError(f"{which} key {key!r} is not "
                                    f"non-decreasing under commutative compression")
            if which == "f":
                if not isinstance(value, list):
                    raise DocumentError(f"f value for {key!r} must be an array")
                out = frozenset(look(v, f"f value for {key!r}") for v in value)
            else:
                if not isinstance(value, str):
                    raise DocumentError(f"g value for {key!r} must be a label")
                out = look(value, f"g value for {key!r}")
            for perm in set(itertools.permutations(t)) if comm else (t,):
                table[perm] = out
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


def serialize_document(ring):
    """Canonical text form; deterministic byte-for-byte.  Each flag says
    whether its table is symmetric, and only then are its keys compressed."""
    def layout(table, arity):
        keys = list(itertools.product(range(ring.size), repeat=arity))
        if _symmetric(list(map(table.__getitem__, keys)), ring.size):
            return True, itertools.combinations_with_replacement(
                range(ring.size), arity)
        return False, keys

    comm_f, f_keys = layout(ring.f, ring.m)
    comm_g, g_keys = layout(ring.g, ring.n)
    f_obj = {ring.tuple_label(t): [ring.labels[i] for i in sorted(ring.f[t])]
             for t in f_keys}
    g_obj = {ring.tuple_label(t): ring.labels[ring.g[t]] for t in g_keys}

    doc = {
        "name": ring.name,
        "m": ring.m,
        "n": ring.n,
        "elements": list(ring.labels),
        "zero": ring.labels[ring.zero],
        "one": ring.labels[ring.one],
        "commutative_f": comm_f,
        "commutative_g": comm_g,
        "f": f_obj,
        "g": g_obj,
    }
    notes = getattr(ring, "notes", ())
    if notes:
        doc["notes"] = list(notes)
    return json.dumps(doc, indent=2) + "\n"


def load_path(path, validate=True):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read(), validate=validate)
