"""Built-in corpus: the six reference structures the workbench ships with.

G is the six-class quotient of the integers mod 12 by its unit group,
with set-valued addition and class multiplication.  H is a three-element
(3,3)-structure transcribed from a partially specified table; the best
effort completion does not satisfy every axiom, so H is kept as a
known-deviant fixture whose failing report is waived.  The rest are
derived: the direct product G x G, two quotients of G, and the one
element hyperring.
"""
from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .construct import direct_product, quotient
from .documents import parse_document
from .ideals import ideal_from_labels

DOCUMENT_FILES = ("g.json", "h.json", "gxg.json", "g_mod_06.json",
                  "g_mod_0246.json", "one.json")


def document_text(filename):
    return resources.files("hyperrings.data").joinpath(filename).read_text("utf-8")


def _load(filename, waive_validation=False):
    ring = parse_document(document_text(filename), validate=not waive_validation)
    ring.validation_waived = waive_validation
    return ring


@lru_cache(maxsize=None)
def builtin_corpus():
    """G, H, GxG, G/{0,6}, G/{0,2,4,6} and the one-element hyperring."""
    g = _load("g.json")
    h = _load("h.json", waive_validation=True)
    gxg = direct_product(g, g)
    q06, _ = quotient(g, ideal_from_labels(g, "0,6"))
    q0246, _ = quotient(g, ideal_from_labels(g, "0,2,4,6"))
    one = _load("one.json")
    return [g, h, gxg, q06, q0246, one]
