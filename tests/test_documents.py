import itertools
import json
import re

import pytest

from hyperrings.construct import direct_product, quotient
from hyperrings.core import HyperringTable, ValidationReport, _symmetric
from hyperrings.corpus import DOCUMENT_FILES, builtin_corpus, document_text
from hyperrings.documents import (DocumentError, DocumentValidationError,
                                  parse_document, serialize_document)
from hyperrings.ideals import ideal_from_labels, proper_hyperideals

from conftest import load_gen, mutate


def reference_serialize(ring):
    """The canonical text as json.dumps(indent=2) lays out the canonical
    object: the reference for the writer, which emits that layout itself."""
    def layout(table, arity):
        keys = list(itertools.product(range(ring.size), repeat=arity))
        if _symmetric(list(map(table.__getitem__, keys)), ring.size):
            return True, itertools.combinations_with_replacement(
                range(ring.size), arity)
        return False, keys

    comm_f, f_keys = layout(ring.f, ring.m)
    comm_g, g_keys = layout(ring.g, ring.n)
    doc = {
        "name": ring.name,
        "m": ring.m,
        "n": ring.n,
        "elements": list(ring.labels),
        "zero": ring.labels[ring.zero],
        "one": ring.labels[ring.one],
        "commutative_f": comm_f,
        "commutative_g": comm_g,
        "f": {ring.tuple_label(t): [ring.labels[i] for i in sorted(ring.f[t])]
              for t in f_keys},
        "g": {ring.tuple_label(t): ring.labels[ring.g[t]] for t in g_keys},
    }
    notes = getattr(ring, "notes", ())
    if notes:
        doc["notes"] = list(notes)
    return json.dumps(doc, indent=2) + "\n"


def edited(filename, table, key, value):
    """A shipped document with one entry of f or g set."""
    doc = json.loads(document_text(filename))
    doc[table][key] = value
    return json.dumps(doc, indent=2)


class TestParse:
    def test_shipped_g(self):
        ring = parse_document(document_text("g.json"))
        assert ring.size == 6
        assert ring.validation.passed

    def test_shipped_h_fails_validation(self):
        with pytest.raises(DocumentValidationError) as err:
            parse_document(document_text("h.json"))
        assert not err.value.report.passed
        ring = parse_document(document_text("h.json"), validate=False)
        assert ring.size == 3
        assert ring.notes

    def test_missing_entry_named(self):
        doc = json.loads(document_text("g.json"))
        doc["commutative_f"] = False  # dense keys now required
        with pytest.raises(DocumentError, match="missing entry"):
            parse_document(json.dumps(doc))

    def test_unknown_label(self):
        doc = json.loads(document_text("g.json"))
        doc["zero"] = "9"
        with pytest.raises(DocumentError, match="unknown label"):
            parse_document(json.dumps(doc))

    @pytest.mark.parametrize("field, value", [("zero", []), ("one", []),
                                              ("zero", 0), ("one", None)])
    def test_a_label_that_is_not_a_string(self, field, value):
        doc = json.loads(document_text("g.json"))
        doc[field] = value
        message = f"label {value!r} in {field} is not a string"
        with pytest.raises(DocumentError, match=re.escape(message)):
            parse_document(json.dumps(doc))

    @pytest.mark.parametrize("entry", [["0"], 0, None])
    def test_an_f_value_entry_that_is_not_a_string(self, entry):
        doc = json.loads(document_text("g.json"))
        doc["f"]["0,0"] = ["0", entry]
        with pytest.raises(DocumentError,
                           match="f value for '0,0' is not a string"):
            parse_document(json.dumps(doc))

    @pytest.mark.parametrize("name", [5, None, ["G"]])
    def test_name_must_be_a_string(self, name):
        doc = json.loads(document_text("g.json"))
        doc["name"] = name
        with pytest.raises(DocumentError, match="name must be a string"):
            parse_document(json.dumps(doc))

    def test_duplicate_keys_rejected(self):
        text = document_text("one.json").replace(
            '"f": {', '"f": {\n    "0,0": ["0"],')
        with pytest.raises(DocumentError, match="duplicate key"):
            parse_document(text)

    def test_syntax_error_carries_position(self):
        with pytest.raises(DocumentError, match="line"):
            parse_document("{\n  broken\n}")

    def test_comma_in_label_rejected(self):
        doc = json.loads(document_text("one.json"))
        doc["elements"] = ["a,b"]
        with pytest.raises(DocumentError, match="comma"):
            parse_document(json.dumps(doc))

    def test_non_sorted_commutative_key_rejected(self):
        doc = json.loads(document_text("g.json"))
        doc["f"]["1,0"] = ["1"]
        with pytest.raises(DocumentError, match="non-decreasing"):
            parse_document(json.dumps(doc))

    # the exact messages: the first bad label is named, and the checks run
    # in order: arity, labels, non-decreasing, then the value's type
    @pytest.mark.parametrize("text, message", [
        pytest.param(edited("g.json", "f", "0,9", ["0"]),
                     "unknown label '9' in f key '0,9'", id="key-label"),
        pytest.param(edited("g.json", "f", "0,0", ["0", "9"]),
                     "unknown label '9' in f value for '0,0'",
                     id="f-value-label"),
        pytest.param(edited("g.json", "f", "0,0", ["0", 5]),
                     "label 5 in f value for '0,0' is not a string",
                     id="f-value-int"),
        pytest.param(edited("g.json", "f", "0,1", ["1", ["2"]]),
                     "label ['2'] in f value for '0,1' is not a string",
                     id="f-value-nested-list"),
        pytest.param(edited("g.json", "f", "0,0", "0"),
                     "f value for '0,0' must be an array", id="f-value-not-list"),
        pytest.param(edited("g.json", "g", "0,0", 0),
                     "g value for '0,0' must be a label", id="g-value-not-string"),
        pytest.param(edited("g.json", "g", "0,0", "9"),
                     "unknown label '9' in g value for '0,0'", id="g-value-label"),
        pytest.param(edited("g.json", "f", "0,0,0", ["0"]),
                     "f key '0,0,0' is not an 2-tuple", id="arity"),
        pytest.param(edited("h.json", "f", "2,1,9", ["0"]),
                     "unknown label '9' in f key '2,1,9'",
                     id="unordered-key-label"),
        pytest.param(edited("h.json", "f", "2,1,0", ["0"]),
                     "f key '2,1,0' is not non-decreasing under commutative "
                     "compression", id="unordered-key"),
        pytest.param(document_text("one.json").replace(
            '"f": {', '"f": {\n    "0,0": ["0"],'),
            "duplicate key '0,0'", id="duplicate-f-key"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(DocumentError) as error:
            parse_document(text, validate=False)
        assert str(error.value) == message
        assert error.value.__suppress_context__ or error.value.__context__ is None


class TestRoundTrip:
    def test_shipped_documents_are_canonical(self):
        for filename in DOCUMENT_FILES:
            text = document_text(filename)
            ring = parse_document(text, validate=False)
            assert serialize_document(ring) == text, filename

    def test_non_canonical_formatting_parses_to_canonical(self):
        # shuffled field order and compact whitespace still parse; the
        # serializer restores the canonical bytes
        doc = json.loads(document_text("g.json"))
        shuffled = {k: doc[k] for k in
                    ("g", "f", "one", "zero", "elements", "n", "m",
                     "commutative_g", "commutative_f", "name")}
        ring = parse_document(json.dumps(shuffled, separators=(",", ":")))
        assert serialize_document(ring) == document_text("g.json")

    def test_commutative_expansion_is_dense(self):
        ring = parse_document(document_text("g.json"))
        one, two = ring.index("1"), ring.index("2")
        assert ring.f[(two, one)] == ring.f[(one, two)]
        assert ring.g[(two, one)] == ring.g[(one, two)]

    def test_serialize_product_reparses(self, G):
        prod = direct_product(G, G)
        text = serialize_document(prod)
        back = parse_document(text)
        assert back.validation.passed
        assert back.size == 36
        assert serialize_document(back) == text

    def test_non_commutative_g_is_written_dense(self, T):
        # g(2,0) = 3 while g(0,2) = 0: compressed keys would drop one
        text = serialize_document(T)
        doc = json.loads(text)
        assert doc["commutative_f"] is True
        assert doc["commutative_g"] is False
        assert len(doc["g"]) == T.size ** 2
        back = parse_document(text, validate=False)
        assert back.g[(T.index("2"), T.zero)] == T.index("3")
        assert back.g == T.g
        assert serialize_document(back) == text

    @pytest.mark.parametrize("orbit", [
        [(1, 2, 3), (2, 3, 1), (3, 1, 2)],    # invariant under rotation only
        [(1, 2, 3), (1, 3, 2)],               # under the last swap only
    ])
    def test_partly_symmetric_g_is_written_dense(self, folds, orbit):
        ring = folds[1]    # the (2,3) fold of G
        ring = mutate(ring, "G^(2,3)-skew",
                      g_overrides=dict.fromkeys(orbit, ring.index("3")))
        doc = json.loads(serialize_document(ring))
        assert doc["commutative_g"] is False
        assert parse_document(serialize_document(ring), validate=False).g == ring.g

    def test_serialize_quotient_reparses(self, G):
        table, _ = quotient(G, ideal_from_labels(G, "0,6"))
        text = serialize_document(table)
        back = parse_document(text)
        assert back.labels == ("0+6", "1", "2+4", "3")
        assert serialize_document(back) == text


def escaped_table():
    """Labels, name and notes that need JSON escapes, one empty f value,
    and a non-commutative f, so that f is written dense."""
    labels = ["0", 'a"b', "c\\d", "\u00e9", "t\tu", "\x01", "\U0001d53d"]
    size = len(labels)
    pairs = list(itertools.product(range(size), repeat=2))
    f = {(a, b): {a} if b == 0 else {b} if a == 0 else {max(a, b)}
         for a, b in pairs}
    f[(2, 1)] = set()
    ring = HyperringTable('\u00e9"\\\n', 2, 2, labels, 0, 1, f,
                          {(a, b): a * b % size for a, b in pairs})
    ring.notes = ('quote " and backslash \\', "\u00e9\t\U0001d53d", "")
    return ring


class TestWriter:
    """The writer emits json.dumps(indent=2)'s layout itself: it must give
    the reference's bytes on every table."""

    def test_krasner_corpus_and_its_quotients(self):
        count = 0
        for item in load_gen().krasner_corpus():
            ring = parse_document(item.text)
            assert serialize_document(ring) == reference_serialize(ring) == item.text
            for p in proper_hyperideals(ring):
                table, _ = quotient(ring, p)
                assert serialize_document(table) == reference_serialize(table), \
                    table.name
                count += 1
        assert count > 130

    def test_built_in_corpus_folds_and_t(self, corpus, folds, T):
        for ring in corpus + folds + [T]:
            assert serialize_document(ring) == reference_serialize(ring), ring.name

    def test_labels_and_notes_with_escapes(self):
        ring = escaped_table()
        text = serialize_document(ring)
        assert text == reference_serialize(ring)
        doc = json.loads(text)
        assert doc["commutative_f"] is False and doc["f"]["c\\d,a\"b"] == []
        back = parse_document(text, validate=False)
        assert (back.labels, back.f, back.g, back.notes) == (
            ring.labels, ring.f, ring.g, ring.notes)
        assert serialize_document(back) == text


class TestCorpus:
    def test_membership_and_order(self, corpus):
        assert [r.name for r in corpus] == [
            "G", "H", "GxG", "G/{0,6}", "G/{0,2,4,6}", "one"]
        assert corpus[0].size == 6
        assert corpus[1].size == 3 and (corpus[1].m, corpus[1].n) == (3, 3)
        assert corpus[2].size == 36
        assert corpus[5].size == 1

    def test_validation_attached_everywhere(self, corpus):
        for ring in corpus:
            assert isinstance(ring.validation, ValidationReport)
        assert corpus[1].validation_waived
        assert not corpus[0].validation_waived

    def test_shipped_derived_documents_match_construction(self, G, GxG,
                                                          G_mod_06,
                                                          G_mod_0246):
        assert serialize_document(GxG) == document_text("gxg.json")
        assert serialize_document(G_mod_06) == document_text("g_mod_06.json")
        assert serialize_document(G_mod_0246) == document_text("g_mod_0246.json")

    def test_corpus_is_cached(self):
        assert builtin_corpus() is builtin_corpus()
