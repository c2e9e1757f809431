import json
import re

import pytest

from hyperrings.construct import direct_product, quotient
from hyperrings.core import ValidationReport
from hyperrings.corpus import DOCUMENT_FILES, builtin_corpus, document_text
from hyperrings.documents import (DocumentError, DocumentValidationError,
                                  parse_document, serialize_document)
from hyperrings.ideals import ideal_from_labels

from conftest import mutate


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
