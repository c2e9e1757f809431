from pathlib import Path

import pytest

from hyperrings import cli
from hyperrings.classify import InternalInconsistencyError
from hyperrings.cli import main
from hyperrings.corpus import document_text

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    for name in ("g.json", "h.json", "one.json"):
        (root / name).write_text(document_text(name))
    return root


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_g_passes(self, docs, capsys):
        code, out, _ = run(capsys, "validate", str(docs / "g.json"))
        assert code == 0
        assert "status: PASSED" in out

    def test_h_fails_with_report(self, docs, capsys):
        code, out, _ = run(capsys, "validate", str(docs / "h.json"))
        assert code == 1
        assert "status: FAILED" in out
        assert "distributivity" in out

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent.json")
        assert code == 2

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "line" in err


class TestIdeals:
    def test_lists_all_six(self, docs, capsys):
        code, out, _ = run(capsys, "ideals", str(docs / "g.json"))
        assert code == 0
        assert out.splitlines() == [
            "0", "0,4", "0,6", "0,3,6", "0,2,4,6", "0,1,2,3,4,6"]

    def test_invalid_file_refused_without_flag(self, docs, capsys):
        code, _, err = run(capsys, "ideals", str(docs / "h.json"))
        assert code == 1
        assert "validation failed" in err

    def test_no_validate_flag(self, docs, capsys):
        code, out, _ = run(capsys, "ideals", str(docs / "h.json"),
                           "--no-validate")
        assert code == 0
        assert out.splitlines() == ["0", "0,1,2"]


class TestRadical:
    def test_both_algorithms_printed(self, docs, capsys):
        code, out, _ = run(capsys, "radical", str(docs / "g.json"),
                           "--ideal", "0,4")
        assert code == 0
        assert "radical_by_primes: 0,2,4,6" in out
        assert "radical_by_powers: 0,2,4,6" in out
        assert "agree: yes" in out

    def test_disagreement_is_exit_one(self, docs, capsys):
        # {0,2} is not an ideal of the deviant H table; the algorithms split
        code, out, _ = run(capsys, "radical", str(docs / "h.json"),
                           "--ideal", "0,2", "--no-validate")
        assert code == 1
        assert "agree: no" in out
        assert "warning" in out


class TestClassify:
    def test_04_record(self, docs, capsys):
        code, out, _ = run(capsys, "classify", str(docs / "g.json"),
                           "--ideal", "0,4")
        assert code == 0
        assert "q_primary=true" in out
        assert "sq_primary=true" in out
        assert "prime=false" in out
        assert "witness: (2,2)" in out

    def test_kmax_three(self, docs, capsys):
        code, out, _ = run(capsys, "classify", str(docs / "g.json"),
                           "--ideal", "0,4", "--kmax", "3")
        assert code == 0
        assert "absorbing_q_primary_k3=true" in out

    def test_h_t02(self, docs, capsys):
        code, out, _ = run(capsys, "classify", str(docs / "h.json"),
                           "--ideal", "0,2", "--no-validate")
        assert code == 0
        assert "is_hyperideal=false" in out
        assert "sq_primary=true" in out

    def test_unknown_label(self, docs, capsys):
        code, _, err = run(capsys, "classify", str(docs / "g.json"),
                           "--ideal", "0,9")
        assert code == 2

    def test_improper_ideal(self, docs, capsys):
        code, _, err = run(capsys, "classify", str(docs / "g.json"),
                           "--ideal", "0,1,2,3,4,6")
        assert code == 2
        assert "improper" in err

    def test_internal_inconsistency_is_an_error_not_a_traceback(
            self, docs, capsys, monkeypatch):
        def inconsistent(ideal, k_max):
            raise InternalInconsistencyError("sq_primary holds but q_primary fails")
        monkeypatch.setattr(cli, "classify", inconsistent)
        code, out, err = run(capsys, "classify", str(docs / "g.json"),
                             "--ideal", "0,4")
        assert code == 1
        assert out == ""
        assert err == ("error: internal inconsistency: "
                       "sq_primary holds but q_primary fails\n")


class TestProductAndQuotient:
    def test_product_roundtrip(self, docs, tmp_path, capsys):
        out_path = tmp_path / "gxg.json"
        code, out, _ = run(capsys, "product", str(docs / "g.json"),
                           str(docs / "g.json"), "-o", str(out_path))
        assert code == 0
        assert out_path.read_text() == document_text("gxg.json")

    def test_quotient_writes_document(self, docs, tmp_path, capsys):
        out_path = tmp_path / "q.json"
        code, out, _ = run(capsys, "quotient", str(docs / "g.json"),
                           "--ideal", "0,6", "-o", str(out_path))
        assert code == 0
        assert out_path.read_text() == document_text("g_mod_06.json")

    def test_quotient_by_non_ideal_fails(self, docs, tmp_path, capsys):
        code, _, err = run(capsys, "quotient", str(docs / "g.json"),
                           "--ideal", "0,2", "-o", str(tmp_path / "x.json"))
        assert code == 1
        assert "not a hyperideal" in err

    def test_product_arity_mismatch(self, docs, tmp_path, capsys):
        code, _, err = run(capsys, "product", str(docs / "g.json"),
                           str(docs / "h.json"), "-o", str(tmp_path / "x.json"),
                           "--no-validate")
        assert code == 2
        assert "arity" in err


class TestTheorems:
    def test_single_file(self, docs, capsys):
        code, out, _ = run(capsys, "theorems", str(docs / "g.json"))
        assert code == 0
        assert "Thm 3.3: pass" in out
        assert "fail: 0" in out

    def test_builtin_corpus_golden(self, capsys):
        code, out, _ = run(capsys, "theorems")
        assert code == 0
        assert out.encode() == (GOLDEN / "theorems_builtin.txt").read_bytes()

    def test_missing_theorem_file(self, capsys):
        assert run(capsys, "theorems", "/nonexistent.json")[0] == 2

    def test_usage_error(self, capsys):
        assert run(capsys, "nonsense")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_no_arguments_is_usage_error(self, capsys):
        assert run(capsys)[0] == 2
