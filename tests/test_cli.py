import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from wroca import Dwa, Dwroca, InternalError, cli
from wroca.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def e1_file(tmp_path, e1):
    path = tmp_path / "e1.json"
    path.write_text(json.dumps(e1.to_json()))
    return str(path)


@pytest.fixture
def e1p_file(tmp_path, e1p):
    path = tmp_path / "e1p.json"
    path.write_text(json.dumps(e1p.to_json()))
    return str(path)


@pytest.fixture
def broken_file(tmp_path, e1):
    doc = e1.to_json()
    doc["delta0"][0]["ce"] = -1
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestValidate:
    def test_valid_file(self, e1_file):
        code, out, _ = run_cli("validate", e1_file)
        assert code == 0 and out.strip() == "OK"

    def test_violations_exit_one(self, broken_file):
        code, out, _ = run_cli("validate", broken_file)
        assert code == 1
        assert "zero-test decrement" in out

    def test_missing_file_exit_two(self, tmp_path):
        code, _, err = run_cli("validate", str(tmp_path / "nope.json"))
        assert code == 2 and "error" in err

    def test_malformed_json_exit_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli("validate", str(path))
        assert code == 2

    def test_non_string_entry_name_exit_two(self, tmp_path, e1):
        doc = e1.to_json()
        doc["delta0"][0]["on"] = ["a"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli("validate", str(path))
        assert code == 2 and err.startswith("error:")

    def test_json_mode(self, broken_file):
        code, out, _ = run_cli("--json", "validate", broken_file)
        doc = json.loads(out)
        assert code == 1 and doc["ok"] is False and doc["violations"]


@pytest.mark.parametrize(
    "argv",
    [
        ["equiv", "{f}", "{f}", "--bound", "-1"],
        ["equiv", "{f}", "{f}", "--method", "oracle", "--max-len", "-1"],
        ["equiv", "{f}", "{f}", "--budget", "-5"],
        ["unfold", "{f}", "-", "--bound", "-1"],
        ["bounds", "--k", "2", "--initial-coeff", "0"],
        ["random", "-", "--seed", "1", "--min-states", "0"],
        ["random", "-", "--seed", "1", "--density", "2"],
    ],
    ids=["bound", "max-len", "budget", "unfold-bound", "coeff", "min-states", "density"],
)
def test_out_of_range_number_exit_two(argv, e1_file):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main([arg.format(f=e1_file) for arg in argv])
        except SystemExit as exc:  # argparse rejects the value before any command runs
            code = exc.code
    assert code == 2
    assert "error:" in err.getvalue() and "Traceback" not in err.getvalue()


class TestEval:
    def test_word(self, e1_file):
        code, out, _ = run_cli("eval", e1_file, "a,a,a")
        assert code == 0 and out.strip() == "8"

    def test_letters_flag(self, e1_file):
        code, out, _ = run_cli("eval", e1_file, "aaa", "--letters")
        assert code == 0 and out.strip() == "8"

    def test_empty_word(self, e1_file):
        code, out, _ = run_cli("eval", e1_file, "--empty")
        assert code == 0 and out.strip() == "1"

    def test_undefined_prints_zero_completion(self, tmp_path, Q):
        dead = Dwroca(["q0"], ["a"], "q0", Q.one(), {}, {}, {"q0": Q.one()})
        path = tmp_path / "dead.json"
        path.write_text(json.dumps(dead.to_json()))
        code, out, _ = run_cli("eval", str(path), "a")
        assert code == 0 and "undefined -> 0" in out

    def test_unknown_symbol_exit_three(self, e1_file):
        code, _, err = run_cli("eval", e1_file, "b")
        assert code == 3

    def test_invalid_automaton_exit_two(self, broken_file):
        code, _, _ = run_cli("eval", broken_file, "a")
        assert code == 2

    def test_json_output(self, e1_file):
        code, out, _ = run_cli("--json", "eval", e1_file, "a,a")
        doc = json.loads(out)
        assert doc == {"word": ["a", "a"], "defined": True, "weight": "4"}


class TestEquiv:
    def test_equal_files(self, e1_file):
        code, out, _ = run_cli("equiv", e1_file, e1_file, "--bound", "12")
        assert code == 0 and "equivalent" in out

    def test_witness_found(self, e1_file, e1p_file):
        code, out, _ = run_cli("equiv", e1_file, e1p_file)
        assert code == 1
        assert "2" in out and "3" in out

    def test_json_schema(self, e1_file, e1p_file):
        code, out, _ = run_cli("--json", "equiv", e1_file, e1p_file, "--bound", "12")
        doc = json.loads(out)
        assert code == 1
        assert doc["outcome"] == "not_equivalent"
        assert doc["witness"] == "a"
        assert doc["witness_symbols"] == ["a"]
        assert doc["f1"] == "2" and doc["f2"] == "3"
        assert doc["mode"] == "bounded" and doc["bound"] == 12
        assert set(doc["stats"]) == {"explored_words", "basis_size", "max_counter_row"}

    def test_oracle_method(self, e1_file):
        code, out, _ = run_cli("--json", "equiv", e1_file, e1_file, "--method", "oracle", "--max-len", "6")
        doc = json.loads(out)
        assert code == 0
        assert doc["outcome"] == "equivalent" and doc["mode"] == "bounded" and doc["bound"] == 6

    def test_oracle_witness(self, e1_file, e1p_file):
        code, out, _ = run_cli("--json", "equiv", e1_file, e1p_file, "--method", "oracle", "--max-len", "6")
        doc = json.loads(out)
        assert code == 1 and doc["witness"] == "a"
        assert doc["f1"] == "2" and doc["f2"] == "3"

    def test_conflicting_flags(self, e1_file):
        code, _, err = run_cli("equiv", e1_file, e1_file, "--method", "oracle", "--bound", "3", "--max-len", "3")
        assert code == 2
        code, _, err = run_cli("equiv", e1_file, e1_file, "--max-len", "3")
        assert code == 2
        code, _, err = run_cli("equiv", e1_file, e1_file, "--method", "oracle")
        assert code == 2

    def test_budget_exit_four(self, e1_file):
        code, _, err = run_cli("equiv", e1_file, e1_file, "--budget", "100")
        assert code == 4

    def test_alphabet_mismatch_exit_two(self, e1_file, tmp_path, Q):
        other = Dwroca(["q0"], ["b"], "q0", Q.one(), {}, {}, {"q0": Q.one()})
        path = tmp_path / "other.json"
        path.write_text(json.dumps(other.to_json()))
        code, _, _ = run_cli("equiv", e1_file, str(path))
        assert code == 2

    def test_internal_error_exit_six(self, e1_file, e1p_file, monkeypatch):
        def broken(*args, **kwargs):
            raise InternalError("search and replay disagree")

        monkeypatch.setattr(cli, "check_equivalence", broken)
        code, _, err = run_cli("equiv", e1_file, e1p_file)
        assert code == 6
        assert "internal error" in err

    def test_byte_identical_json(self, e1_file, e1p_file):
        _, first, _ = run_cli("--json", "equiv", e1_file, e1p_file, "--bound", "12")
        _, second, _ = run_cli("--json", "equiv", e1_file, e1p_file, "--bound", "12")
        assert first == second


class TestUnfold:
    def test_writes_two_state_unfolding(self, e1_file, tmp_path):
        out_path = tmp_path / "unfolded.json"
        code, _, _ = run_cli("unfold", e1_file, str(out_path), "--bound", "1")
        assert code == 0
        doc = json.loads(out_path.read_text())
        wa = Dwa.from_json(doc)
        assert wa.states == ("q0#0", "q0#1")
        assert wa.initial == (0, wa.field.one())

    def test_bound_zero_clips_up_moves(self, e1_file, tmp_path):
        out_path = tmp_path / "u0.json"
        code, _, _ = run_cli("unfold", e1_file, str(out_path), "--bound", "0")
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["states"] == ["q0#0"] and doc["delta"] == []

    def test_stdout_output(self, e1_file):
        code, out, _ = run_cli("unfold", e1_file, "-", "--bound", "1")
        assert code == 0
        assert json.loads(out)["states"] == ["q0#0", "q0#1"]

    def test_over_cap_exit_five(self, e1_file, tmp_path):
        code, _, err = run_cli("unfold", e1_file, str(tmp_path / "x.json"), "--bound", str(10**8))
        assert code == 5

    def test_env_cap_override(self, e1_file, tmp_path, monkeypatch):
        monkeypatch.setenv("WROCA_STATE_CAP", "3")
        code, _, _ = run_cli("unfold", e1_file, str(tmp_path / "x.json"), "--bound", "5")
        assert code == 5
        monkeypatch.setenv("WROCA_STATE_CAP", "10")
        code, _, _ = run_cli("unfold", e1_file, str(tmp_path / "x.json"), "--bound", "5")
        assert code == 0

    @pytest.mark.parametrize("raw", ["-3", "ten"])
    def test_env_cap_rejected(self, e1_file, tmp_path, monkeypatch, raw):
        monkeypatch.setenv("WROCA_STATE_CAP", raw)
        code, _, err = run_cli("unfold", e1_file, str(tmp_path / "x.json"), "--bound", "1")
        assert code == 2
        assert "WROCA_STATE_CAP" in err


class TestBounds:
    def test_k_two_exact(self):
        code, out, _ = run_cli("--json", "bounds", "--k", "2")
        doc = json.loads(out)
        assert code == 0
        assert doc["counter_bound"] == 295810
        assert doc["witness_bound"] == 700028448800

    def test_k_one_positive(self):
        code, out, _ = run_cli("--json", "bounds", "--k", "1")
        doc = json.loads(out)
        assert code == 0 and all(v > 0 for v in doc.values())

    def test_two_singleton_files_match_k_two(self, e1_file, e1p_file):
        code, out, _ = run_cli("--json", "bounds", e1_file, e1p_file)
        doc = json.loads(out)
        assert code == 0 and doc["k"] == 2 and doc["witness_bound"] == 700028448800

    def test_custom_coefficients(self):
        code, out, _ = run_cli("--json", "bounds", "--k", "2", "--initial-coeff", "1", "--belt-coeff", "1")
        doc = json.loads(out)
        assert doc["initial_space"] == 64 and doc["belt_thickness"] == 16

    def test_conflicting_usage(self, e1_file):
        code, _, _ = run_cli("bounds", e1_file, "--k", "2")
        assert code == 2
        code, _, _ = run_cli("bounds", e1_file)
        assert code == 2

    def test_human_output_has_exact_integers(self):
        code, out, _ = run_cli("bounds", "--k", "2")
        assert "295810" in out and "700028448800" in out


class TestRandom:
    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run_cli("random", str(path), "--seed", "11")
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_validates(self, tmp_path):
        path = tmp_path / "r.json"
        run_cli("random", str(path), "--seed", "3", "--field", "gf:7")
        code, out, _ = run_cli("validate", str(path))
        assert code == 0

    def test_bad_field_exit_two(self, tmp_path):
        code, _, _ = run_cli("random", str(tmp_path / "r.json"), "--seed", "1", "--field", "gf:6")
        assert code == 2


class TestPumpcheck:
    def test_empty_interval_list(self, e1_file):
        code, out, _ = run_cli("pumpcheck", e1_file, "a,a,a", "")
        assert code == 0 and "pumping" in out

    def test_valid_loop(self, e1_file):
        code, _, _ = run_cli("pumpcheck", e1_file, "a,a,a", "1-2")
        assert code == 0

    def test_non_pumping_exit_one(self, e1_file):
        code, out, _ = run_cli("pumpcheck", e1_file, "a,a,a", "0-0")
        assert code == 1 and "not a pumping" in out

    def test_out_of_bounds_exit_two(self, e1_file):
        code, _, _ = run_cli("pumpcheck", e1_file, "a", "0-5")
        assert code == 2

    def test_bad_interval_syntax(self, e1_file):
        code, _, _ = run_cli("pumpcheck", e1_file, "a", "zap")
        assert code == 2
