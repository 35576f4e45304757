import argparse
import codecs
import importlib.util
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import wroca
from wroca import Dwa, Dwroca, InternalError, cli, core
from wroca.cli import main


ROOT = Path(__file__).resolve().parents[1]
SRC_ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def counted_validation_passes(monkeypatch) -> list:
    """The machines that ``core._violations`` walks from now on, one entry
    per pass, in call order."""
    validated = []
    original = core._violations

    def counting(machine, *args):
        validated.append(machine)
        return original(machine, *args)

    monkeypatch.setattr(core, "_violations", counting)
    return validated


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
def flat_file(tmp_path, e1_flat):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(e1_flat.to_json()))
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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t.replace('"1"', '"' + "1" * 5000 + '"', 1), "element of 5000 characters has more digits"),
            (
                lambda t: t.replace('"rational"}', '"gf", "p": 7}').replace('"2"}]', '"-' + "2" * 4400 + '"}]'),
                "element of 4401 characters has more digits",
            ),
            (lambda t: t.replace('"ce": 1', '"ce": ' + "1" * 4301, 1), "{path}: Exceeds the limit (4300 digits)"),
            (lambda t: "\udcff" + t, "{path}: 'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["q_weight", "gf_weight", "json_number", "not_utf8"],
    )
    def test_unconvertible_input_exit_two(self, tmp_path, e1, edit, message):
        path = tmp_path / "big.json"
        path.write_bytes(edit(json.dumps(e1.to_json())).encode("utf-8", "surrogateescape"))
        code, out, err = run_cli("validate", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: " + message.format(path=path)) and err.count("\n") == 1

    @pytest.mark.parametrize("bom, encoding", [(codecs.BOM_UTF16_LE, "utf-16-le"), (codecs.BOM_UTF16_BE, "utf-16-be")])
    def test_utf16_document_exit_two(self, tmp_path, e1, bom, encoding):
        # a document is UTF-8: json.loads would read UTF-16 bytes, but the CLI decodes them first
        path = tmp_path / "utf16.json"
        path.write_bytes(bom + json.dumps(e1.to_json()).encode(encoding))
        code, out, err = run_cli("validate", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0x{bom[0]:x}")

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
        ["equiv", "{f}", "{f}", "--budget", "-5"],
        ["unfold", "{f}", "-", "--bound", "-1"],
        ["random", "-", "--seed", "1", "--min-states", "0"],
        ["random", "-", "--seed", "1", "--density", "2"],
    ],
    ids=["bound", "budget", "unfold-bound", "min-states", "density"],
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


@pytest.mark.parametrize(
    "argv",
    [
        ["equiv", "{f}", "{f}", "--method", "oracle", "--max-len", "3"],
        ["bounds", "--k", "2", "--initial-coeff", "1"],
        ["bounds", "--k", "2", "--belt-coeff", "1"],
    ],
    ids=["max-len", "initial-coeff", "belt-coeff"],
)
def test_removed_options_are_unknown_arguments(argv, e1_file):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main([arg.format(f=e1_file) for arg in argv])
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {argv[-2]}" in err.getvalue()


def test_option_inventory():
    # Every option the CLI takes, per subcommand: a new knob shows up here
    # as a diff that its change has to justify.
    def options(parser):
        return sorted(flag for action in parser._actions for flag in action.option_strings)

    parser = cli.build_parser()
    (commands,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    assert options(parser) == ["--help", "--json", "-h"]
    assert {name: options(sub) for name, sub in commands.choices.items()} == {
        "validate": ["--help", "-h"],
        "eval": ["--empty", "--help", "--letters", "-h"],
        "equiv": ["--bound", "--budget", "--help", "--method", "-h"],
        "unfold": ["--bound", "--help", "-h"],
        "bounds": ["--help", "--k", "-h"],
        "random": [
            "--alphabet-size", "--density", "--field", "--help", "--max-states", "--min-states", "--seed",
            "--zero-final-prob", "-h",
        ],
        "pumpcheck": ["--empty", "--help", "--letters", "-h"],
    }


def test_public_surface():
    # Every name the package exports: a new one shows up here as a diff
    # that its change has to justify, as a new option does above.
    assert sorted(wroca.__all__) == [
        "Alphabet", "AlphabetMismatch", "BoundReport", "BoundTooLarge", "Configuration", "DivisionByZero",
        "Dwa", "Dwroca", "EquivalenceVerdict", "FieldElement", "FieldMismatch", "FieldSpec",
        "InternalError", "IntervalOutOfBounds", "InvalidAutomaton", "LazyUnfolding", "ParseError",
        "PreconditionViolated", "ResourceBudgetExceeded", "SearchStats",
        "UnknownSymbol", "WaConfig", "Witness", "WrocaError", "bounds_for_k", "check_equivalence",
        "compute_bounds", "dwa_equiv", "parse_element", "prime_field", "rational",
        "render_word", "replay_witness", "underlying_wa", "unfold",
    ]
    assert [name for name in wroca.__all__ if not hasattr(wroca, name)] == []


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize(
    "argv", [["eval", "{f}", "a,a", "--empty"], ["pumpcheck", "{f}", "a,a", "", "--empty"]], ids=["eval", "pumpcheck"]
)
def test_word_and_empty_together_exit_two(argv, json_flag, e1_file):
    code, out, err = run_cli(*json_flag, *(arg.format(f=e1_file) for arg in argv))
    assert (code, out, err) == (2, "", "error: give either a word or --empty, not both\n")


class TestWordAndIntervalRefusals:
    """What ``_parse_word`` and ``_parse_intervals`` refuse, and the empty
    word given as ``""``."""

    @pytest.mark.parametrize("argv", [["eval", "{f}"], ["pumpcheck", "{f}", ""]], ids=["eval", "pumpcheck"])
    def test_no_word_and_no_empty_exit_two(self, argv, e1_file):
        code, out, err = run_cli(*(arg.format(f=e1_file) for arg in argv))
        assert (code, out, err) == (2, "", "error: a word (or --empty) is required\n")

    def test_empty_text_is_the_empty_word(self, e1_file):
        assert run_cli("--json", "eval", e1_file, "") == run_cli("--json", "eval", e1_file, "--empty")
        code, out, _ = run_cli("--json", "eval", e1_file, "")
        assert code == 0 and json.loads(out) == {"word": [], "defined": True, "weight": "1"}

    @pytest.mark.parametrize(
        "intervals, message",
        [
            ("1-x", "bad interval '1-x': invalid literal for int() with base 10: 'x'"),
            ("0-2,1-3", "intervals must be pairwise disjoint"),
            ("2-1", "bad interval [2, 1]"),
        ],
    )
    def test_bad_intervals_exit_two(self, intervals, message, e1_file):
        code, out, err = run_cli("pumpcheck", e1_file, "a,a,a,a", intervals)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_word_without_intervals_is_refused_as_intervals(self, e1_file):
        # a word given alone is bound to the intervals, which are parsed first
        code, out, err = run_cli("pumpcheck", e1_file, "a,a,a")
        assert (code, out, err) == (2, "", "error: bad interval 'a', expected i-j\n")

    def test_pumpcheck_on_an_undefined_run_exit_two(self, tmp_path, Q):
        dead = Dwroca(["q0"], ["a"], "q0", Q.one(), {}, {}, {"q0": Q.one()})
        path = tmp_path / "dead.json"
        path.write_text(json.dumps(dead.to_json()))
        code, out, err = run_cli("pumpcheck", str(path), "a", "")
        assert (code, out, err) == (2, "", "error: run of ('a',) is undefined at position 0\n")


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

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
    def test_weight_over_the_digit_limit(self, e1_file, json_flag):
        # a^15000 weighs 2^15000: 4,516 digits, more than str() converts
        code, out, err = run_cli(*json_flag, "eval", e1_file, "a" * 15000, "--letters")
        assert code == 0 and err == ""
        weight = json.loads(out)["weight"] if json_flag else out.strip()
        assert len(weight) == 4516 and weight.isdigit()
        assert int(weight[:4000]) * 10**516 + int(weight[4000:]) == 2**15000


EQUIV_METHODS = pytest.mark.parametrize(
    "method", [[], ["--method", "oracle", "--bound", "3"]], ids=["pipeline", "oracle"]
)


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
        code, out, _ = run_cli("--json", "equiv", e1_file, e1_file, "--method", "oracle", "--bound", "6")
        doc = json.loads(out)
        assert code == 0
        assert doc["outcome"] == "equivalent" and doc["mode"] == "bounded" and doc["bound"] == 6

    def test_oracle_witness(self, e1_file, e1p_file):
        code, out, _ = run_cli("--json", "equiv", e1_file, e1p_file, "--method", "oracle", "--bound", "6")
        doc = json.loads(out)
        assert code == 1 and doc["witness"] == "a"
        assert doc["f1"] == "2" and doc["f2"] == "3"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
    def test_oracle_reads_the_pipelines_bound(self, e1_file, e1p_file, json_flag):
        # same verdict under the one --bound, bar the stats only the pipeline keeps
        for files in ((e1_file, e1_file), (e1_file, e1p_file)):
            runs = [
                run_cli(*json_flag, "equiv", *files, "--bound", "5", *method) for method in ([], ["--method", "oracle"])
            ]
            if json_flag:
                runs = [(code, dict(json.loads(out), stats=None), err) for code, out, err in runs]
            assert runs[0] == runs[1]

    def test_conflicting_flags(self, e1_file):
        code, out, err = run_cli("equiv", e1_file, e1_file, "--method", "oracle")
        assert (code, out, err) == (2, "", "error: --method oracle requires --bound\n")

    def test_budget_exit_four(self, e1_file, flat_file):
        code, _, err = run_cli("equiv", e1_file, flat_file, "--budget", "100")
        assert code == 4

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
    def test_budget_message(self, e1_file, flat_file, json_flag):
        # the exception now also carries the search's stats; the text stays
        code, out, err = run_cli(*json_flag, "equiv", e1_file, flat_file, "--budget", "100")
        assert (code, out, err) == (4, "", "error: explored 101 words, budget is 100\n")

    def test_counters_climbing_in_step_are_proved(self, e1_file):
        # both counters climb forever; the lockstep certificate proves the
        # pair once the search has tested the empty word
        code, out, err = run_cli("--json", "equiv", e1_file, e1_file)
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "outcome": "equivalent",
            "mode": "theoretical",
            "bound": 700028448800,
            "stats": {"explored_words": 1, "basis_size": 1, "max_counter_row": 0},
        }

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
    def test_oracle_budget(self, e1_file, json_flag):
        code, out, err = run_cli(
            *json_flag, "equiv", e1_file, e1_file, "--method", "oracle", "--bound", "8", "--budget", "1"
        )
        assert (code, out, err) == (4, "", "error: explored 2 words, budget is 1\n")

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

    @EQUIV_METHODS
    def test_invalid_file_exit_two_names_it(self, e1_file, broken_file, method):
        message = f"error: invalid automaton: {broken_file}: zero-test decrement at delta0 (q0, a)\n"
        code, _, err = run_cli("equiv", broken_file, e1_file, *method)
        assert (code, err) == (2, message)
        code, _, err = run_cli("equiv", e1_file, broken_file, *method)
        assert (code, err) == (2, message)

    @EQUIV_METHODS
    def test_each_machine_validated_once(self, e1_file, e1p_file, method, monkeypatch):
        validated = counted_validation_passes(monkeypatch)
        code, _, _ = run_cli("equiv", e1_file, e1p_file, *method)
        assert code == 1 and len(validated) == 2 and validated[0] is not validated[1]

    def test_multicharacter_witness(self, tmp_path, Q):
        # the witness x1 y needs both steps: x1 alone ends where both weigh 0
        machines = []
        for step in (2, 3):
            table = {("p", "x1"): ("q", 0, Q.one()), ("q", "y"): ("r", 0, Q.element(step))}
            finals = {"p": Q.zero(), "q": Q.zero(), "r": Q.one()}
            machine = Dwroca(["p", "q", "r"], ["x1", "y"], "p", Q.one(), table, dict(table), finals)
            path = tmp_path / f"step{step}.json"
            path.write_text(json.dumps(machine.to_json()))
            machines.append(str(path))
        code, out, err = run_cli("equiv", *machines)
        assert (code, out, err) == (1, "not equivalent: witness 'x1,y' gives 2 vs 3\n", "")
        code, out, err = run_cli("--json", "equiv", *machines)
        doc = json.loads(out)
        assert (code, err) == (1, "")
        assert (doc["witness"], doc["witness_symbols"], doc["f1"], doc["f2"]) == ("x1,y", ["x1", "y"], "2", "3")

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

    def test_state_count_over_the_digit_limit_exit_five(self, e1_file):
        # the bound has 4,300 digits, as many as int() takes; the unfolding's
        # state count, bound + 1 here, has one more, which str() refuses
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli("unfold", e1_file, "-", "--bound", "9" * limit)
        assert (code, out) == (5, "")
        assert err == f"error: unfolding needs at least 10^{limit} states, cap is 10000000\n"

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

    def test_machine_validated_once(self, e1_file, monkeypatch):
        validated = counted_validation_passes(monkeypatch)
        code, _, _ = run_cli("unfold", e1_file, "-", "--bound", "2")
        assert code == 0 and len(validated) == 1

    def test_invalid_file_exit_two_names_it(self, broken_file, tmp_path):
        message = f"error: invalid automaton: {broken_file}: zero-test decrement at delta0 (q0, a)\n"
        code, _, err = run_cli("unfold", broken_file, str(tmp_path / "x.json"), "--bound", "1")
        assert (code, err) == (2, message)

    def test_bad_env_cap_reported_before_violations(self, broken_file, tmp_path, monkeypatch):
        monkeypatch.setenv("WROCA_STATE_CAP", "ten")
        code, _, err = run_cli("unfold", broken_file, str(tmp_path / "x.json"), "--bound", "1")
        assert code == 2 and "WROCA_STATE_CAP" in err and broken_file not in err


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

    def test_conflicting_usage(self, e1_file):
        code, _, _ = run_cli("bounds", e1_file, "--k", "2")
        assert code == 2
        code, _, _ = run_cli("bounds", e1_file)
        assert code == 2

    def test_human_output_has_exact_integers(self):
        code, out, _ = run_cli("bounds", "--k", "2")
        assert "295810" in out and "700028448800" in out

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
    def test_bound_over_the_digit_limit_exit_two(self, json_flag):
        # k = 10^200 gives a witness bound of over 5,000 digits, which
        # neither str() nor json.load converts
        code, out, err = run_cli(*json_flag, "bounds", "--k", "1" + "0" * 200)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"more than {sys.get_int_max_str_digits()} digits" in err


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

    def test_unknown_field_exit_two(self, tmp_path):
        out_path = tmp_path / "r.json"
        code, out, err = run_cli("random", str(out_path), "--seed", "1", "--field", "foo")
        assert (code, out) == (2, "") and not out_path.exists()
        assert err == "error: unknown field 'foo', expected 'rational' or 'gf:P'\n"


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


class TestProcess:
    def test_parser_is_built_once_and_calls_stay_independent(self, e1_file, e1p_file):
        first = run_cli("--json", "equiv", e1_file, e1p_file, "--bound", "3")
        assert json.loads(first[1])["bound"] == 3
        # no --json and no --bound carried over from the call before
        assert run_cli("eval", e1_file, "a,a") == (0, "4\n", "")
        assert run_cli("--json", "equiv", e1_file, e1p_file, "--bound", "3") == first
        assert cli._parser() is cli._parser()

    def test_closed_pipe_exits_141_quietly(self):
        argv = ["random", "-", "--seed", "1", "--min-states", "40", "--max-states", "40"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "wroca.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=SRC_ENV,
        )
        proc.stdout.close()  # the reader is gone before the 20 KB document is written
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert err == b""

    def test_testkit_is_imported_only_by_the_commands_that_use_it(self, e1_file):
        # the same holds for wroca.pumping, which only pumpcheck loads
        script = f"""
import io, sys
from contextlib import redirect_stdout
import wroca.cli
def loaded():
    return ["wroca.testkit" in sys.modules, "wroca.pumping" in sys.modules]
seen = [loaded()]
with redirect_stdout(io.StringIO()):
    codes = [wroca.cli.main(["equiv", {e1_file!r}, {e1_file!r}, "--bound", "3"])]
    seen.append(loaded())
    codes.append(wroca.cli.main(["equiv", {e1_file!r}, {e1_file!r}, "--method", "oracle", "--bound", "3"]))
    codes.append(wroca.cli.main(["random", "-", "--seed", "1"]))
    seen.append(loaded())
    codes.append(wroca.cli.main(["pumpcheck", {e1_file!r}, "a,a,a", "1-2"]))
print(seen, codes, loaded())
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=SRC_ENV, timeout=60
        )
        expected = "[[False, False], [False, False], [True, False]] [0, 0, 0, 0] [True, True]\n"
        assert proc.stdout == expected, proc.stderr

    def test_equiv_loads_neither_dataclasses_nor_inspect(self, e1_file, e1p_file):
        script = f"""
import sys
import wroca.cli
code = wroca.cli.main(["--json", "equiv", {e1_file!r}, {e1p_file!r}, "--bound", "3"])
print(code, [m for m in ("dataclasses", "inspect") if m in sys.modules])
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=SRC_ENV, timeout=60
        )
        assert proc.stdout.endswith("\n1 []\n"), proc.stderr

    def test_perfbench_tracer_sees_the_oracle_calls(self, e1_file, e1p_file):
        spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        with tracing.Tracer().installed() as tracer:
            assert run_cli("equiv", e1_file, e1p_file, "--method", "oracle", "--bound", "4")[0] == 1
            assert run_cli("equiv", e1_file, e1_file, "--method", "oracle", "--bound", "4")[0] == 0
        assert tracer.totals()["testkit.brute_force_witness"][0] == 2
