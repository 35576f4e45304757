"""Command-line front end.

Subcommands: validate, eval, equiv, unfold, bounds, random, pumpcheck.
JSON output (--json) is the stable machine interface; the human-readable
format may change. Exit codes partition outcomes: 0 success/equivalent,
1 violation/witness/not-a-pumping, 2 usage/parse/mismatch errors, 3 unknown
symbol, 4 search budget exhausted, 5 unfolding over the state cap, 6 failed
internal consistency check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import testkit
from .core import Dwroca, PumpingIntervals
from .dwa import EquivalenceVerdict, SearchStats, Witness, render_word
from .equiv import DEFAULT_SEARCH_BUDGET, check_equivalence, replay_witness
from .errors import (
    BoundTooLarge,
    BudgetExceeded,
    InternalError,
    InvalidAutomaton,
    ParseError,
    ResourceBudgetExceeded,
    UnknownSymbol,
    WrocaError,
)
from .fields import FieldSpec, prime_field, rational
from .unfold import (
    BELT_THICKNESS_COEFF,
    INITIAL_SPACE_COEFF,
    bounds_for_k,
    compute_bounds,
    unfold,
)

STATE_CAP_ENV = "WROCA_STATE_CAP"


def _emit(args, obj, human: str) -> None:
    if args.json:
        print(json.dumps(obj, indent=2))
    else:
        print(human)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_automaton(path: str) -> Dwroca:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    return Dwroca.from_json(doc)


def _load_valid(path: str) -> Dwroca:
    automaton = _load_automaton(path)
    violations = automaton.validate()
    if violations:
        raise InvalidAutomaton([f"{path}: {v}" for v in violations])
    return automaton


def _parse_word(args) -> tuple[str, ...]:
    if getattr(args, "empty", False):
        return ()
    text = args.word
    if text is None:
        raise ParseError("a word (or --empty) is required")
    if text == "":
        return ()
    if args.letters:
        return tuple(text)
    return tuple(text.split(","))


def _parse_intervals(text: str) -> PumpingIntervals:
    if text.strip() == "":
        return PumpingIntervals()
    pairs = []
    for chunk in text.split(","):
        lo, sep, hi = chunk.partition("-")
        if not sep:
            raise ParseError(f"bad interval {chunk!r}, expected i-j")
        try:
            pairs.append((int(lo), int(hi)))
        except ValueError as exc:
            raise ParseError(f"bad interval {chunk!r}: {exc}") from exc
    try:
        return PumpingIntervals(pairs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _state_cap() -> int | None:
    raw = os.environ.get(STATE_CAP_ENV)
    if raw is None:
        return None
    try:
        return _natural(raw)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ParseError(f"{STATE_CAP_ENV} must be an integer >= 0, got {raw!r}") from exc


def _int_at_least(low: int):
    """argparse type for counts, bounds and coefficients: an integer >= ``low``."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value

    return integer


_natural = _int_at_least(0)
_positive = _int_at_least(1)


def _field_spec(text: str) -> FieldSpec:
    if text == "rational":
        return rational()
    if text.startswith("gf:"):
        try:
            return prime_field(int(text[3:]))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown field {text!r}, expected 'rational' or 'gf:P'")


# -- subcommands --------------------------------------------------------


def cmd_validate(args) -> int:
    automaton = _load_automaton(args.file)
    violations = automaton.validate()
    _emit(
        args,
        {"ok": not violations, "violations": violations},
        "OK" if not violations else "\n".join(f"violation: {v}" for v in violations),
    )
    return 0 if not violations else 1


def cmd_eval(args) -> int:
    automaton = _load_valid(args.file)
    word = _parse_word(args)
    weight = automaton.accept_weight(word)
    defined = weight is not None
    rendered = (weight if defined else automaton.field.zero()).render()
    _emit(
        args,
        {"word": list(word), "defined": defined, "weight": rendered},
        rendered if defined else f"undefined -> {rendered}",
    )
    return 0


def cmd_equiv(args) -> int:
    if args.method == "oracle" and args.bound is not None:
        return _fail("--bound applies to the pipeline method only", 2)
    if args.method == "pipeline" and args.max_len is not None:
        return _fail("--max-len applies to the oracle method only", 2)
    if args.method == "oracle" and args.max_len is None:
        return _fail("--method oracle requires --max-len", 2)
    a1 = _load_valid(args.file1)
    a2 = _load_valid(args.file2)
    if args.method == "oracle":
        result = testkit.brute_force_witness(a1, a2, args.max_len)
        if result.shortest_witness is None:
            verdict = EquivalenceVerdict(
                True,
                None,
                "bounded",
                args.max_len,
                SearchStats(sum(result.agreement_table), 0, 0),
            )
        else:
            replay = replay_witness(a1, a2, result.shortest_witness)
            verdict = EquivalenceVerdict(
                False,
                Witness(result.shortest_witness, replay.f1, replay.f2),
                "bounded",
                args.max_len,
                SearchStats(sum(result.agreement_table) + 1, 0, 0),
            )
    else:
        verdict = check_equivalence(a1, a2, args.bound, budget=args.budget)
    if verdict.equivalent:
        label = "proved" if verdict.mode == "theoretical" else f"no witness of length <= {verdict.bound}"
        _emit(args, verdict.to_json(), f"equivalent ({verdict.mode}: {label})")
        return 0
    witness = verdict.witness
    human = (
        f"not equivalent: witness {render_word(witness.word) or 'the empty word'!r}"
        f" gives {witness.f1.render()} vs {witness.f2.render()}"
    )
    _emit(args, verdict.to_json(), human)
    return 1


def cmd_unfold(args) -> int:
    automaton = _load_valid(args.file)
    result = unfold(automaton, args.bound, state_cap=_state_cap())
    doc = json.dumps(result.to_json(), indent=2)
    if args.out == "-":
        print(doc)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(doc + "\n")
        _emit(
            args,
            {"states": result.size, "out": args.out},
            f"wrote unfolding with {result.size} states to {args.out}",
        )
    return 0


def cmd_bounds(args) -> int:
    if args.k is not None:
        if args.files:
            return _fail("give either --k or two automaton files, not both", 2)
        report = bounds_for_k(args.k, args.initial_coeff, args.belt_coeff)
    else:
        if len(args.files) != 2:
            return _fail("give either --k or exactly two automaton files", 2)
        a1 = _load_automaton(args.files[0])
        a2 = _load_automaton(args.files[1])
        report = compute_bounds(a1.size, a2.size, args.initial_coeff, args.belt_coeff)
    human = "\n".join(
        (
            f"combined size k: {report.k}",
            f"initial-space bound: {report.initial_space}",
            f"belt-thickness bound: {report.belt_thickness}",
            f"counter-value bound: {report.counter_bound}",
            f"witness-length bound: {report.witness_bound}",
        )
    )
    _emit(args, report.to_json(), human)
    return 0


def cmd_random(args) -> int:
    try:
        cfg = testkit.GeneratorConfig(
            seed=args.seed,
            num_states=(args.min_states, args.max_states),
            alphabet_size=(args.alphabet_size, args.alphabet_size),
            field=_field_spec(args.field),
            density=args.density,
            zero_final_prob=args.zero_final_prob,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    automaton = testkit.generate(cfg)
    doc = json.dumps(automaton.to_json(), indent=2)
    if args.out == "-":
        print(doc)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(doc + "\n")
        _emit(
            args,
            {"states": automaton.size, "out": args.out},
            f"wrote automaton with {automaton.size} states to {args.out}",
        )
    return 0


def cmd_pumpcheck(args) -> int:
    automaton = _load_valid(args.file)
    word = _parse_word(args)
    intervals = _parse_intervals(args.intervals)
    try:
        ok = automaton.check_pumping(automaton.initial_configuration(), word, intervals)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    _emit(args, {"pumping": ok}, "pumping" if ok else "not a pumping")
    return 0 if ok else 1


# -- wiring --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wroca",
        description="Weighted real-time one-counter automata: simulate, unfold, decide equivalence.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an automaton file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("eval", help="acceptance weight of a word")
    p.add_argument("file")
    p.add_argument("word", nargs="?", help="comma-separated symbols")
    p.add_argument("--letters", action="store_true", help="treat the word as single-character symbols")
    p.add_argument("--empty", action="store_true", help="evaluate the empty word")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("equiv", help="decide equivalence of two automata")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--bound", type=_natural, default=None, help="word-length limit for the pipeline search")
    p.add_argument("--method", choices=("pipeline", "oracle"), default="pipeline")
    p.add_argument("--max-len", type=_natural, default=None, help="enumeration depth for the oracle method")
    p.add_argument("--budget", type=_natural, default=DEFAULT_SEARCH_BUDGET, help="explored-word ceiling")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("unfold", help="materialize a row-bounded unfolding")
    p.add_argument("file")
    p.add_argument("out", help="output path, or - for stdout")
    p.add_argument("--bound", type=_natural, required=True, help="highest counter row to keep")
    p.set_defaults(func=cmd_unfold)

    p = sub.add_parser("bounds", help="print the search bounds for a combined size")
    p.add_argument("files", nargs="*", help="two automaton files (alternative to --k)")
    p.add_argument("--k", type=_positive, default=None, help="combined state count")
    p.add_argument("--initial-coeff", type=_positive, default=INITIAL_SPACE_COEFF)
    p.add_argument("--belt-coeff", type=_positive, default=BELT_THICKNESS_COEFF)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("random", help="generate a seeded random automaton")
    p.add_argument("out", help="output path, or - for stdout")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--min-states", type=int, default=2)
    p.add_argument("--max-states", type=int, default=4)
    p.add_argument("--alphabet-size", type=int, default=2)
    p.add_argument("--field", default="rational", help="'rational' or 'gf:P'")
    p.add_argument("--density", type=float, default=0.8)
    p.add_argument("--zero-final-prob", type=float, default=0.3)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("pumpcheck", help="check interval removal against a run")
    p.add_argument("file")
    p.add_argument("word", nargs="?", help="comma-separated symbols")
    p.add_argument("intervals", help="i-j pairs, comma-separated; empty string for none")
    p.add_argument("--letters", action="store_true", help="treat the word as single-character symbols")
    p.add_argument("--empty", action="store_true", help="use the empty word")
    p.set_defaults(func=cmd_pumpcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnknownSymbol as exc:
        return _fail(str(exc), 3)
    except (ResourceBudgetExceeded, BudgetExceeded) as exc:
        return _fail(str(exc), 4)
    except BoundTooLarge as exc:
        return _fail(str(exc), 5)
    except InternalError as exc:
        return _fail(f"internal error: {exc}", 6)
    except WrocaError as exc:
        return _fail(str(exc), 2)
    except OSError as exc:
        return _fail(str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
