"""Seeded inputs, independent references and per-pair steps of the workloads.

Each workload builds a pool of machine pairs from the seed, decides every
pair the way its user would, and checks each verdict against a reference
that the search code does not produce:

* ``cli-b12`` and ``theory-pairs`` compare with the brute-force oracle
  ``testkit.brute_force_witness`` at length 12: same outcome, and a witness
  equal to the oracle's lexicographically first shortest one, with weights
  equal to ``Dwroca.accept_weight_or_zero``. A witness longer than 12 must
  replay through ``replay_witness`` to the reported, distinct weights.
* ``counting-deep`` compares with the oracle run to the full search bound,
  with the exact search counts the construction forces, and with the weight
  2^n of the deepest word, computed here from the machine definition.

The machines reach the program only as generated JSON: files for the CLI,
``Dwroca.from_json`` documents for the library calls.
"""

from __future__ import annotations

import io
import json
import random
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import calibrate
from wroca import Dwroca, ResourceBudgetExceeded, cli, equiv, prime_field, rational, testkit

ORACLE_LEN = 12
PAIR_FIELDS = (rational(), prime_field(7))
DEEP_PRIME = 2**31 - 1
DEEP_BOUND = 2000
THEORY_BUDGET = 1000
SETUP_ROUNDS = 5  # timed builds of the counting pool in an end-to-end run
CLI_PROCESSES = 15
DEEP_CLI_REPEATS = 4


@dataclass
class Pair:
    index: int
    field: str  # "q" or "gf"
    left: Dwroca
    right: Dwroca
    texts: tuple[str, str]  # the JSON documents of left and right
    oracle: tuple[str, ...] | None  # the oracle's shortest witness
    ref: tuple[str, str] | None  # reference weights of that witness
    files: tuple[str, ...] = ()  # the texts as files, when the CLI reads them


@dataclass
class Outcome:
    """A verdict reduced to what the checks compare, from the API or the CLI."""

    equivalent: bool
    word: tuple[str, ...] | None
    f1: str | None
    f2: str | None
    mode: str
    explored: int
    kept: int
    max_row: int


def from_verdict(verdict) -> Outcome:
    w = verdict.witness
    s = verdict.stats
    return Outcome(
        verdict.equivalent,
        None if w is None else tuple(w.word),
        None if w is None else w.f1.render(),
        None if w is None else w.f2.render(),
        verdict.mode,
        s.explored_words,
        s.basis_size,
        s.max_counter_row,
    )


def from_cli(code: int, text: str) -> Outcome | None:
    """Parse ``wroca --json equiv`` output; None for exit 4 (budget spent)."""
    if code == 4:
        return None
    if code not in (0, 1):
        raise RuntimeError(f"CLI exit code {code}")
    doc = json.loads(text)
    s = doc["stats"]
    word = doc.get("witness_symbols")
    return Outcome(
        doc["outcome"] == "equivalent",
        None if word is None else tuple(word),
        doc.get("f1"),
        doc.get("f2"),
        doc["mode"],
        s["explored_words"],
        s["basis_size"],
        s["max_counter_row"],
    )


def _machine_from_text(text: str) -> Dwroca:
    return Dwroca.from_json(json.loads(text))


def _prepare(index, field, left, right, oracle_len: int) -> Pair:
    """Serialise a generated pair, hand it to the parser, compute the
    oracle."""
    texts = (json.dumps(left.to_json()), json.dumps(right.to_json()))
    a, b = (_machine_from_text(t) for t in texts)
    oracle = testkit.brute_force_witness(a, b, oracle_len).shortest_witness
    ref = None
    if oracle is not None:
        ref = (a.accept_weight_or_zero(oracle).render(), b.accept_weight_or_zero(oracle).render())
    return Pair(index, field, a, b, texts, oracle, ref)


def _write(pairs, workdir: Path):
    """Write the pairs' texts to files for the CLI. Set-up time leaves this
    out: creating a file in the checkout took 0.2 to 1.6 ms and drifted
    over minutes, more than the rest of a pair's set-up."""
    for pair in pairs:
        pair.files = tuple(str(workdir / f"{pair.index}{side}.json") for side in "lr")
        for path, text in zip(pair.files, pair.texts):
            Path(path).write_text(text, encoding="utf-8")


def _stream_pair(base: int, i: int):
    """Pair i of the seeded stream the acceptance suite uses: Q and GF(7)
    alternate, 2-4 states, 2-3 symbols, every 5th pair a split-state copy."""
    rng = random.Random(base + i)
    field = PAIR_FIELDS[i % 2]
    sigma = 2 + (i // 2) % 2

    def fresh():
        return testkit.generate(
            testkit.GeneratorConfig(
                seed=rng.randrange(2**32), field=field, alphabet_size=(sigma, sigma)
            )
        )

    left = fresh()
    right = testkit.split_state(left, rng.randrange(2**32)) if i % 5 == 4 else fresh()
    return ("q" if i % 2 == 0 else "gf"), left, right


def _check_against_oracle(pair: Pair, out: Outcome) -> str | None:
    if out.equivalent:
        if pair.oracle is not None:
            return f"equivalent, but the oracle finds {pair.oracle}"
        return None
    if out.f1 == out.f2:
        return "witness weights are equal"
    if len(out.word) <= ORACLE_LEN:
        if out.word != pair.oracle:
            return f"witness {out.word} differs from the oracle's {pair.oracle}"
        if (out.f1, out.f2) != pair.ref:
            return "witness weights differ from accept_weight_or_zero"
    elif pair.oracle is not None:
        return "witness longer than the oracle's"
    replay = equiv.replay_witness(pair.left, pair.right, out.word)
    if (replay.f1.render(), replay.f2.render()) != (out.f1, out.f2):
        return "witness does not replay to the reported weights"
    return None


class PairWorkload:
    """Random pairs from the acceptance stream, ``pool_size`` per run; cold
    CLI processes run on the first ``CLI_PROCESSES`` of them."""

    in_process_cli = False
    reference = calibrate.INTERPRETER

    def __init__(self, name, seed_offset, pool_size):
        self.name = name
        self.seed_offset = seed_offset
        self.pool_size = pool_size

    def cli_pairs(self, pool):
        return pool[:CLI_PROCESSES]

    def build(self, seed: int, workdir: Path, timed: bool = True):
        """The pool, and set-up time in s: the median time to prepare one
        pair, scaled like the latencies (see calibrate.py) by a reference
        call after each pair, times the pool size. The oracle takes most of
        it, and a few pairs on which it runs long come and go with the seed
        (its total over 160 pairs moved by up to 2.5 times between seeds),
        so the sum would track the seed more than the code. When not
        ``timed`` the time is None."""
        base = self.seed_offset + seed * 1_000_003
        pool, times, refs = [], [], []
        for i in range(self.pool_size):
            t0 = time.perf_counter_ns()
            field, left, right = _stream_pair(base, i)
            pool.append(_prepare(i, field, left, right, ORACLE_LEN))
            times.append(time.perf_counter_ns() - t0)
            if timed:
                refs.append(self.reference.per_call_ns(1))
        _write(pool if self.in_process_cli else pool[:CLI_PROCESSES], workdir)
        if not timed:
            return pool, None
        return pool, self.reference.scaled_ms(statistics.median(times), statistics.median(refs)) * len(pool) / 1e3


class CliPairs(PairWorkload):
    in_process_cli = True

    def __init__(self):
        super().__init__("cli-b12", 0, 1600)

    def cli_args(self, pair):
        return ["--json", "equiv", *pair.files, "--bound", str(ORACLE_LEN)]

    def decide(self, pair):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(self.cli_args(pair))
        return code, out.getvalue()

    @staticmethod
    def outcome(raw):
        return from_cli(*raw)

    def check(self, pair, out: Outcome | None) -> str | None:
        if out is None:
            return "budget exhausted at bound 12"
        if out.mode != "bounded":
            return f"mode {out.mode}"
        return _check_against_oracle(pair, out)


class TheoryPairs(PairWorkload):
    def __init__(self):
        super().__init__("theory-pairs", 500_000_000, 4000)

    def cli_args(self, pair):
        return ["--json", "equiv", *pair.files, "--budget", str(THEORY_BUDGET)]

    def decide(self, pair):
        try:
            return equiv.check_equivalence(pair.left, pair.right, budget=THEORY_BUDGET)
        except ResourceBudgetExceeded:
            return None  # a non-verdict, not a failure

    @staticmethod
    def outcome(verdict):
        return None if verdict is None else from_verdict(verdict)

    def check(self, pair, out: Outcome | None) -> str | None:
        if out is None:
            return None
        if out.mode != "theoretical":
            return f"mode {out.mode}"
        return _check_against_oracle(pair, out)


def _counting_machines(spec, symbol, names):
    """``e1`` (one state, a^n weighs 2^n) and ``e2`` (two states, same
    series), as in the test fixtures."""
    two, one = spec.element(2), spec.one()
    s, t = names
    e1 = Dwroca(
        [s], [symbol], s, one,
        {(s, symbol): (s, 1, two)},
        {(s, symbol): (s, 1, two)},
        {s: one},
    )
    e2 = Dwroca(
        [s, t], [symbol], s, one,
        {(s, symbol): (t, 1, spec.element(4)), (t, symbol): (t, 1, two)},
        {(t, symbol): (t, 1, two)},
        {s: one, t: one / two},
    )
    return e1, e2


class CountingDeep:
    """``e1``/``e1`` and ``e1``/``e2`` over Q and GF(2^31-1) at bound 2000.

    The machines are fixed; the seed picks the symbol and state names and
    the order of the four pairs, which changes no search work.
    """

    name = "counting-deep"
    reference = calibrate.WIDE_TABLE

    def cli_pairs(self, pool):
        """The ``e1``/``e2`` pair of each field, ``DEEP_CLI_REPEATS`` times
        each."""
        pairs = sorted((p for p in pool if p.left.size != p.right.size), key=lambda p: p.field)
        return pairs * DEEP_CLI_REPEATS

    def build(self, seed: int, workdir: Path, timed: bool = True):
        """The pool, and set-up time in s: the median of ``SETUP_ROUNDS``
        builds, each followed by a block of reference calls for about
        ``calibrate.SHARE`` of the first build's time, and scaled by the
        median of those blocks (see calibrate.py). When not ``timed`` the
        pool is built once and the time is None."""
        rng = random.Random(seed)
        symbol = rng.choice("abcdefghijklmnopqrstuvwxyz")
        names = tuple(f"s{n}" for n in rng.sample(range(1000), 2))
        specs = [("q", rational()), ("gf", prime_field(DEEP_PRIME))]
        order = [(f, s, same) for f, s in specs for same in (True, False)]
        rng.shuffle(order)
        times, refs, calls = [], [], 0
        for _ in range(SETUP_ROUNDS if timed else 1):
            t0 = time.perf_counter_ns()
            pool = [self._prepare(k, f, spec, same, symbol, names)
                    for k, (f, spec, same) in enumerate(order)]
            times.append(time.perf_counter_ns() - t0)
            if timed:
                calls = calls or self.reference.calls_for(times[0])
                refs.append(self.reference.per_call_ns(calls))
        _write(pool, workdir)
        if not timed:
            return pool, None
        return pool, self.reference.scaled_ms(statistics.median(times), statistics.median(refs)) / 1e3

    @staticmethod
    def _prepare(k, field, spec, same, symbol, names):
        e1, e2 = _counting_machines(spec, symbol, names)
        pair = _prepare(k, field, e1, e1 if same else e2, DEEP_BOUND)
        if pair.oracle is not None:
            raise RuntimeError(f"oracle separates the counting pair at {len(pair.oracle)}")
        weight = Fraction(2**DEEP_BOUND) if field == "q" else pow(2, DEEP_BOUND, DEEP_PRIME)
        pair.ref = (str(weight), str(weight))
        return pair

    def cli_args(self, pair):
        return ["--json", "equiv", *pair.files, "--bound", str(DEEP_BOUND)]

    def decide(self, pair):
        return equiv.check_equivalence(pair.left, pair.right, DEEP_BOUND)

    outcome = staticmethod(from_verdict)

    def check(self, pair, out: Outcome | None) -> str | None:
        if out is None or not out.equivalent:
            return "counting pair not reported equivalent"
        if not out.explored == out.kept == out.max_row + 1 == DEEP_BOUND + 1:
            return f"stats {out.explored}/{out.kept}/{out.max_row}, expected {DEEP_BOUND + 1} rows"
        deepest = pair.left.alphabet.symbols * DEEP_BOUND
        replay = equiv.replay_witness(pair.left, pair.right, deepest)
        if (replay.f1.render(), replay.f2.render()) != pair.ref:
            return "deepest word does not weigh 2^n on both sides"
        return None


WORKLOADS = {w.name: w for w in (CliPairs(), TheoryPairs(), CountingDeep())}
