"""The paper's loop-removal ("pumping") lemma, checked on concrete runs.

The only module that knows what a run, an interval list or a pumping is:
the recorded run ``run_word``, the check ``check_pumping``, and the drivers
that try the lemma on harvested instances. No decision path runs this
code; ``import wroca`` does not load it, and the CLI imports it only for
``pumpcheck``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .core import Configuration, Dwroca, Word, _Record, _require_state
from .dwa import _require_compatible
from .errors import IntervalOutOfBounds, PreconditionViolated
from .fields import FieldElement, _Frozen, _setattr

ZERO_TABLE = 0  # transition taken with the counter at zero
PLUS_TABLE = 1  # transition taken with the counter positive


class RunStep(_Record):
    """One consumed symbol: which table fired, its counter move and weight."""

    __slots__ = ("symbol", "table", "counter_effect", "weight")

    def __init__(self, symbol: str, table: int, counter_effect: int, weight: FieldElement):
        _setattr(self, "symbol", symbol)
        _setattr(self, "table", table)  # ZERO_TABLE or PLUS_TABLE
        _setattr(self, "counter_effect", counter_effect)
        _setattr(self, "weight", weight)


class Run(_Frozen):
    """A maximal replay of a word from a start configuration.

    ``configurations`` has one entry more than ``steps``. If the word could
    not be consumed completely, ``stuck_at`` is the position of the first
    symbol with no applicable transition and the run stops just before it.
    """

    __slots__ = ("configurations", "steps", "stuck_at")

    def __init__(self, configurations, steps, stuck_at=None):
        _setattr(self, "configurations", tuple(configurations))
        _setattr(self, "steps", tuple(steps))
        _setattr(self, "stuck_at", stuck_at)

    @property
    def ok(self) -> bool:
        return self.stuck_at is None

    @property
    def start(self) -> Configuration:
        return self.configurations[0]

    @property
    def end(self) -> Configuration:
        return self.configurations[-1]

    def __len__(self):
        return len(self.steps)

    def state_at(self, i: int) -> int:
        return self.configurations[i].state

    def zero_test_positions(self) -> tuple[int, ...]:
        return tuple(i for i, step in enumerate(self.steps) if step.table == ZERO_TABLE)

    def __repr__(self):
        tail = f", stuck_at={self.stuck_at}" if self.stuck_at is not None else ""
        return f"Run({'.'.join(s.symbol for s in self.steps)!r}, end={self.end}{tail})"


def _min_prefix_effect(run: Run) -> int:
    """The least cumulative counter effect over the run's non-empty
    prefixes, 0 for the empty run."""
    return min(itertools.accumulate(step.counter_effect for step in run.steps), default=0)


class PumpingIntervals(_Frozen):
    """A sorted list of pairwise disjoint, inclusive index intervals."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[tuple[int, int]] = ()):
        ivs = sorted((int(i), int(j)) for i, j in intervals)
        for i, j in ivs:
            if i < 0 or j < i:
                raise ValueError(f"bad interval [{i}, {j}]")
        for (_, j0), (i1, _) in zip(ivs, ivs[1:]):
            if i1 <= j0:
                raise ValueError("intervals must be pairwise disjoint")
        _setattr(self, "intervals", tuple(ivs))

    def __len__(self):
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __eq__(self, other):
        if not isinstance(other, PumpingIntervals):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        return f"PumpingIntervals({list(self.intervals)!r})"

    def positions(self) -> set[int]:
        out: set[int] = set()
        for i, j in self.intervals:
            out.update(range(i, j + 1))
        return out

    def disjoint_from(self, other: "PumpingIntervals") -> bool:
        return not (self.positions() & other.positions())

    def union(self, other: "PumpingIntervals") -> "PumpingIntervals":
        if not self.disjoint_from(other):
            raise ValueError("cannot merge overlapping interval lists")
        return PumpingIntervals(self.intervals + other.intervals)


def remove_intervals(word: Word, intervals: PumpingIntervals) -> tuple[str, ...]:
    """The subword left after deleting every position covered by the intervals."""
    n = len(word)
    for i, j in intervals:
        if j >= n:
            raise IntervalOutOfBounds(f"interval [{i}, {j}] exceeds word of length {n}")
    removed = intervals.positions()
    return tuple(s for p, s in enumerate(word) if p not in removed)


def run_word(machine: Dwroca, config: Configuration, word: Word) -> Run:
    """The unique maximal run of ``word`` from ``config`` in ``machine``.

    Returns a complete run, or a partial one with ``stuck_at`` set to the
    first position whose symbol has no applicable transition.
    """
    _require_state(machine, config.state)
    indices = machine.alphabet.word_indices(word)
    configs = [config]
    steps = []
    current = config
    for pos, sym in enumerate(indices):
        table = ZERO_TABLE if current.counter == 0 else PLUS_TABLE
        entry = machine.transition(current.state, current.counter, sym)
        if entry is None:
            return Run(configs, steps, stuck_at=pos)
        dst, effect, weight = entry
        current = Configuration(dst, current.counter + effect, current.weight * weight)
        configs.append(current)
        steps.append(RunStep(word[pos], table, effect, weight))
    return Run(configs, steps)


def check_pumping(machine: Dwroca, config: Configuration, word: Word, intervals: PumpingIntervals) -> bool:
    """Decide whether removing the given intervals is a valid pumping of
    ``word`` from ``config`` in ``machine``.

    Required: every interval spans a loop (same state before and after),
    the residual word still runs to completion taking, position for
    position, the same table (so no zero-test appears or disappears at a
    kept step), the last zero-test of the original run is not removed,
    and the minimal prefix counter-effect does not drop. Runs with no
    zero-test satisfy the zero-test clauses vacuously.
    """
    run = run_word(machine, config, word)
    if not run.ok:
        raise ValueError(f"run of {word!r} is undefined at position {run.stuck_at}")
    residual_word = remove_intervals(word, intervals)
    for i, j in intervals:
        if run.state_at(i) != run.state_at(j + 1):
            return False
    removed = intervals.positions()
    kept = [p for p in range(len(run)) if p not in removed]
    residual = run_word(machine, config, residual_word)
    if not residual.ok:
        return False
    for res_step, orig_pos in zip(residual.steps, kept):
        if res_step.table != run.steps[orig_pos].table:
            return False
    zero_tests = run.zero_test_positions()
    if zero_tests and zero_tests[-1] in removed:
        return False
    return _min_prefix_effect(residual) >= _min_prefix_effect(run)


def find_pumpings(
    automaton: Dwroca,
    config: Configuration,
    word: Word,
    *,
    max_results: int = 64,
) -> list[PumpingIntervals]:
    """Interval lists that are valid pumpings of ``word`` from ``config``:
    the empty list, single loops, and pairs of disjoint loops, capped at
    ``max_results``. Every returned list passes check_pumping."""
    run = run_word(automaton, config, word)
    if not run.ok:
        raise ValueError(f"run of {word!r} is undefined at position {run.stuck_at}")
    n = len(run)
    results = [PumpingIntervals()]
    loops = [
        (i, j)
        for i in range(n)
        for j in range(i, n)
        if run.state_at(i) == run.state_at(j + 1)
    ]
    for interval in loops:
        if len(results) >= max_results:
            return results
        candidate = PumpingIntervals([interval])
        if check_pumping(automaton, config, word, candidate):
            results.append(candidate)
    for first, second in itertools.combinations(loops, 2):
        if len(results) >= max_results:
            return results
        if second[0] <= first[1]:
            continue  # overlapping or touching loops cannot both be removed
        candidate = PumpingIntervals([first, second])
        if check_pumping(automaton, config, word, candidate):
            results.append(candidate)
    return results


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one loop-removal trial.

    ``union_is_pumping``: the merged list I ∪ J is a pumping from both
    configurations. ``distinguishing``: the residual words among w_I, w_J
    and w_IJ that still distinguish the machines. ``passed``: the strong
    clause, a valid merge and at least one distinguishing residual; it is
    expected to be false when positive loops stack. ``positive_loops_stack``:
    on at least one side, both I and J remove a loop of positive counter
    effect in that side's run of the word, which is the only case in which
    the merge of two valid removals can fail.
    """

    union_is_pumping: bool
    distinguishing: tuple[str, ...]
    passed: bool
    positive_loops_stack: bool


def _removes_positive_loop(run, intervals: PumpingIntervals) -> bool:
    return any(
        sum(step.counter_effect for step in run.steps[i : j + 1]) > 0 for i, j in intervals
    )


def theorem1_trial(
    a1: Dwroca,
    a2: Dwroca,
    c: Configuration,
    c_prime: Configuration,
    word: Word,
    intervals_i: PumpingIntervals,
    intervals_j: PumpingIntervals,
) -> TrialOutcome:
    """Check the loop-removal property on one instance.

    Preconditions (PreconditionViolated otherwise): the interval lists are
    disjoint, each is a pumping of ``word`` from both configurations, and
    the full word distinguishes the configurations.

    The property: if on each side one of I and J removes only loops of
    counter effect <= 0 in that side's run (``positive_loops_stack`` is
    false), then I ∪ J is again a pumping from both sides. A valid merge
    makes the weights of w, w_I, w_J and w_IJ factor through the removed
    loops' weights, so some residual word still distinguishes. When positive
    loops stack, two removals that are valid alone can together pull a kept
    step down to counter zero or lower the minimal prefix effect, so the
    merge may fail and ``passed`` is false.
    """
    if not intervals_i.disjoint_from(intervals_j):
        raise PreconditionViolated("interval lists I and J overlap")
    checks = (
        ("I is not a pumping from c", a1, c, intervals_i),
        ("I is not a pumping from c'", a2, c_prime, intervals_i),
        ("J is not a pumping from c", a1, c, intervals_j),
        ("J is not a pumping from c'", a2, c_prime, intervals_j),
    )
    for clause, machine, start, intervals in checks:
        try:
            ok = check_pumping(machine, start, word, intervals)
        except ValueError as exc:
            raise PreconditionViolated(str(exc)) from exc
        if not ok:
            raise PreconditionViolated(clause)
    if a1.accept_weight(word, c) == a2.accept_weight(word, c_prime):
        raise PreconditionViolated("the full word does not distinguish c and c'")
    stacked = any(
        _removes_positive_loop(run, intervals_i) and _removes_positive_loop(run, intervals_j)
        for run in (run_word(a1, c, word), run_word(a2, c_prime, word))
    )
    union = intervals_i.union(intervals_j)
    union_ok = check_pumping(a1, c, word, union) and check_pumping(a2, c_prime, word, union)
    labels = []
    for label, intervals in (("w_I", intervals_i), ("w_J", intervals_j), ("w_IJ", union)):
        residual = remove_intervals(word, intervals)
        if a1.accept_weight_or_zero(residual, c) != a2.accept_weight_or_zero(residual, c_prime):
            labels.append(label)
    return TrialOutcome(union_ok, tuple(labels), union_ok and bool(labels), stacked)


def harvest_theorem1_tuples(
    a1: Dwroca,
    a2: Dwroca,
    max_word_len: int,
    *,
    max_tuples: int,
):
    """Collect (c, c', word, I, J) tuples satisfying the trial preconditions
    from the initial configurations, by exhaustive search over words up to
    ``max_word_len`` and the pumpings valid from both sides. ``find_pumpings``
    returns the empty list once, so in every tuple I or J is non-empty."""
    _require_compatible(a1, a2)
    out = []
    c = a1.initial_configuration()
    c_prime = a2.initial_configuration()
    symbols = a1.alphabet.symbols
    for length in range(1, max_word_len + 1):
        for word in itertools.product(symbols, repeat=length):
            f1 = a1.accept_weight(word, c)
            f2 = a2.accept_weight(word, c_prime)
            if f1 is None or f2 is None or f1 == f2:  # a stuck run, or no distinction
                continue
            shared = [
                intervals
                for intervals in find_pumpings(a1, c, word)
                if check_pumping(a2, c_prime, word, intervals)
            ]
            for intervals_i, intervals_j in itertools.combinations(shared, 2):
                if not intervals_i.disjoint_from(intervals_j):
                    continue
                out.append((c, c_prime, word, intervals_i, intervals_j))
                if len(out) >= max_tuples:
                    return out
    return out
