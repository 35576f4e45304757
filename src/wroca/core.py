"""Deterministic weighted real-time one-counter automata.

The model: a finite-state machine with one counter that moves by at most 1
per step, two transition tables (delta0 applies exactly when the counter is
zero and cannot decrement; delta1 applies otherwise), a nonzero weight on
every transition, an initial weight, and a final weight per state. Reading
a word multiplies the traversed weights; the acceptance weight of a word is
initial weight * transition weights * final weight of the ending state.

Transition tables may be partial. A word whose run gets stuck has no
acceptance weight; for equivalence purposes an undefined run counts as
weight zero (the same machine completed with a zero-final-weight sink).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    IntervalOutOfBounds,
    ParseError,
    UnknownSymbol,
)
from .fields import FieldElement, FieldSpec, parse_element

Word = Sequence[str]

ZERO_TABLE = 0  # transition taken with the counter at zero
PLUS_TABLE = 1  # transition taken with the counter positive


class Alphabet:
    """Ordered list of distinct, non-empty symbols.

    The declared order is significant: witness ties are broken
    lexicographically by it.
    """

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols: Iterable[str]):
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("alphabet must be non-empty")
        for s in symbols:
            if not isinstance(s, str) or not s:
                raise ValueError(f"alphabet symbols must be non-empty strings, got {s!r}")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(symbols)})

    def __setattr__(self, name, value):
        raise AttributeError("Alphabet is immutable")

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, symbol):
        return symbol in self._index

    def __eq__(self, other):
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return f"Alphabet({list(self.symbols)!r})"

    def index_of(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownSymbol(f"symbol {symbol!r} is not in the alphabet") from None

    def word_indices(self, word: Word) -> tuple[int, ...]:
        return tuple(self.index_of(s) for s in word)


@dataclass(frozen=True)
class Configuration:
    """A point in a run: control state, counter value, accumulated weight."""

    state: int
    counter: int
    weight: FieldElement

    def __post_init__(self):
        if self.counter < 0:
            raise ValueError("counter values are never negative")


@dataclass(frozen=True)
class RunStep:
    """One consumed symbol: which table fired, its counter move and weight."""

    symbol: str
    table: int  # ZERO_TABLE or PLUS_TABLE
    counter_effect: int
    weight: FieldElement


class Run:
    """A maximal replay of a word from a start configuration.

    ``configurations`` has one entry more than ``steps``. If the word could
    not be consumed completely, ``stuck_at`` is the position of the first
    symbol with no applicable transition and the run stops just before it.
    """

    __slots__ = ("configurations", "steps", "stuck_at")

    def __init__(self, configurations, steps, stuck_at=None):
        self.configurations = tuple(configurations)
        self.steps = tuple(steps)
        self.stuck_at = stuck_at

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

    def word(self) -> tuple[str, ...]:
        return tuple(step.symbol for step in self.steps)

    def zero_test_positions(self) -> tuple[int, ...]:
        return tuple(i for i, step in enumerate(self.steps) if step.table == ZERO_TABLE)

    def __repr__(self):
        tail = f", stuck_at={self.stuck_at}" if self.stuck_at is not None else ""
        return f"Run({'.'.join(s.symbol for s in self.steps)!r}, end={self.end}{tail})"


@dataclass(frozen=True)
class CounterProfile:
    """Prefix counter-effects of a run, their extremes, and groundedness."""

    prefix_effects: tuple[int, ...]
    min_effect: int
    max_effect: int
    grounded: bool


def counter_effect_profile(run: Run) -> CounterProfile:
    """Cumulative counter-effect after each step, with min/max over the
    non-empty prefixes (0 for the empty run) and whether any zero-test fired."""
    effects = []
    total = 0
    for step in run.steps:
        total += step.counter_effect
        effects.append(total)
    if effects:
        lo, hi = min(effects), max(effects)
    else:
        lo = hi = 0
    grounded = any(step.table == ZERO_TABLE for step in run.steps)
    return CounterProfile(tuple(effects), lo, hi, grounded)


class PumpingIntervals:
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
        object.__setattr__(self, "intervals", tuple(ivs))

    def __setattr__(self, name, value):
        raise AttributeError("PumpingIntervals is immutable")

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


class Dwroca:
    """A deterministic weighted real-time one-counter automaton.

    State and symbol names are interned to dense indices at construction;
    the transition tables are keyed by ``(state_index, symbol_index)``.
    Construction is permissive about semantic invariants (counter effects in
    range, nonzero weights, matching field specs); ``validate`` reports every
    violation so broken machines can be loaded and diagnosed.
    """

    __slots__ = (
        "states",
        "alphabet",
        "field",
        "initial_state",
        "initial_weight",
        "delta0",
        "delta1",
        "final_weights",
    )

    def __init__(
        self,
        states: Sequence[str],
        alphabet,
        initial_state: str,
        initial_weight: FieldElement,
        delta0: Mapping,
        delta1: Mapping,
        final_weights: Mapping[str, FieldElement],
    ):
        states, alphabet, index, finals = _intern_states(states, alphabet, final_weights)
        if initial_state not in index:
            raise ValueError(f"unknown initial state {initial_state!r}")
        _freeze(
            self,
            states=states,
            alphabet=alphabet,
            field=initial_weight.spec,
            initial_state=index[initial_state],
            initial_weight=initial_weight,
            delta0=_intern_table(delta0, index, alphabet),
            delta1=_intern_table(delta1, index, alphabet),
            final_weights=finals,
        )

    def __setattr__(self, name, value):
        raise AttributeError("Dwroca is immutable")

    @property
    def size(self) -> int:
        return len(self.states)

    def initial_configuration(self) -> Configuration:
        return Configuration(self.initial_state, 0, self.initial_weight)

    # -- validation ---------------------------------------------------

    def validate(self) -> list[str]:
        """Return every invariant violation; an empty list means valid."""
        return _violations(
            self,
            self.initial_weight,
            (("delta0 ", self.delta0, (0, 1)), ("delta1 ", self.delta1, (-1, 0, 1))),
        )

    # -- run semantics ------------------------------------------------

    def transition(self, state: int, counter: int, symbol_index: int):
        """The applicable table entry, or None. Table choice is forced by
        the counter: delta0 exactly when it is zero."""
        table = self.delta0 if counter == 0 else self.delta1
        return table.get((state, symbol_index))

    def step(self, config: Configuration, symbol: str) -> Configuration | None:
        """Apply one symbol; None when no transition applies."""
        sym = self.alphabet.index_of(symbol)
        entry = self.transition(config.state, config.counter, sym)
        if entry is None:
            return None
        dst, effect, weight = entry
        return Configuration(dst, config.counter + effect, config.weight * weight)

    def run_word(self, config: Configuration, word: Word) -> Run:
        """The unique maximal run of ``word`` from ``config``.

        Returns a complete run, or a partial one with ``stuck_at`` set to the
        first position whose symbol has no applicable transition.
        """
        indices = self.alphabet.word_indices(word)
        configs = [config]
        steps = []
        current = config
        for pos, sym in enumerate(indices):
            table = ZERO_TABLE if current.counter == 0 else PLUS_TABLE
            entry = self.transition(current.state, current.counter, sym)
            if entry is None:
                return Run(configs, steps, stuck_at=pos)
            dst, effect, weight = entry
            current = Configuration(dst, current.counter + effect, current.weight * weight)
            configs.append(current)
            steps.append(RunStep(word[pos], table, effect, weight))
        return Run(configs, steps)

    def accept_weight(self, word: Word, start: Configuration | None = None):
        """Acceptance weight of ``word`` (from ``start``, default the initial
        configuration), or None when the run is undefined.

        The start configuration's weight already includes the initial weight;
        it is multiplied once, never twice.
        """
        if start is None:
            start = self.initial_configuration()
        run = self.run_word(start, word)
        if not run.ok:
            return None
        return run.end.weight * self.final_weights[run.end.state]

    def accept_weight_or_zero(self, word: Word, start: Configuration | None = None) -> FieldElement:
        """Acceptance weight under the zero-completion convention."""
        weight = self.accept_weight(word, start)
        return self.field.zero() if weight is None else weight

    # -- loop removal -------------------------------------------------

    def check_pumping(self, config: Configuration, word: Word, intervals: PumpingIntervals) -> bool:
        """Decide whether removing the given intervals is a valid pumping of
        ``word`` from ``config``.

        Required: every interval spans a loop (same state before and after),
        the residual word still runs to completion taking, position for
        position, the same table (so no zero-test appears or disappears at a
        kept step), the last zero-test of the original run is not removed,
        and the minimal prefix counter-effect does not drop. Runs with no
        zero-test satisfy the zero-test clauses vacuously.
        """
        run = self.run_word(config, word)
        if not run.ok:
            raise ValueError(f"run of {word!r} is undefined at position {run.stuck_at}")
        n = len(run)
        for i, j in intervals:
            if j >= n:
                raise IntervalOutOfBounds(f"interval [{i}, {j}] exceeds word of length {n}")
        for i, j in intervals:
            if run.state_at(i) != run.state_at(j + 1):
                return False
        removed = intervals.positions()
        kept = [p for p in range(n) if p not in removed]
        residual_word = [word[p] for p in kept]
        residual = self.run_word(config, residual_word)
        if not residual.ok:
            return False
        for res_step, orig_pos in zip(residual.steps, kept):
            if res_step.table != run.steps[orig_pos].table:
                return False
        zero_tests = run.zero_test_positions()
        if zero_tests and zero_tests[-1] in removed:
            return False
        original = counter_effect_profile(run)
        pumped = counter_effect_profile(residual)
        return pumped.min_effect >= original.min_effect

    # -- JSON ----------------------------------------------------------

    def to_json(self) -> dict:
        return _document_to_json(
            self,
            (self.initial_state, self.initial_weight),
            {"delta0": self.delta0, "delta1": self.delta1},
            counter=True,
        )

    @classmethod
    def from_json(cls, obj) -> "Dwroca":
        """Parse the automaton JSON format; unknown keys are rejected."""
        states, alphabet, initial, (delta0, delta1), final = _document_from_json(obj, counter=True)
        return cls(states, alphabet, initial[0], initial[1], delta0, delta1, final)


# -- model plumbing shared with the weighted automata of ``dwa`` ----------


def _freeze(obj, **attrs) -> None:
    """Set the slots of an immutable model object."""
    for name, value in attrs.items():
        object.__setattr__(obj, name, value)


def _intern_states(states: Sequence[str], alphabet, final_weights: Mapping):
    """Check the states (non-empty, distinct) and that each has a final
    weight; coerce the alphabet. Returns ``(states, alphabet, index,
    finals)``: ``index`` maps names to indices, ``finals`` is in state order."""
    states = tuple(states)
    if not states:
        raise ValueError("automaton needs at least one state")
    if len(set(states)) != len(states):
        raise ValueError("state names must be distinct")
    if not isinstance(alphabet, Alphabet):
        alphabet = Alphabet(alphabet)
    missing = [name for name in states if name not in final_weights]
    if missing:
        raise ValueError(f"final weight missing for states {missing!r}")
    index = {name: i for i, name in enumerate(states)}
    return states, alphabet, index, tuple(final_weights[name] for name in states)


def _intern_table(table: Mapping, index: dict, alphabet: Alphabet) -> dict:
    """Re-key a name-keyed table by indices. An entry is ``(dst, ce, weight)``
    in a table with a counter, ``(dst, weight)`` in one without."""
    out = {}
    for (src, symbol), entry in table.items():
        dst = entry[0]
        if src not in index or dst not in index:
            raise ValueError(f"transition ({src!r}, {symbol!r}) names an unknown state")
        key = (index[src], alphabet.index_of(symbol))
        # fixed-arity tuples: building one from a slice took about twice as long
        out[key] = (index[dst], entry[1], entry[2]) if len(entry) == 3 else (index[dst], entry[1])
    return out


def _violations(machine, initial_weight, tables) -> list[str]:
    """Every invariant violation of an automaton of either kind.

    ``initial_weight`` may be None (an uninitialised weighted automaton).
    ``tables`` holds ``(label, table, effects)``: ``label`` prefixes the
    position in each message, ``effects`` is the tuple of allowed counter
    effects, or None for a table without a counter. The checks stay inline:
    a helper call per entry doubled the time of a ``validate`` call.
    """
    field, states, symbols = machine.field, machine.states, machine.alphabet.symbols
    violations = []
    if initial_weight is not None and initial_weight.is_zero:
        violations.append("zero initial weight")
    for label, table, effects in tables:
        for (src, sym), entry in sorted(table.items()):
            where = f"{label}({states[src]}, {symbols[sym]})"
            if effects is not None:
                effect = entry[1]
                if not isinstance(effect, int) or isinstance(effect, bool) or effect not in effects:
                    if effect == -1 and -1 not in effects:
                        violations.append(f"zero-test decrement at {where}")
                    else:
                        violations.append(f"counter effect {effect!r} out of range at {where}")
            weight = entry[-1]
            if not isinstance(weight, FieldElement):
                violations.append(f"non-element weight at {where}")
            elif weight.spec != field:
                violations.append(f"weight from a different field at {where}")
            elif weight.is_zero:
                violations.append(f"zero transition weight at {where}")
    for name, weight in zip(states, machine.final_weights):
        if not isinstance(weight, FieldElement) or weight.spec != field:
            violations.append(f"final weight of {name} from a different field")
    return violations


def _document_to_json(machine, initial, tables: dict, counter: bool) -> dict:
    """The JSON document of an automaton of either kind.

    ``initial`` is ``(state_index, weight)`` or None; ``tables`` maps each
    table's key to the table; ``counter`` writes each entry's ``ce``.
    """
    states, symbols = machine.states, machine.alphabet.symbols
    doc = {"field": machine.field.to_json(), "states": list(states), "alphabet": list(symbols)}
    if initial is not None:
        doc["initial"] = {"state": states[initial[0]], "weight": initial[1].render()}
    for key, table in tables.items():
        rows = doc[key] = []
        for (src, sym), entry in sorted(table.items()):
            row = {"from": states[src], "on": symbols[sym], "to": states[entry[0]]}
            if counter:
                row["ce"] = entry[1]
            row["weight"] = entry[-1].render()
            rows.append(row)
    doc["final"] = {name: weight.render() for name, weight in zip(states, machine.final_weights)}
    return doc


def _document_from_json(obj, counter: bool):
    """Parse an automaton document of either kind; unknown keys are rejected.

    With ``counter``: tables ``delta0`` and ``delta1`` whose entries carry
    ``ce``, and a required ``initial``. Without: one table ``delta`` with no
    ``ce`` and an optional ``initial``. Returns ``(states, alphabet,
    initial, tables, final)``, where ``initial`` is ``(state, weight)`` or
    None and ``tables`` lists the name-keyed tables in that order.
    """
    if not isinstance(obj, dict):
        raise ParseError("automaton document must be an object")
    table_keys = ("delta0", "delta1") if counter else ("delta",)
    keys = {"field", "states", "alphabet", "final", *table_keys}
    if counter or "initial" in obj:
        keys.add("initial")
    _check_keys(obj, keys, "automaton" if counter else "weighted automaton")
    field = FieldSpec.from_json(obj["field"])
    states = _string_list(obj["states"], "states")
    if len(set(states)) != len(states) or not states:
        raise ParseError("states must be a non-empty list of distinct names")
    try:
        alphabet = Alphabet(_string_list(obj["alphabet"], "alphabet"))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    initial = None
    if "initial" in keys:
        init = obj["initial"]
        if not isinstance(init, dict):
            raise ParseError("initial must be an object")
        _check_keys(init, {"state", "weight"}, "initial")
        if init["state"] not in states:
            raise ParseError(f"initial state {init['state']!r} is not a state")
        initial = (init["state"], parse_element(init["weight"], field))
    state_set = set(states)
    tables = [
        _table_from_json(obj[key], key, state_set, alphabet, field, counter) for key in table_keys
    ]
    final_obj = obj["final"]
    if not isinstance(final_obj, dict):
        raise ParseError("final must be an object")
    if set(final_obj) != state_set:
        raise ParseError("final must assign a weight to exactly the declared states")
    final = {name: parse_element(final_obj[name], field) for name in states}
    return states, alphabet, initial, tables, final


def _check_keys(obj: dict, expected: set, what: str) -> None:
    extra = set(obj) - expected
    if extra:
        raise ParseError(f"unknown key(s) in {what}: {sorted(extra)}")
    missing = expected - set(obj)
    if missing:
        raise ParseError(f"missing key(s) in {what}: {sorted(missing)}")


def _string_list(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ParseError(f"{what} must be a list of strings")
    return value


def _table_from_json(
    entries, what: str, states: set, alphabet: Alphabet, field: FieldSpec, counter: bool
) -> dict:
    """A name-keyed table from a JSON list; ``ce`` is required exactly when
    the table has a counter."""
    if not isinstance(entries, list):
        raise ParseError(f"{what} must be a list")
    keys = {"from", "on", "to", "ce", "weight"} if counter else {"from", "on", "to", "weight"}
    table = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise ParseError(f"{what} entries must be objects")
        if entry.keys() != keys:  # one set comparison for the common, valid entry
            _check_keys(entry, keys, f"{what} entry")
        src, symbol, dst = entry["from"], entry["on"], entry["to"]
        if not (isinstance(src, str) and isinstance(symbol, str) and isinstance(dst, str)):
            raise ParseError(f"{what} entry from/on/to must be strings: {entry!r}")
        if src not in states or dst not in states:
            raise ParseError(f"{what} entry names unknown state: {entry!r}")
        if symbol not in alphabet:
            raise ParseError(f"{what} entry uses unknown symbol {symbol!r}")
        if (src, symbol) in table:
            raise ParseError(f"duplicate {what} transition for ({src!r}, {symbol!r})")
        weight = parse_element(entry["weight"], field)
        if counter:
            effect = entry["ce"]
            if not isinstance(effect, int) or isinstance(effect, bool):
                raise ParseError(f"{what} entry counter effect must be an integer")
            table[(src, symbol)] = (dst, effect, weight)
        else:
            table[(src, symbol)] = (dst, weight)
    return table
