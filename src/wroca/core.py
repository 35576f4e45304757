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

Loading a JSON document (``Dwroca.from_json`` here, ``Dwa.from_json`` in
``dwa``) takes one pass: each table entry is checked and keyed by (state
index, symbol index) as it is read. Equal weight texts share one parsed
element per process and per field, up to a cap (``_element_reader``).
Each machine kind's ``_from_parts`` then sets the index-keyed parts on a
new instance directly, without the constructor's second lookup of every
name. Every machine the package builds itself (``testkit.generate`` and
``split_state``, ``dwa.underlying_wa``, ``Dwa.with_initial``,
``unfold.unfold``) is built the same way, naming only its new states; the
name-keyed constructors, with their checks, serve outside callers. A
``Dwroca`` built from parts records its violations, as a constructed one
does. Recorded runs and the loop-removal lemma live in ``pumping``, which
no decision path loads.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import (
    DivisionByZero,
    FieldMismatch,
    ParseError,
    UnknownSymbol,
)
from .fields import FieldElement, FieldSpec, _Frozen, _new, _setattr, parse_element

Word = Sequence[str]


class Alphabet(_Frozen):
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
        _setattr(self, "symbols", symbols)
        _setattr(self, "_index", {s: i for i, s in enumerate(symbols)})

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
        try:
            return tuple(map(self._index.__getitem__, word))
        except KeyError as exc:  # exc.args[0] is the first unknown symbol
            self.index_of(exc.args[0])  # raises UnknownSymbol
            raise


class _Record(_Frozen):
    """Base of the records a run returns, which behave like frozen dataclasses.

    A record's fields are its class's ``__slots__``, in order. Records are
    equal only to records of the same class with equal fields, hash as the
    tuple of their fields, and repr as ``Name(field=value, ...)``. Like
    every ``_Frozen`` value they refuse assignment and deletion, and copy
    and pickle by their slot values.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"


class Configuration(_Record):
    """A point in a run: control state, counter value, accumulated weight."""

    __slots__ = ("state", "counter", "weight")

    def __init__(self, state: int, counter: int, weight: FieldElement):
        if not isinstance(counter, int) or isinstance(counter, bool):
            raise ValueError(f"counter value {counter!r} is not an int")
        if counter < 0:
            raise ValueError("counter values are never negative")
        _field_of(weight, "configuration weight")
        _setattr(self, "state", state)
        _setattr(self, "counter", counter)
        _setattr(self, "weight", weight)


class Dwroca(_Frozen):
    """A deterministic weighted real-time one-counter automaton.

    State and symbol names are interned to dense indices at construction;
    the transition tables are keyed by ``(state_index, symbol_index)``.
    Construction is permissive about semantic invariants (counter effects in
    range, nonzero weights, matching field specs), so broken machines can be
    loaded and diagnosed: its last step, in the constructor as in
    ``from_json``, records every violation, and ``validate`` reports the
    record. The tables are read-only after construction, since a mutated
    table would leave the record stale.
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
        "_violations",
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
        if not _names_state(initial_state, index):
            raise ValueError(f"unknown initial state {initial_state!r}")
        _setattr(self, "states", states)
        _setattr(self, "alphabet", alphabet)
        _setattr(self, "field", _field_of(initial_weight, "initial weight"))
        _setattr(self, "initial_state", index[initial_state])
        _setattr(self, "initial_weight", initial_weight)
        _setattr(self, "delta0", _intern_table(delta0, index, alphabet, counter=True))
        _setattr(self, "delta1", _intern_table(delta1, index, alphabet, counter=True))
        _setattr(self, "final_weights", finals)
        self._record_violations()

    @property
    def size(self) -> int:
        return len(self.states)

    def initial_configuration(self) -> Configuration:
        return Configuration(self.initial_state, 0, self.initial_weight)

    # -- validation ---------------------------------------------------

    def validate(self) -> list[str]:
        """Return every invariant violation; an empty list means valid.
        Each call returns a new list of the violations recorded at
        construction."""
        return list(self._violations)

    def _record_violations(self) -> None:
        tables = (("delta0 ", self.delta0, (0, 1)), ("delta1 ", self.delta1, (-1, 0, 1)))
        _setattr(self, "_violations", tuple(_violations(self, self.initial_weight, tables)))

    # -- run semantics ------------------------------------------------

    def transition(self, state: int, counter: int, symbol_index: int):
        """The applicable table entry, or None. Table choice is forced by
        the counter: delta0 exactly when it is zero."""
        table = self.delta0 if counter == 0 else self.delta1
        return table.get((state, symbol_index))

    def step(self, config: Configuration, symbol: str) -> Configuration | None:
        """Apply one symbol; None when no transition applies."""
        _require_state(self, config.state)
        sym = self.alphabet.index_of(symbol)
        entry = self.transition(config.state, config.counter, sym)
        if entry is None:
            return None
        dst, effect, weight = entry
        return Configuration(dst, config.counter + effect, config.weight * weight)

    def accept_weight(self, word: Word, start: Configuration | None = None):
        """Acceptance weight of ``word`` (from ``start``, default the initial
        configuration), or None when the run is undefined.

        The start configuration's weight already includes the initial weight;
        it is multiplied once, never twice. Steps through the word without
        recording a run: every symbol is checked first, and a negative
        counter, like a start state that is not one of the machine's, is a
        ValueError.
        """
        if start is None:
            state, counter, weight = self.initial_state, 0, self.initial_weight
        else:
            state, counter, weight = start.state, start.counter, start.weight
            _require_state(self, state)
        delta0, delta1 = self.delta0, self.delta1
        for sym in self.alphabet.word_indices(word):
            entry = (delta1 if counter else delta0).get((state, sym))
            if entry is None:
                return None
            state, effect, step_weight = entry
            counter += effect
            weight = weight * step_weight
            if counter < 0:
                raise ValueError("counter values are never negative")
        return weight * self.final_weights[state]

    def accept_weight_or_zero(self, word: Word, start: Configuration | None = None) -> FieldElement:
        """Acceptance weight under the zero-completion convention."""
        weight = self.accept_weight(word, start)
        return self.field.zero() if weight is None else weight

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
        states, alphabet, _field, initial, (delta0, delta1), finals = _document_from_json(obj, counter=True)
        return cls._from_parts(states, alphabet, initial, delta0, delta1, finals)

    @classmethod
    def _from_parts(cls, states, alphabet, initial, delta0, delta1, finals) -> "Dwroca":
        """A machine from its index-keyed slots in their final form, no name
        looked up; the field is the initial weight's, as in the constructor,
        which records the violations the same way."""
        machine = _new(cls)
        _setattr(machine, "states", states)
        _setattr(machine, "alphabet", alphabet)
        _setattr(machine, "field", initial[1].spec)
        _setattr(machine, "initial_state", initial[0])
        _setattr(machine, "initial_weight", initial[1])
        _setattr(machine, "delta0", delta0)
        _setattr(machine, "delta1", delta1)
        _setattr(machine, "final_weights", finals)
        machine._record_violations()
        return machine


# -- model plumbing shared with the weighted automata of ``dwa`` ----------


def _require_natural(value, message: str, least: int = 0) -> None:
    """Refuse ``value`` with ValueError ``message`` unless it is an int of
    at least ``least``; a bool, a float or a string is not a count."""
    if type(value) is not int or value < least:
        raise ValueError(message)


def _require_state(machine, state: int, what: str = "state") -> None:
    """Refuse a configuration's state that is not one of ``machine``'s
    state indices, with a ValueError."""
    if not 0 <= state < len(machine.states):
        raise ValueError(f"{what} {state} outside [0, {len(machine.states) - 1}]")


def _field_of(weight, what: str) -> FieldSpec:
    """The field of ``weight``, the weight that fixes a new machine's or
    configuration's field; anything but a field element is a
    FieldMismatch."""
    if not isinstance(weight, FieldElement):
        raise FieldMismatch(f"{what} {weight!r} is not a field element")
    return weight.spec


def _intern_states(states: Sequence[str], alphabet, final_weights: Mapping):
    """Check the states (non-empty, hashable, distinct) and that each has a
    final weight; coerce the alphabet. Returns ``(states, alphabet, index,
    finals)``: ``index`` maps names to indices, ``finals`` is in state order."""
    states = tuple(states)
    if not states:
        raise ValueError("automaton needs at least one state")
    index = {}
    for i, name in enumerate(states):
        try:
            index[name] = i
        except TypeError:
            raise ValueError(f"state name {name!r} is not hashable") from None
    if len(index) != len(states):
        raise ValueError("state names must be distinct")
    if not isinstance(alphabet, Alphabet):
        alphabet = Alphabet(alphabet)
    missing = [name for name in states if name not in final_weights]
    if missing:
        raise ValueError(f"final weight missing for states {missing!r}")
    return states, alphabet, index, tuple(final_weights[name] for name in states)


def _names_state(name, index: dict) -> bool:
    """Whether ``name`` is a key of the state ``index``; an unhashable name
    never is."""
    try:
        return name in index
    except TypeError:
        return False


def _intern_table(table: Mapping, index: dict, alphabet: Alphabet, counter: bool) -> dict:
    """Re-key a name-keyed table by indices. An entry is a ``(dst, ce,
    weight)`` tuple in a table with a ``counter``, a ``(dst, weight)`` tuple
    in one without; any other entry is a ValueError."""
    size, shape = (3, "(state, counter effect, weight) triple") if counter else (2, "(state, weight) pair")
    out = {}
    for (src, symbol), entry in table.items():
        if not isinstance(entry, tuple) or len(entry) != size:
            raise ValueError(f"transition ({src!r}, {symbol!r}) is {entry!r}, not a {shape}")
        dst = entry[0]
        if not (_names_state(src, index) and _names_state(dst, index)):
            raise ValueError(f"transition ({src!r}, {symbol!r}) names an unknown state")
        key = (index[src], alphabet.index_of(symbol))
        # fixed-arity tuples: building one from a slice took about twice as long
        out[key] = (index[dst], entry[1], entry[2]) if counter else (index[dst], entry[1])
    return out


def _violations(machine, initial_weight, tables) -> list[str]:
    """Every invariant violation of an automaton of either kind.

    ``initial_weight`` may be None (an uninitialised weighted automaton).
    ``tables`` holds ``(label, table, effects)``: ``label`` prefixes the
    position in each message, ``effects`` is the tuple of allowed counter
    effects, or None for a table without a counter. A valid machine is the
    common case, so a valid entry costs only type, identity and membership
    tests: the position text is built, and a table's findings are put in
    key order, only once an entry breaks a rule. The checks stay inline,
    since a helper call per entry would cost more than the checks.
    """
    field, states, symbols = machine.field, machine.states, machine.alphabet.symbols
    violations = []
    if initial_weight is not None and initial_weight.is_zero:
        violations.append("zero initial weight")
    for label, table, effects in tables:
        found = []  # (key, message without its position), in table order
        for key, entry in table.items():
            if effects is not None:
                effect = entry[1]
                if not isinstance(effect, int) or isinstance(effect, bool) or effect not in effects:
                    if effect == -1 and -1 not in effects:
                        found.append((key, "zero-test decrement"))
                    else:
                        found.append((key, f"counter effect {effect!r} out of range"))
            weight = entry[-1]
            if not isinstance(weight, FieldElement):
                found.append((key, "non-element weight"))
            elif weight.spec is not field and weight.spec != field:
                found.append((key, "weight from a different field"))
            elif not weight.value:
                found.append((key, "zero transition weight"))
        if found:
            found.sort(key=itemgetter(0))  # stable: an entry's findings keep their order
            violations += [f"{what} at {label}({states[s]}, {symbols[a]})" for (s, a), what in found]
    for name, weight in zip(states, machine.final_weights):
        if not isinstance(weight, FieldElement) or (weight.spec is not field and weight.spec != field):
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
    ``ce`` and an optional ``initial``. One pass builds the final parts:
    returns ``(states, alphabet, field, initial, tables, finals)``, where
    ``initial`` is ``(state_index, weight)`` or None, ``tables`` lists the
    index-keyed tables in that order and ``finals`` is in state order.
    Weights are read through ``_element_reader``'s process-wide memo, and
    ``field`` is the spec its elements carry.
    """
    if not isinstance(obj, dict):
        raise ParseError("automaton document must be an object")
    table_keys = ("delta0", "delta1") if counter else ("delta",)
    keys = {"field", "states", "alphabet", "final", *table_keys}
    if counter or "initial" in obj:
        keys.add("initial")
    if obj.keys() != keys:  # one set comparison for the common, valid document
        _check_keys(obj, keys, "automaton" if counter else "weighted automaton")
    field, element = _element_reader(FieldSpec.from_json(obj["field"]))
    states = _string_list(obj["states"], "states")
    index = {name: i for i, name in enumerate(states)}
    if len(index) != len(states) or not states:
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
        if init.keys() != {"state", "weight"}:
            _check_keys(init, {"state", "weight"}, "initial")
        if init["state"] not in states:  # a list test: an unhashable name is a ParseError too
            raise ParseError(f"initial state {init['state']!r} is not a state")
        initial = (index[init["state"]], element(init["weight"]))
    tables = [_table_from_json(obj[key], key, index, alphabet, element, counter) for key in table_keys]
    final_obj = obj["final"]
    if not isinstance(final_obj, dict):
        raise ParseError("final must be an object")
    if final_obj.keys() != index.keys():
        raise ParseError("final must assign a weight to exactly the declared states")
    finals = tuple([element(final_obj[name]) for name in states])
    return tuple(states), alphabet, field, initial, tables, finals


# Weight texts read so far, for the whole process: the same few recur across
# documents, and elements are immutable, so all documents share them.
# ``FieldSpec -> (spec, {text: element})``, each element carrying ``spec``; a
# dict at its cap is emptied; threads that race at most parse a text twice.
# No text over ``_MEMO_TEXT_LEN`` characters is kept: int()'s digit limit is
# at least 640, so a kept text parses alike.
_MEMO_FIELDS, _MEMO_TEXTS, _MEMO_TEXT_LEN = 16, 1024, 64
_memos: dict = {}


def _element_reader(field: FieldSpec):
    """``(spec, element)``: ``element`` is ``parse_element`` over ``field``
    through that field's memo, whose elements carry ``spec``, a spec equal
    to ``field``. Only a string is looked up, so any other value still gets
    its ParseError; a failed text is never kept. A zero denominator is
    malformed input here too: a ParseError."""
    memo = _memos.get(field)
    if memo is None:
        if len(_memos) >= _MEMO_FIELDS:
            _memos.clear()
        memo = _memos[field] = (field, {})
    field, elements = memo

    def element(text) -> FieldElement:
        found = elements.get(text) if isinstance(text, str) else None
        if found is None:
            try:
                found = parse_element(text, field)
            except DivisionByZero as exc:
                raise ParseError(str(exc)) from exc
            if len(text) <= _MEMO_TEXT_LEN:
                if len(elements) >= _MEMO_TEXTS:
                    elements.clear()
                elements[text] = found
        return found

    return field, element


def _check_keys(obj: dict, expected: set, what: str) -> None:
    extra = set(obj) - expected
    if extra:
        # key=str: a library caller's dict may mix key types, which "<" refuses
        raise ParseError(f"unknown key(s) in {what}: {sorted(extra, key=str)}")
    missing = expected - set(obj)
    if missing:
        raise ParseError(f"missing key(s) in {what}: {sorted(missing)}")


def _string_list(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ParseError(f"{what} must be a list of strings")
    return value


def _table_from_json(
    entries, what: str, index: dict, alphabet: Alphabet, element, counter: bool
) -> dict:
    """An index-keyed table from a JSON list; ``index`` maps state names to
    indices, ``element`` reads a weight, and ``ce`` is required exactly when
    the table has a counter."""
    if not isinstance(entries, list):
        raise ParseError(f"{what} must be a list")
    keys = {"from", "on", "to", "ce", "weight"} if counter else {"from", "on", "to", "weight"}
    symbols = alphabet._index
    table = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise ParseError(f"{what} entries must be objects")
        if entry.keys() != keys:  # one set comparison for the common, valid entry
            _check_keys(entry, keys, f"{what} entry")
        src, symbol, dst = entry["from"], entry["on"], entry["to"]
        if not (isinstance(src, str) and isinstance(symbol, str) and isinstance(dst, str)):
            raise ParseError(f"{what} entry from/on/to must be strings: {entry!r}")
        s, d = index.get(src), index.get(dst)
        if s is None or d is None:
            raise ParseError(f"{what} entry names unknown state: {entry!r}")
        a = symbols.get(symbol)
        if a is None:
            raise ParseError(f"{what} entry uses unknown symbol {symbol!r}")
        if (s, a) in table:
            raise ParseError(f"duplicate {what} transition for ({src!r}, {symbol!r})")
        weight = element(entry["weight"])
        if counter:
            effect = entry["ce"]
            if not isinstance(effect, int) or isinstance(effect, bool):
                raise ParseError(f"{what} entry counter effect must be an integer")
            table[s, a] = (d, effect, weight)
        else:
            table[s, a] = (d, weight)
    return table
