"""Deterministic weighted automata and exact equivalence with minimal witnesses.

The equivalence engine is a breadth-first worklist over words. Each word w
is represented by the sparse difference vector pairing the forward vector of
the left automaton with the negated forward vector of the right one; w is a
witness exactly when that vector is not orthogonal to the combined
final-weight vector. Vectors that fall in the linear span of previously
kept ones are pruned and never extended, so no more vectors are ever kept
than the two machines' dimensions add up to (``_side``), and the first
witness reported is shortest, with ties broken by the alphabet's declared
symbol order.

A word's vector has at most two nonzero coordinates, one per side whose run
is not stuck. The kept vectors form an echelon basis whose rows have at
most one coordinate besides the pivot, above it, so reducing a vector at
its smallest coordinate leaves at most two. The search keeps a
two-coordinate vector whose smaller coordinate has no row there as it is;
any other walks the rows this way (``_PairBasis.insert``), kept at the
first coordinate without a row, its word pruned if it cancels: work in the
rows met, never a basis scan. A walk that follows one chain of row links
past ``_SHORTCUT_AFTER`` rows re-points the chain's first row to the
chain's end, so walks stay short even when one side's counter climbs while
the other's stays put.

The search computes on Python ints only, over the rationals as over GF(p).
A word's vector matters only up to a nonzero scalar: its extensions'
vectors scale with it, and neither span membership nor the witness test
changes when a whole vector is scaled. So each word carries one int pair,
divided by its gcd over the rationals, reduced mod p over GF(p). Every kept
row has one form in both fields: its pivot value ``d`` and the value at its
other coordinate, fraction-free with the common factor removed over the
rationals, residues over GF(p). A reported witness gets its true weights
by stepping its word once more through the same tables: a numerator and a
denominator per side, multiplied without normalising (residues mod p over
GF(p)), so the search weighs it exactly and builds no FieldElement until
it reports the weights.

The search reads each machine once (``_side``): its initial configuration,
its zero-row and positive-row transition tables and its final weights. A
counter machine hands over its two tables; a weighted automaton is a
machine that stays at row 0, its one table serving both with counter
effect 0. A configuration is then a control state and a row, both ints,
and the search applies the counter effects itself. Every search starts at
both initial configurations, at row 0, and a real-time machine moves its
counter by at most 1 a step, so a word of length n never leaves rows 0..n:
the search needs no row bound, and on every word it tests it agrees with
the unfolding cut at ``max_len``. That unfolding's state count, |Q| *
(max_len + 1) for a counter machine and |Q| for a weighted automaton,
bounds the kept rows.

Each word costs one table lookup, for its pair of states and whether each
side's row is 0. The first word there fills in the two final weights
cross-multiplied by each other's denominators, so the witness test is two
products. The first word there that is kept and extended fills in its
children (``_children``): per symbol, both sides' next states and counter
effects, and the two step weights cross-multiplied the same way and divided
by their gcd, so a child's pair is the parent's times these, divided by the
gcd where it is above 1, or reduced mod p. The empty word's pair is the two
initial weights, cross-multiplied and divided or reduced the same way. A
queue entry links to its parent's entry, and a witness's word is read back
along these links. The empty word is tested before the queue and the
basis exist, and a witness there is reported at once (``_report``).

The lockstep certificate (``_lockstep``), which a search with ``certify``
asks once, where the empty word is decided, reads the rows the search
reads: both machines through ``_side``, a pair of states' steps through
``_children``. It relates (left state, right state, counter class) triples
to the search's int pairs, starting from the empty word's, steps them as
the search steps a word, and tests each triple's final weights with the
search's witness test, so it proves equivalence, a weighted bisimulation,
without a FieldElement operation. Where a rule asks whether a state weighs
zero on every word from a counter class, a depth-first walk over the
(state, class) pairs reachable from it answers (``_dead``), stopping at the
first nonzero final weight. It walks only the pairs the rules ask about,
its answers last for one call, and no machine stores anything for it.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd, inf
from typing import Mapping, Sequence

from .core import (
    Dwroca,
    Word,
    _Record,
    _document_from_json,
    _document_to_json,
    _field_of,
    _intern_states,
    _intern_table,
    _names_state,
    _require_state,
    _violations,
)
from .errors import (
    AlphabetMismatch,
    FieldMismatch,
    InternalError,
    InvalidAutomaton,
    ResourceBudgetExceeded,
)
from .fields import FieldElement, _from_slots, _Frozen, _setattr


class Dwa(_Frozen):
    """A deterministic weighted automaton, optionally initialised.

    No counter: a partial transition table (state, symbol) -> (state, weight),
    a final weight per state, and an optional initial (state, weight).
    Undefined runs count as acceptance weight zero.
    """

    __slots__ = ("states", "alphabet", "field", "transitions", "final_weights", "initial")

    def __init__(
        self,
        states: Sequence[str],
        alphabet,
        transitions: Mapping,
        final_weights: Mapping[str, FieldElement],
        initial: tuple[str, FieldElement] | None = None,
    ):
        states, alphabet, index, finals = _intern_states(states, alphabet, final_weights)
        transitions = _intern_table(transitions, index, alphabet, counter=False)
        if initial is not None:
            name, weight = initial
            if not _names_state(name, index):
                raise ValueError(f"unknown initial state {name!r}")
            initial = (index[name], weight)
        _setattr(self, "states", states)
        _setattr(self, "alphabet", alphabet)
        if initial is None:
            field = _field_of(finals[0], f"final weight of {states[0]!r}")
        else:
            field = _field_of(initial[1], "initial weight")
        _setattr(self, "field", field)
        _setattr(self, "transitions", transitions)
        _setattr(self, "final_weights", finals)
        _setattr(self, "initial", initial)

    @property
    def size(self) -> int:
        return len(self.states)

    def state_index(self, state) -> int:
        """The index of a state given by name or by index; a bool is neither."""
        if isinstance(state, int) and not isinstance(state, bool):
            if not 0 <= state < len(self.states):
                raise ValueError(f"state index {state} out of range")
            return state
        try:
            return self.states.index(state)
        except ValueError:
            raise ValueError(f"unknown state {state!r}") from None

    def with_initial(self, state, weight: FieldElement) -> "Dwa":
        """A copy of this automaton, over its field, initialised at the given
        state and weight; a weight of another field is a FieldMismatch."""
        if not isinstance(weight, FieldElement) or weight.spec != self.field:
            raise FieldMismatch(f"initial weight {weight!r} is not an element of {self.field}")
        initial = (self.state_index(state), weight)
        return Dwa._from_parts(self.states, self.alphabet, self.field, self.transitions, self.final_weights, initial)

    def validate(self) -> list[str]:
        """Return every invariant violation; an empty list means valid."""
        initial_weight = None if self.initial is None else self.initial[1]
        return _violations(self, initial_weight, (("", self.transitions, None),))

    # -- acceptance -----------------------------------------------------

    def accept_weight(self, start: "WaConfig", word: Word) -> FieldElement:
        """Acceptance weight from a configuration; undefined paths give zero.
        The start state and every symbol are checked first, as in
        ``Dwroca.accept_weight``."""
        state, weight = start.state, start.weight
        _require_state(self, state)
        for sym in self.alphabet.word_indices(word):
            entry = self.transitions.get((state, sym))
            if entry is None:
                return self.field.zero()
            state, w = entry
            weight = weight * w
        return weight * self.final_weights[state]

    def initial_accept_weight(self, word: Word) -> FieldElement:
        if self.initial is None:
            raise ValueError("automaton is uninitialised")
        return self.accept_weight(WaConfig(*self.initial), word)

    # -- JSON -------------------------------------------------------------

    def to_json(self) -> dict:
        return _document_to_json(self, self.initial, {"delta": self.transitions}, counter=False)

    @classmethod
    def from_json(cls, obj) -> "Dwa":
        """Parse the weighted-automaton JSON format: one ``delta`` table
        without ``ce``, optional ``initial``; unknown keys are rejected."""
        states, alphabet, field, initial, (delta,), finals = _document_from_json(obj, counter=False)
        return cls._from_parts(states, alphabet, field, delta, finals, initial)

    @classmethod
    def _from_parts(cls, states, alphabet, field, transitions, finals, initial) -> "Dwa":
        """An automaton from its index-keyed slots in their final form, no
        name looked up; ``initial`` is ``(state_index, weight)`` or None."""
        return _from_slots(cls, (states, alphabet, field, transitions, finals, initial))


class WaConfig(_Record):
    """A weighted-automaton configuration: state index and nonzero weight."""

    __slots__ = ("state", "weight")

    def __init__(self, state: int, weight: FieldElement):
        _field_of(weight, "configuration weight")
        if weight.is_zero:
            raise ValueError("configuration weight must be nonzero")
        _setattr(self, "state", state)
        _setattr(self, "weight", weight)


class Witness(_Record):
    """A word and the weights the two machines give it; a verdict's witness
    is a word on which they differ."""

    __slots__ = ("word", "f1", "f2")

    def __init__(self, word: tuple[str, ...], f1: FieldElement, f2: FieldElement):
        _setattr(self, "word", word)
        _setattr(self, "f1", f1)
        _setattr(self, "f2", f2)


class SearchStats(_Record):
    """What a search did: ``explored_words``, the words it dequeued;
    ``basis_size``, the difference vectors it kept; ``max_counter_row``,
    the highest counter row either side reached on a word it tested.

    A ``Dwa`` side stays at row 0. A run the lockstep certificate ends
    reports the one word tested before the certificate was asked, the
    empty word, whose vector a valid machine's nonzero initial weights
    keep: (1, 1, 0).
    ``ResourceBudgetExceeded.stats`` counts the word over budget in
    ``explored_words``, though that word was not tested.
    Records are immutable, so the search returns one shared record for
    each of its two first-word outcomes, (1, 0, 0) and (1, 1, 0).
    """

    __slots__ = ("explored_words", "basis_size", "max_counter_row")

    def __init__(self, explored_words: int, basis_size: int, max_counter_row: int):
        _setattr(self, "explored_words", explored_words)
        _setattr(self, "basis_size", basis_size)
        _setattr(self, "max_counter_row", max_counter_row)


_EMPTY_WORD_WITNESS = SearchStats(1, 0, 0)
_CERTIFIED = SearchStats(1, 1, 0)


class EquivalenceVerdict(_Record):
    """Outcome of an equivalence check.

    ``mode`` is "theoretical" when the search limit covers the proven witness
    bound, so Equivalent is a proof: no witness within the bound, or, for
    machines whose counters climb in step, the lockstep certificate.
    "bounded" when a user-supplied limit truncated the search (Equivalent
    then means: no witness up to ``bound``).
    """

    __slots__ = ("equivalent", "witness", "mode", "bound", "stats")

    def __init__(
        self, equivalent: bool, witness: Witness | None, mode: str, bound: int | None, stats: SearchStats
    ):
        _setattr(self, "equivalent", equivalent)
        _setattr(self, "witness", witness)
        _setattr(self, "mode", mode)
        _setattr(self, "bound", bound)
        _setattr(self, "stats", stats)

    @property
    def outcome(self) -> str:
        return "equivalent" if self.equivalent else "not_equivalent"

    def to_json(self) -> dict:
        obj: dict = {"outcome": self.outcome}
        if self.witness is not None:
            obj["witness"] = render_word(self.witness.word)
            obj["witness_symbols"] = list(self.witness.word)
            obj["f1"] = self.witness.f1.render()
            obj["f2"] = self.witness.f2.render()
        obj["mode"] = self.mode
        if self.bound is not None:
            obj["bound"] = self.bound
        obj["stats"] = {
            "explored_words": self.stats.explored_words,
            "basis_size": self.stats.basis_size,
            "max_counter_row": self.stats.max_counter_row,
        }
        return obj


def render_word(word: Sequence[str]) -> str:
    """Witness text: plain concatenation for single-character symbols,
    comma-separated otherwise (symbols may be multi-character)."""
    if all(len(s) == 1 for s in word):
        return "".join(word)
    return ",".join(word)


def _require_compatible(left, right) -> None:
    """AlphabetMismatch unless the symbol tuples are equal (compared directly,
    not through ``Alphabet.__eq__``); FieldMismatch unless the fields are."""
    if left.alphabet is not right.alphabet and left.alphabet.symbols != right.alphabet.symbols:
        raise AlphabetMismatch("automata must share one alphabet (same symbols, same order)")
    if left.field is not right.field and left.field != right.field:
        raise FieldMismatch("automata must share one field")


def _children(table_l, sl, table_r, sr, symbol_count: int) -> list:
    """The children of a word whose sides are at states ``sl`` and ``sr``,
    stepping through ``table_l`` and ``table_r``, the tables of their rows:
    one per symbol on which a side steps, as ``(sym, sl2, effect_l, sr2,
    effect_r, ml, mr)``. A child of the word pair (a, b) has the pair (a *
    ml, b * mr) up to a nonzero scalar: ``ml, mr`` are the two step weights
    as ``_cross`` pairs them, divided by their gcd. A side without a step
    gets stuck, with state None, effect 0 and weight 0."""
    children = []
    for sym in range(symbol_count):
        step_l, step_r = table_l.get((sl, sym)), table_r.get((sr, sym))
        if step_l is None:
            if step_r is None:
                continue  # both stuck: every extension weighs zero on both sides
            sl2, el, ul = None, 0, 0
        else:
            sl2, el, wl = step_l
            ul = wl.value
        if step_r is None:
            sr2, er, ur = None, 0, 0
        else:
            sr2, er, wr = step_r
            ur = wr.value
        # ``_cross(ul, ur)``, inline: the certificate calls this per triple
        ml, mr = ul.numerator * ur.denominator, ur.numerator * ul.denominator
        g = gcd(ml, mr) or 1  # both 0 where both steps weigh 0
        children.append((sym, sl2, el, sr2, er, ml // g, mr // g))
    return children


# Rows a walk passes along one chain of links before it re-points the
# chain's first row to the chain's end.
_SHORTCUT_AFTER = 8


class _PairBasis:
    """Kept difference vectors of at most two coordinates, in echelon form.

    ``others`` maps each pivot to its row's other coordinate, above the
    pivot, or to None for a row ``e_u``. For a two-coordinate row,
    ``values`` holds the value there and ``scales`` the pivot value where it
    is not 1: residues in [1, p) over GF(p) (``modulus`` p), ints with no
    common factor over the rationals (``modulus`` None). Flat dicts give
    the garbage collector no object per row to walk.

    Each row's other coordinate links it to the row there, if any, so the
    rows form chains of links. A walk that follows one chain past
    ``_SHORTCUT_AFTER`` rows re-points the chain's first row to the chain's
    end (``_shortcut``), so the next walk from that row skips the chain. A
    pair whose counter climbs on one side only builds such a chain, one row
    longer per word, and every word's walk starts at its first row.
    """

    __slots__ = ("others", "values", "scales", "modulus")

    def __init__(self, modulus: int | None):
        self.others: dict = {}
        self.values: dict = {}
        self.scales: dict = {}
        self.modulus = modulus

    def insert(self, u: int, x: int, v: int | None, z: int) -> bool:
        """Keep ``x * e_u + z * e_v`` as a new row unless the rows span it;
        True if kept. ``x`` and ``z`` are nonzero, residues over GF(p), and
        ``v`` is None or above ``u``. The search keeps a two-coordinate
        vector at a fresh pivot itself and calls this for any other. While
        ``u`` has a row, the vector becomes ``d * vec - x * row``, which
        cancels ``u`` and leaves at most two coordinates, both above it. A
        one-coordinate vector matters only up to a scalar, so it walks
        without arithmetic and is kept as ``e_u``. The walk follows the
        chain of links from ``start`` until the vector's other coordinate
        comes first; ``steps`` counts its rows.
        """
        others, values, scales, p = self.others, self.values, self.scales, self.modulus
        start, steps = u, 0
        while True:
            w = others.get(u, -1)
            if w == -1:  # no row at u: keep the vector
                others[u] = v
                if v is not None:
                    if not p:
                        g = gcd(x, z)
                        x, z = x // g, z // g
                    values[u] = z
                    if x != 1:
                        scales[u] = x
                return True
            steps += 1
            if steps == _SHORTCUT_AFTER:
                self._shortcut(start)  # start is behind u: the walk does not meet it again
            if w is None:  # the row e_u cancels u and leaves z * e_v
                if v is None:
                    return False
                u, v = v, None
                start, steps = u, 0
            elif v is None:
                u = w  # x * e_u less a multiple of the row: a multiple of e_w
            else:
                y = -x * values[u]
                z *= scales.get(u, 1)
                if w == v:
                    z += y
                    if not (z % p if p else z):
                        return False  # both coordinates cancelled
                    u, v = v, None
                else:
                    if p:
                        y %= p
                        z %= p
                    if w < v:
                        u, x = w, y
                    else:
                        u, x, v, z = v, z, w, y
                        start, steps = u, 0

    def _shortcut(self, u: int) -> None:
        """Re-point the row at ``u`` to the end of its chain of links: the
        first coordinate without a row, or ``e_u`` when the chain meets a
        one-coordinate row. The span and the pivots stay as they were. A
        walk's chain starts at a two-coordinate row: a walk leaves a row
        ``e_u`` for a new chain."""
        others, values, scales, p = self.others, self.values, self.scales, self.modulus
        w, d, z = others[u], scales.get(u, 1), values[u]
        while (nxt := others.get(w, -1)) != -1:
            if nxt is None:  # the row e_w cancels w, leaving d * e_u
                others[u] = None
                del values[u]
                scales.pop(u, None)
                return
            # d * e_u + z * e_w times the row's pivot value, less z times the row
            d, z = d * scales.get(w, 1), -z * values[w]
            if p:
                d, z = d % p, z % p
            else:
                g = gcd(d, z)
                d, z = d // g, z // g
            w = nxt
        others[u], values[u] = w, z
        if d == 1:
            scales.pop(u, None)
        else:
            scales[u] = d


def _ray(a: int, b: int, p: int | None) -> tuple:
    """The int pair ``(a, b)`` up to a nonzero scalar, as the search keeps
    it: reduced mod ``p`` over GF(p), divided by its gcd over the
    rationals (``p`` None)."""
    if p:
        return a % p, b % p
    g = gcd(a, b) or 1
    return a // g, b // g


def _cross(x, y) -> tuple:
    """The values ``x`` and ``y`` (Fractions, int residues over GF(p) or the
    int 0) as an int pair of ratio x / y, each times the other's denominator."""
    n, d = x.as_integer_ratio()
    m, e = y.as_integer_ratio()
    return n * e, m * d


def _side(machine, max_len: int | None) -> tuple:
    """One machine as the search reads it: ``((state, weight), zero_table,
    positive_table, final_weights, dimension)``, starting from its initial
    configuration at row 0.

    A machine with counter tables (a ``Dwroca``) must be valid, so that its
    zero-row table never decrements and no row falls below 0. A word no
    longer than ``max_len`` keeps its rows within ``max_len``, so the
    dimension is |Q| * (max_len + 1). Any other machine is read as an
    initialised ``Dwa``: one table serving both rows, with dimension |Q|,
    its entries ``(dst, weight)`` read as ``(dst, 0, weight)``, so every
    table the search reads has one entry shape. A ``Dwa`` records no
    violations, so one pass over its weights checks here that each, zero or
    not, is an element of its field: any other is a FieldMismatch.
    """
    if not hasattr(machine, "delta0"):
        if machine.initial is None:
            raise ValueError("equivalence search needs initialised automata")
        field = machine.field
        table = {key: (dst, 0, w) for key, (dst, w) in machine.transitions.items()}
        for w in (machine.initial[1], *machine.final_weights, *[step[2] for step in table.values()]):
            if not isinstance(w, FieldElement) or (w.spec is not field and w.spec != field):
                raise FieldMismatch(f"weight {w!r} in an automaton over {field}")
        return machine.initial, table, table, machine.final_weights, machine.size
    if machine._violations:
        raise InvalidAutomaton(machine._violations)
    dimension = inf if max_len is None else machine.size * (max_len + 1)
    initial = (machine.initial_state, machine.initial_weight)
    return initial, machine.delta0, machine.delta1, machine.final_weights, dimension


def _difference_search(
    left,
    right,
    *,
    max_len: int | None = None,
    budget: int | None = None,
    certify: bool = False,
    replay=None,
):
    """Breadth-first difference-vector search of two machines, each a
    ``Dwroca`` or an initialised ``Dwa`` (``_side``).

    Returns ``(witness | None, stats)``; None means no witness among the
    words of length up to ``max_len`` (all words, when ``max_len`` is
    None), weighed from both machines' initial configurations. Raises
    ResourceBudgetExceeded when more than ``budget`` words get dequeued,
    and InternalError when more vectors get kept than the machines'
    dimensions add up to, or when a witness's true weights, stepped once
    more through the tables (``_weigh``), are equal. ``replay``, a callable
    from a witness's symbols to a ``Witness``, weighs the witness by other
    means: the search returns its record, and raises InternalError unless
    it has the witness's word and exactly the stepped weights, each
    compared by cross-multiplication, not up to a common scalar. Without
    ``replay`` the witness's weights are the stepped ones.

    The empty word is tested first: a witness there, unless ``budget`` is
    0, is reported with stats (1, 0, 0) before any queue or basis is built.
    Otherwise, with ``certify``, the search asks ``_lockstep(left, right)``
    once, there, if the budget allows a second word: True ends the search
    with no witness and stats (1, 1, 0), the empty word tested and kept, as
    a proof that there is none; False lets the same search run.
    """
    _require_compatible(left, right)
    side_l, side_r = _side(left, max_len), _side(right, max_len)
    init_l, zero_l, plus_l, finals_l, dimension_l = side_l
    init_r, zero_r, plus_r, finals_r, dimension_r = side_r
    p = left.field.modulus
    (sl, wl), (sr, wr) = init_l, init_r
    a, b = _ray(*_cross(wl.value, wr.value), p)
    ea, eb = _cross(finals_l[sl].value, finals_r[sr].value)
    diff = a * ea - b * eb
    if diff and (p is None or diff % p) and budget != 0:
        return _report(left, side_l, side_r, [], p, replay, _EMPTY_WORD_WITNESS)
    if certify and (budget is None or budget > 1) and _lockstep(left, right):
        return None, _CERTIFIED
    symbol_count = len(left.alphabet.symbols)
    states_l, states_r = len(finals_l), len(finals_r)
    dimension = dimension_l + dimension_r

    # A queue entry (parent, sym, depth, sl, rl, a, sr, rr, b) holds a
    # word's control state and counter row on each side, and its difference
    # vector up to a nonzero scalar: int a at the left side's coordinate,
    # int b at the right side's. The word is ``parent``'s word and symbol
    # ``sym``; the empty word's parent is None. A stuck side has state None
    # and weight 0, and keeps a row that no longer matters. Scaling is
    # allowed because the vectors of a word's extensions scale with it, and
    # neither span membership nor the witness test (f_left != f_right)
    # changes when the whole vector is scaled. ``pairs`` maps (sl, rl == 0,
    # sr, rr == 0) to [ea, eb, kids]: the final weights cross-multiplied,
    # so the word is a witness when a * ea != b * eb, and, from the first
    # time a word there is extended, its ``_children``.
    pairs: dict = {(sl, True, sr, True): [ea, eb, None]}
    queue: deque = deque([(None, None, 0, sl, 0, a, sr, 0, b)])
    basis = _PairBasis(p)
    rows, values, scales, insert = basis.others, basis.values, basis.scales, basis.insert
    explored = 0
    max_row = 0
    room = dimension  # rows left to keep
    stop = inf if budget is None else budget
    reach = inf if max_len is None else max_len

    while queue:
        entry = queue.popleft()
        _, _, depth, sl, rl, a, sr, rr, b = entry
        explored += 1
        if explored > stop:
            raise ResourceBudgetExceeded(explored, budget, SearchStats(explored, len(rows), max_row))
        if rl > max_row:
            max_row = rl
        if rr > max_row:
            max_row = rr
        pair = pairs.get(key := (sl, rl == 0, sr, rr == 0))
        if pair is None:
            end_l = 0 if sl is None else finals_l[sl].value
            end_r = 0 if sr is None else finals_r[sr].value
            pair = pairs[key] = [*_cross(end_l, end_r), None]
        ea, eb, kids = pair
        diff = a * ea - b * eb
        if diff and (p is None or diff % p):
            word = []
            while entry[0] is not None:
                word.append(entry[1])
                entry = entry[0]
            word.reverse()
            return _report(left, side_l, side_r, word, p, replay, SearchStats(explored, len(rows), max_row))

        # Coordinates are 2 * (row * states + state) + side. The right
        # side's weights enter unnegated: negating one side's coordinates
        # in every vector leaves span membership unchanged. A side enters
        # only with a nonzero weight (a stuck side has 0), and the vector's
        # smaller coordinate u comes first, as x * e_u + z * e_v.
        if a and b:
            u, v = 2 * (rl * states_l + sl), 2 * (rr * states_r + sr) + 1
            x, z = a, b
            if u > v:
                u, x, v, z = v, b, u, a
            if u not in rows:  # a fresh pivot: the pair is in the basis's normal form
                rows[u], values[u] = v, z
                if x != 1:
                    scales[u] = x
            elif not insert(u, x, v, z):
                continue  # spanned by kept vectors: extensions cannot add witnesses
        elif a:
            if not insert(2 * (rl * states_l + sl), a, None, 0):
                continue
        elif not (b and insert(2 * (rr * states_r + sr) + 1, b, None, 0)):
            continue  # spanned, or a zero weight made the whole vector zero
        room -= 1
        if room < 0:
            raise InternalError(f"kept {len(rows)} vectors in a space of dimension {dimension}")

        if depth >= reach:
            continue
        if kids is None:
            table_l, table_r = zero_l if rl == 0 else plus_l, zero_r if rr == 0 else plus_r
            kids = pair[2] = _children(table_l, sl, table_r, sr, symbol_count)
        depth += 1
        for sym, sl2, el, sr2, er, ml, mr in kids:
            ca, cb = a * ml, b * mr
            if p:
                ca, cb = ca % p, cb % p
            elif (g := gcd(ca, cb)) > 1:
                ca, cb = ca // g, cb // g
            queue.append((entry, sym, depth, sl2, rl + el, ca, sr2, rr + er, cb))

    return None, SearchStats(explored, len(rows), max_row)


def _report(left, side_l, side_r, word: list[int], p: int | None, replay, stats: SearchStats):
    """``(Witness, stats)`` for a witness ``word`` of symbol indices,
    weighed by ``_weigh``, or the replayed record, which must have the word
    and exactly those weights. InternalError when they are equal or the
    replay disagrees."""
    symbols = tuple(map(left.alphabet.symbols.__getitem__, word))
    field = left.field
    n1, d1 = _weigh(side_l, word, p)
    n2, d2 = _weigh(side_r, word, p)
    if _vanishes(n1 * d2 - n2 * d1, p):  # the int pair says the word separates the machines
        raise InternalError(
            f"search reported witness {symbols!r}, but both machines weigh it {_element(field, n1, d1)}"
        )
    if replay is None:
        return Witness(symbols, _element(field, n1, d1), _element(field, n2, d2)), stats
    replayed = replay(symbols)
    r1, s1 = replayed.f1.value.as_integer_ratio()
    r2, s2 = replayed.f2.value.as_integer_ratio()
    if not (replayed.word == symbols and _vanishes(r1 * d1 - n1 * s1, p) and _vanishes(r2 * d2 - n2 * s2, p)):
        raise InternalError(
            f"unfolded search disagrees with replay on {symbols!r}: searched "
            f"{_element(field, n1, d1)}, {_element(field, n2, d2)}; "
            f"replayed {replayed.f1}, {replayed.f2}"
        )
    return replayed, stats


def _weigh(side, word: list[int], p: int | None) -> tuple:
    """A word's exact acceptance weight ``(n, d)``, meaning n / d, stepped
    from ``_side``'s initial configuration at row 0: a side without a step
    weighs (0, 1). Numerators and denominators are multiplied without
    normalising; over GF(p) the numerator is reduced mod ``p`` and the
    denominator stays 1."""
    (state, weight), zero, plus, finals, _ = side
    row = 0
    n, d = weight.value.as_integer_ratio()
    for sym in word:
        step = (zero if row == 0 else plus).get((state, sym))
        if step is None:
            return 0, 1
        state, effect, weight = step
        row += effect
        x, y = weight.value.as_integer_ratio()
        n, d = n * x, d * y
        if p:
            n %= p
    x, y = finals[state].value.as_integer_ratio()
    n, d = n * x, d * y
    return (n % p, d) if p else (n, d)


def _vanishes(x: int, p: int | None) -> bool:
    """Whether ``x`` is zero in the field: mod ``p`` over GF(p)."""
    return not (x % p if p else x)


def _element(field, n: int, d: int) -> FieldElement:
    """The element n / d of ``field``; over GF(p), ``_weigh``'s ``d`` is 1."""
    return FieldElement(field, n % field.modulus if field.modulus else Fraction(n, d))


# The counter classes, as "is positive", that a step reaches from a counter
# in class c with counter effect e: ``_CLASSES[c][e]``, e in {-1, 0, +1}, -1
# read from the end. From zero, 0 stays at zero and +1 goes positive (a
# valid machine never decrements there); from positive, a decrement reaches
# zero from 1 and stays positive above it, and 0 or +1 stays positive.
_CLASSES = (
    ((False,), (True,), (False,)),
    ((True,), (True,), (False, True)),
)


def _dead(side, symbol_count: int, state: int, positive: bool, memo: dict) -> bool:
    """Whether every word weighs zero from ``state`` at every counter value
    of class ``positive``, on a machine as ``_side`` reads it: whether no
    (state, class) pair with a nonzero final weight is reachable from it,
    stepping with ``_CLASSES``. A depth-first walk that stops at the first
    such weight. ``memo`` holds the answers found so far for this machine:
    a dead pair's walk proves every pair it met dead too."""
    _, zero, plus, finals, _ = side
    if finals[state].value:
        return False  # the common answer, before any walk
    tables, start = (zero, plus), (state, positive)
    met, stack = {start}, [start]
    while stack:
        s, c = pair = stack.pop()
        known = memo.get(pair)
        if known is False or finals[s].value:
            memo[start] = False
            return False
        if known:
            continue  # every pair it reaches is dead
        table, classes = tables[c], _CLASSES[c]
        for sym in range(symbol_count):
            step = table.get((s, sym))
            if step is not None:
                for c2 in classes[step[1]]:
                    if (key := (step[0], c2)) not in met:
                        met.add(key)
                        stack.append(key)
    memo.update(dict.fromkeys(met, True))
    return True


def _lockstep(left, right) -> bool:
    """True when a lockstep relation, a weighted bisimulation, proves the
    two machines equivalent.

    The relation maps triples (sl, sr, c), c saying whether the counter is
    positive, to a nonzero int pair (a, b), kept as the search keeps a
    word's (``_ray``). It claims that from sl and from sr at any one
    counter value of class c, every word w has a * f_left(w) = b *
    f_right(w). It starts from (initial, initial, zero) with the empty
    word's pair, and holds when at each triple:

    * the final weights fail the search's witness test at (a, b);
    * per symbol, in class c's tables (``_children``), both sides are
      stuck; or one side is stuck and the other steps to a state with
      zero series in every class it reaches; or both step with equal
      counter effects, to (sl', sr') with the search's child pair, in
      every class they reach (``_CLASSES``).

    A state has zero series in a class when every word weighs zero from it
    at every counter value of the class: when no (state, class) pair with a
    nonzero final weight is reachable from it (``_dead``).

    A triple where both sides have zero series holds with any pair, so a
    rule it breaks or a second pair for it is no conflict. Anywhere else,
    a broken rule or a second pair not proportional to the first returns
    False: the check is sufficient, not necessary. By induction on word
    length the claim holds for every triple, so the two machines weigh
    every word alike.

    It reads both machines only through ``_side`` and ``_children`` and
    performs no FieldElement operation. It assumes valid machines, whose
    nonzero step weights give no pair a zero: ``check_equivalence`` reads
    both machines' recorded violations before the search can ask.
    """
    sides = _side(left, None), _side(right, None)
    ((sl, wl), zero_l, plus_l, finals_l, _), ((sr, wr), zero_r, plus_r, finals_r, _) = sides
    p = left.field.modulus
    symbol_count = len(left.alphabet)
    memos = ({}, {})  # per side: (state, class) -> has zero series

    pairs: dict = {}
    a, b = _ray(*_cross(wl.value, wr.value), p)
    todo = [(sl, sr, False, a, b)]
    while todo:
        sl, sr, c, a, b = todo.pop()
        seen = pairs.get(key := (sl, sr, c))
        if seen is None:
            pairs[key] = a, b
            # the final-weight rule is the search's witness test, ``_cross`` inline
            fl, fr = finals_l[sl].value, finals_r[sr].value
            if _vanishes(a * fl.numerator * fr.denominator - b * fr.numerator * fl.denominator, p):
                table_l, table_r = (plus_l, plus_r) if c else (zero_l, zero_r)
                classes = _CLASSES[c]
                found = []
                for _, sl2, el, sr2, er, ml, mr in _children(table_l, sl, table_r, sr, symbol_count):
                    if sl2 is None or sr2 is None:
                        i, dst, effect = (1, sr2, er) if sl2 is None else (0, sl2, el)
                        if not all(_dead(sides[i], symbol_count, dst, c2, memos[i]) for c2 in classes[effect]):
                            break
                    elif el != er:
                        break
                    else:
                        ca, cb = a * ml, b * mr  # the child's pair, as the search's children loop has it
                        if p:
                            ca, cb = ca % p, cb % p
                        elif (g := gcd(ca, cb)) > 1:
                            ca, cb = ca // g, cb // g
                        for c2 in classes[el]:
                            found.append((sl2, sr2, c2, ca, cb))
                else:  # every rule holds at the triple: relate its successors
                    todo += found
                    continue
        elif _vanishes(seen[0] * b - a * seen[1], p):
            continue
        if not (_dead(sides[0], symbol_count, sl, c, memos[0]) and _dead(sides[1], symbol_count, sr, c, memos[1])):
            return False
    return True


def underlying_wa(automaton: Dwroca) -> Dwa:
    """Erase the counter: keep only the positive-counter table's state and
    weight behavior. The result is uninitialised, over the machine's field."""
    transitions = {key: (dst, weight) for key, (dst, _effect, weight) in automaton.delta1.items()}
    return Dwa._from_parts(automaton.states, automaton.alphabet, automaton.field, transitions,
                           automaton.final_weights, None)


def dwa_equiv(left: Dwa, right: Dwa) -> EquivalenceVerdict:
    """Decide equivalence of two initialised weighted automata.

    The verdict is complete (a proof either way); a reported witness has
    minimal length, ties broken lexicographically by alphabet order. A
    machine that is not a ``Dwa`` is a TypeError.
    """
    if not (isinstance(left, Dwa) and isinstance(right, Dwa)):
        raise TypeError("dwa_equiv compares two Dwa; use check_equivalence for counter automata")
    witness, stats = _difference_search(left, right)
    return EquivalenceVerdict(witness is None, witness, "theoretical", None, stats)
