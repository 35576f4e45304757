"""Deterministic weighted automata and exact equivalence with minimal witnesses.

The equivalence engine is a breadth-first worklist over words. Each word w
is represented by the sparse difference vector pairing the forward vector of
the left automaton with the negated forward vector of the right one; w is a
witness exactly when that vector is not orthogonal to the combined
final-weight vector. Vectors that fall in the linear span of previously
kept ones are pruned and never extended, so at most dim = |Q1| + |Q2|
vectors are ever kept and the first witness reported is shortest, with ties
broken by the alphabet's declared symbol order.

The kept vectors form a basis in echelon form: one row per pivot
coordinate, holding only coordinates above its pivot. A new vector is
reduced by popping its coordinates from a heap in increasing order, so
keeping or pruning a word costs work in the rows it meets, never a scan of
the whole basis.

The search computes on Python ints only, over the rationals as over GF(p).
A word's vector matters only up to a nonzero scalar: its extensions'
vectors scale with it, and neither span membership nor the witness test
changes when a whole vector is scaled. So each word carries one int pair,
cross-multiplied by the weights' denominators and divided by its gcd over
the rationals, reduced mod p over GF(p) (``_pair_scaler``). Every kept row
has one form in both fields: its pivot value ``d`` and its other
coordinates, fraction-free with the common factor removed over the
rationals, residues over GF(p). A reported witness gets its true weights
by stepping its word once more from the initial configurations.

The worklist works against any object exposing the small stepping interface
(``initial_config``, ``step_config``, ``final_weight``, ``alphabet``,
``field``); materialized automata and lazy unfoldings both qualify.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Mapping, Sequence

from .core import (
    Configuration,
    Dwroca,
    Word,
    _document_from_json,
    _document_to_json,
    _freeze,
    _intern_states,
    _intern_table,
    _violations,
)
from .errors import (
    AlphabetMismatch,
    FieldMismatch,
    InternalError,
    ResourceBudgetExceeded,
)
from .fields import FieldElement, FieldSpec


class Dwa:
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
        if initial is not None:
            name, weight = initial
            if name not in index:
                raise ValueError(f"unknown initial state {name!r}")
            initial = (index[name], weight)
        _freeze(
            self,
            states=states,
            alphabet=alphabet,
            field=finals[0].spec if initial is None else initial[1].spec,
            transitions=_intern_table(transitions, index, alphabet),
            final_weights=finals,
            initial=initial,
        )

    def __setattr__(self, name, value):
        raise AttributeError("Dwa is immutable")

    @property
    def size(self) -> int:
        return len(self.states)

    def state_index(self, state) -> int:
        if isinstance(state, int):
            if not 0 <= state < len(self.states):
                raise ValueError(f"state index {state} out of range")
            return state
        try:
            return self.states.index(state)
        except ValueError:
            raise ValueError(f"unknown state {state!r}") from None

    def with_initial(self, state, weight: FieldElement) -> "Dwa":
        """A copy of this automaton initialised at the given state and weight."""
        idx = self.state_index(state)
        clone = Dwa.__new__(Dwa)
        _freeze(clone, **{slot: getattr(self, slot) for slot in Dwa.__slots__})
        _freeze(clone, field=weight.spec, initial=(idx, weight))
        return clone

    def validate(self) -> list[str]:
        """Return every invariant violation; an empty list means valid."""
        initial_weight = None if self.initial is None else self.initial[1]
        return _violations(self, initial_weight, (("", self.transitions, None),))

    # -- stepping interface (shared with lazy unfoldings) ---------------

    def initial_config(self):
        return self.initial

    def step_config(self, state: int, symbol_index: int):
        return self.transitions.get((state, symbol_index))

    def final_weight(self, state: int) -> FieldElement:
        return self.final_weights[state]

    # -- acceptance -----------------------------------------------------

    def accept_weight(self, start: "WaConfig", word: Word) -> FieldElement:
        """Acceptance weight from a configuration; undefined paths give zero."""
        state, weight = start.state, start.weight
        for symbol in word:
            entry = self.transitions.get((state, self.alphabet.index_of(symbol)))
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
        states, alphabet, initial, (delta,), final = _document_from_json(obj, counter=False)
        return cls(states, alphabet, delta, final, initial)


@dataclass(frozen=True)
class WaConfig:
    """A weighted-automaton configuration: state index and nonzero weight."""

    state: int
    weight: FieldElement

    def __post_init__(self):
        if self.weight.is_zero:
            raise ValueError("configuration weight must be nonzero")


@dataclass(frozen=True)
class Witness:
    """A word on which the two machines produce different weights."""

    word: tuple[str, ...]
    f1: FieldElement
    f2: FieldElement


@dataclass(frozen=True)
class SearchStats:
    explored_words: int
    basis_size: int
    max_counter_row: int


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of an equivalence check.

    ``mode`` is "theoretical" when the search limit covers the proven witness
    bound (so Equivalent is a proof), "bounded" when a user-supplied limit
    truncated the search (Equivalent then means: no witness up to ``bound``).
    """

    equivalent: bool
    witness: Witness | None
    mode: str
    bound: int | None
    stats: SearchStats

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
    if left.alphabet != right.alphabet:
        raise AlphabetMismatch("automata must share one alphabet (same symbols, same order)")
    if left.field != right.field:
        raise FieldMismatch("automata must share one field")


def _pair_scaler(field: FieldSpec):
    """The search's one per-field step on a word's int pair.

    ``scale_pair(a, b, u, v)`` is the pair ``(a * u, b * v)`` for ints
    ``a``, ``b`` and elements ``u``, ``v``, up to a nonzero scalar:
    cross-multiplied by the denominators and divided by its gcd over the
    rationals, reduced mod p over GF(p). It is ``(0, 0)`` only when both
    products are zero, and its two ints are equal exactly when the products
    are.
    """
    p = field.modulus
    if p is None:

        def scale_pair(a: int, b: int, u: FieldElement, v: FieldElement):
            u, v = u.value, v.value
            x = a * u.numerator * v.denominator
            y = b * v.numerator * u.denominator
            g = gcd(x, y) or 1
            return x // g, y // g

    else:

        def scale_pair(a: int, b: int, u: FieldElement, v: FieldElement):
            # every denominator is 1 here
            return a * u.value % p, b * v.value % p

    return scale_pair


class _EchelonBasis:
    """Kept difference vectors in echelon form, on ints.

    ``rows`` maps each pivot coordinate to the row's other coordinates,
    which are all above the pivot, and ``scales`` maps it to the row's
    pivot value ``d`` where that is not 1. ``modulus`` is p over GF(p),
    where every value is a residue in [1, p), and None over the rationals,
    where the values are exact ints with their common factor removed. (A
    ``(d, coords)`` tuple per row would be one more object per kept row for
    the garbage collector to walk, which slowed searches keeping 10^5 rows
    by about 15 %.)
    """

    __slots__ = ("rows", "scales", "modulus")

    def __init__(self, modulus: int | None):
        self.rows: dict = {}
        self.scales: dict = {}
        self.modulus = modulus

    def insert(self, vec: dict) -> bool:
        """Keep ``vec`` as a new row unless the rows span it; True if kept.

        ``vec`` maps coordinates to nonzero ints and is consumed. Its
        coordinates are popped from a heap in increasing order. One with a
        row is cancelled by ``vec = d * vec - x * row``, where ``x`` is its
        value: the row only adds coordinates above it, which are still to be
        popped. The first one without a row becomes the new row's pivot.
        """
        rows, scales, p = self.rows, self.scales, self.modulus
        heap = list(vec)
        heapify(heap)
        while heap:
            coord = heappop(heap)
            x = vec.pop(coord, None)
            if x is None:
                continue  # cancelled, or reduced at an earlier entry
            coords = rows.get(coord)
            if coords is None:
                if not p:
                    g = gcd(x, *vec.values())
                    if g != 1:
                        x //= g
                        for c in vec:
                            vec[c] //= g
                rows[coord] = vec
                if x != 1:
                    scales[coord] = x
                return True
            d = scales.get(coord, 1)
            if d != 1:
                if p:
                    for c in vec:
                        vec[c] = vec[c] * d % p
                else:
                    for c in vec:
                        vec[c] *= d
            for c, v in coords.items():
                old = vec.get(c)
                new = -x * v if old is None else old - x * v
                if p:
                    new %= p
                if new:
                    if old is None:
                        heappush(heap, c)
                    vec[c] = new
                elif old is not None:
                    del vec[c]
        return False


def _difference_search(
    left,
    right,
    *,
    max_len: int | None = None,
    budget: int | None = None,
    dimension: int | None = None,
    prune: bool = True,
    row_of=None,
):
    """Breadth-first difference-vector search.

    Returns ``(witness | None, stats)``; None means no witness among the
    explored words, which with pruning enabled covers every word of length
    up to ``max_len`` (all words, when ``max_len`` is None). Raises
    ResourceBudgetExceeded when more than ``budget`` words get dequeued.
    """
    _require_compatible(left, right)
    init_l = left.initial_config()
    init_r = right.initial_config()
    if init_l is None or init_r is None:
        raise ValueError("equivalence search needs initialised automata")
    scale_pair = _pair_scaler(left.field)
    zero = left.field.zero()
    symbol_count = len(left.alphabet)
    final_l, final_r = left.final_weight, right.final_weight
    step_l, step_r = left.step_config, right.step_config

    # A queue entry (idx, depth, sl, a, sr, b) holds a word's difference
    # vector up to a nonzero scalar: int a at (0, sl), int b at (1, sr). A
    # stuck side has state None and weight 0. Scaling is allowed because
    # the vectors of a word's extensions scale with it, and neither span
    # membership nor the witness test (f_left != f_right) changes when the
    # whole vector is scaled.
    stuck = (None, zero)
    entries: list[tuple[int, int]] = [(-1, -1)]
    a, b = scale_pair(1, 1, init_l[1], init_r[1])
    queue: deque = deque([(0, 0, init_l[0], a, init_r[0], b)])
    basis = _EchelonBasis(left.field.modulus)
    rows, insert = basis.rows, basis.insert
    explored = 0
    max_row = 0

    while queue:
        idx, depth, sl, a, sr, b = queue.popleft()
        explored += 1
        if budget is not None and explored > budget:
            raise ResourceBudgetExceeded(explored, budget)
        if row_of is not None:
            if sl is not None:
                row = row_of(sl)
                if row > max_row:
                    max_row = row
            if sr is not None:
                row = row_of(sr)
                if row > max_row:
                    max_row = row
        f_left, f_right = scale_pair(
            a,
            b,
            final_l(sl) if sl is not None else zero,
            final_r(sr) if sr is not None else zero,
        )
        if f_left != f_right:
            word = _word_of(entries, idx)
            witness = Witness(
                tuple(left.alphabet.symbols[sym] for sym in word),
                _weight_of(left, word),
                _weight_of(right, word),
            )
            return witness, SearchStats(explored, len(rows), max_row)

        if prune:
            # The right side's weights enter unnegated: negating one side's
            # coordinates in every vector leaves span membership unchanged.
            vec: dict = {}
            if a:
                vec[(0, sl)] = a
            if b:
                vec[(1, sr)] = b
            if not insert(vec):
                continue  # spanned by kept vectors: extensions cannot add witnesses
            if dimension is not None and len(rows) > dimension:
                raise InternalError(
                    f"kept {len(rows)} vectors in a space of dimension {dimension}"
                )

        if max_len is not None and depth >= max_len:
            continue
        for sym in range(symbol_count):
            nl = step_l(sl, sym) if sl is not None else None
            nr = step_r(sr, sym) if sr is not None else None
            if nl is None:
                if nr is None:
                    continue  # both stuck: every extension weighs zero on both sides
                nl = stuck
            elif nr is None:
                nr = stuck
            ca, cb = scale_pair(a, b, nl[1], nr[1])
            entries.append((idx, sym))
            queue.append((len(entries) - 1, depth + 1, nl[0], ca, nr[0], cb))

    return None, SearchStats(explored, len(rows), max_row)


def _word_of(entries: list[tuple[int, int]], idx: int) -> list[int]:
    """Symbol indices of the word at queue entry ``idx``."""
    word = []
    while idx != 0:
        idx, sym = entries[idx]
        word.append(sym)
    word.reverse()
    return word


def _weight_of(machine, word: list[int]) -> FieldElement:
    """True acceptance weight of a word, stepped from the initial
    configuration through the stepping interface; zero when it gets stuck."""
    state, weight = machine.initial_config()
    for sym in word:
        step = machine.step_config(state, sym)
        if step is None:
            return machine.field.zero()
        state, w = step
        weight = weight * w
    return weight * machine.final_weight(state)


def underlying_wa(automaton: Dwroca) -> Dwa:
    """Erase the counter: keep only the positive-counter table's state and
    weight behavior. The result is uninitialised."""
    transitions = {}
    for (src, sym), (dst, _effect, weight) in automaton.delta1.items():
        key = (automaton.states[src], automaton.alphabet.symbols[sym])
        transitions[key] = (automaton.states[dst], weight)
    final = {name: automaton.final_weights[i] for i, name in enumerate(automaton.states)}
    return Dwa(automaton.states, automaton.alphabet, transitions, final)


def dwa_equiv(left: Dwa, right: Dwa) -> EquivalenceVerdict:
    """Decide equivalence of two initialised weighted automata.

    The verdict is complete (a proof either way); a reported witness has
    minimal length, ties broken lexicographically by alphabet order.
    """
    if left.initial is None or right.initial is None:
        raise ValueError("dwa_equiv needs initialised automata")
    witness, stats = _difference_search(
        left, right, dimension=left.size + right.size
    )
    return EquivalenceVerdict(witness is None, witness, "theoretical", None, stats)


def bounded_k_equiv(left, right, k: int) -> bool:
    """True iff the two initialised automata agree on every word of length
    at most k. Saturation of the kept-vector basis ends the search early."""
    if k < 0:
        raise ValueError("k must be a natural number")
    dimension = None
    if isinstance(left, Dwa) and isinstance(right, Dwa):
        dimension = left.size + right.size
    witness, _stats = _difference_search(left, right, max_len=k, dimension=dimension)
    return witness is None


def find_k_equiv_wa_config(
    automaton: Dwroca, config: Configuration, wa: Dwa, k: int
) -> WaConfig | None:
    """Find a weighted-automaton configuration k-equivalent to ``config``.

    For a candidate state q, acceptance from (q, t) is linear in t, so the
    first word on which both sides accept with nonzero weight pins t
    exactly; a zero/nonzero mismatch on an earlier word rules q out. The
    pinned candidate is then verified by a depth-k equivalence run against
    the counter automaton restricted to the rows reachable within k steps.
    Returns None when no state of ``wa`` admits any weight.
    """
    from .unfold import LazyUnfolding

    _require_compatible(automaton, wa)
    if k < 0:
        raise ValueError("k must be a natural number")
    view = LazyUnfolding(
        automaton,
        config.counter + k,
        initial_state=(config.state, config.counter),
        initial_weight=config.weight,
    )
    one = automaton.field.one()
    for q in range(wa.size):
        candidate = _pin_weight(view, wa, q, k, one)
        if candidate is None:
            continue
        initialised = wa.with_initial(q, candidate)
        if bounded_k_equiv(view, initialised, k):
            return WaConfig(q, candidate)
    return None


def _pin_weight(view, wa: Dwa, q: int, k: int, one: FieldElement):
    """The forced weight for candidate state q, or None when q is ruled out.

    Scans words in shortest-then-lexicographic order for the first one on
    which either side has nonzero acceptance weight. Nonzero on both sides
    pins the weight; nonzero on exactly one side rules q out; all-zero up
    to depth k means any weight works and 1 is returned.
    """
    zero = view.field.zero()
    start_state = view.initial_config()[0]
    start_weight = view.initial_config()[1]
    queue = deque([(start_state, q, start_weight, one, 0)])
    seen = {(start_state, q)}
    symbol_count = len(view.alphabet)
    while queue:
        sa, sb, wa_weight, wb_weight, depth = queue.popleft()
        fa = wa_weight * view.final_weight(sa) if sa is not None else zero
        gb = wb_weight * wa.final_weight(sb) if sb is not None else zero
        if not fa.is_zero or not gb.is_zero:
            if fa.is_zero or gb.is_zero:
                return None
            return fa * gb.inverse()
        if depth >= k:
            continue
        for sym in range(symbol_count):
            na = view.step_config(sa, sym) if sa is not None else None
            nb = wa.step_config(sb, sym) if sb is not None else None
            if na is None and nb is None:
                continue
            state_a, weight_a = (na[0], wa_weight * na[1]) if na else (None, wa_weight)
            state_b, weight_b = (nb[0], wb_weight * nb[1]) if nb else (None, wb_weight)
            key = (state_a, state_b)
            if key in seen:
                continue
            seen.add(key)
            queue.append((state_a, state_b, weight_a, weight_b, depth + 1))
    return one
