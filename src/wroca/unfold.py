"""Row-bounded unfolding of a one-counter automaton into a weighted automaton.

Unfolding with bound M keeps one copy of every control state per counter
row 0..M (so |Q| * (M + 1) states in total). Row 0 carries exactly the
zero-test transitions, rows 1..M the positive-counter ones, and any move
that would leave the row range is dropped, making the word undefined there.
Words whose run never pushes the counter above M keep their exact
acceptance weight.

Also computes the polynomial bounds that make bounded search complete,
from two fixed coefficients (``INITIAL_SPACE_COEFF``,
``BELT_THICKNESS_COEFF``): the witness-length bound grows like K^26 and the
counter-value bound like K^12 in the combined state count K, so the
theoretical bound is a completeness guarantee rather than a practical loop
count. Deciding equivalence builds no unfolding: the search steps both
machines from row 0, and a word of length n never climbs above row n, so on
the words it tests it agrees with the unfolding cut at its word-length
limit. Only ``testkit.find_k_equiv_wa_config`` searches an unfolding.
"""

from __future__ import annotations

from functools import lru_cache

from .core import Dwroca, _Record, _require_natural
from .dwa import Dwa
from .errors import BoundTooLarge, InvalidAutomaton
from .fields import _Frozen, _setattr

DEFAULT_STATE_CAP = 10_000_000

# Coefficients of the two partition polynomials: initial-space size 14 K^6
# and belt thickness 6 K^4.
INITIAL_SPACE_COEFF = 14
BELT_THICKNESS_COEFF = 6


class BoundReport(_Record):
    """The exact integer bounds for a combined state count k.

    ``witness_bound`` caps the length of a minimal distinguishing word of
    two inequivalent machines; ``counter_bound`` caps the counter values in
    its run. ``initial_space`` and ``belt_thickness`` are the partition
    polynomials those are assembled from.
    """

    __slots__ = ("k", "initial_space", "belt_thickness", "counter_bound", "witness_bound")

    def __init__(self, k: int, initial_space: int, belt_thickness: int, counter_bound: int, witness_bound: int):
        _setattr(self, "k", k)
        _setattr(self, "initial_space", initial_space)
        _setattr(self, "belt_thickness", belt_thickness)
        _setattr(self, "counter_bound", counter_bound)
        _setattr(self, "witness_bound", witness_bound)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "initial_space": self.initial_space,
            "belt_thickness": self.belt_thickness,
            "counter_bound": self.counter_bound,
            "witness_bound": self.witness_bound,
        }


def bounds_for_k(k: int) -> BoundReport:
    """Evaluate the bound polynomials at a combined state count k >= 1, an
    int: a bool, a float or a string is a ValueError.

    Initial space ``14 k^6``, belt thickness ``6 k^4``, counter bound
    ``P1 + 2 ((k^2 P2)^2 + 1)``, witness bound ``2 (k * P3)^2``; all exact
    big integers.
    """
    # checked before the cache, which may answer k=True with k=1's entry
    _require_natural(k, "combined size must be at least 1", 1)
    return _bounds(k)


@lru_cache(maxsize=256)  # pure, and the report is immutable
def _bounds(k: int) -> BoundReport:
    initial_space = INITIAL_SPACE_COEFF * k**6
    belt_thickness = BELT_THICKNESS_COEFF * k**4
    counter_bound = initial_space + 2 * ((k * k * belt_thickness) ** 2 + 1)
    witness_bound = 2 * (k * counter_bound) ** 2
    return BoundReport(k, initial_space, belt_thickness, counter_bound, witness_bound)


def compute_bounds(size1: int, size2: int) -> BoundReport:
    """Exact bounds for a pair of machines of the given sizes, each an int
    of at least 1: a bool, a float or a string is a ValueError."""
    _require_natural(size1, "automaton sizes must be at least 1", 1)
    _require_natural(size2, "automaton sizes must be at least 1", 1)
    return _bounds(size1 + size2)


class LazyUnfolding(_Frozen):
    """On-demand view of the unfolding: states are (state, row) pairs.

    ``step_config`` steps one such pair as ``unfold`` does. No package code
    builds a view; tests compare it with ``unfold``, and perfbench's tracer
    wraps ``step_config``.
    """

    __slots__ = ("automaton", "bound")

    def __init__(self, automaton: Dwroca, bound: int):
        _require_natural(bound, "unfold bound must be a natural number")
        _setattr(self, "automaton", automaton)
        _setattr(self, "bound", bound)

    @property
    def size(self) -> int:
        return self.automaton.size * (self.bound + 1)

    def step_config(self, state: tuple[int, int], symbol_index: int):
        q, row = state
        entry = self.automaton.transition(q, row, symbol_index)
        if entry is None:
            return None
        dst, effect, weight = entry
        row += effect
        if row < 0 or row > self.bound:
            return None
        return ((dst, row), weight)


def unfold(automaton: Dwroca, bound: int, state_cap: int | None = None) -> Dwa:
    """Materialize the unfolding as an initialised weighted automaton.

    States are named "state#row" over rows 0..bound, giving
    |Q| * (bound + 1) states; (state, row) has index row * |Q| + state.
    Refuses to build more states than ``state_cap`` (default 10^7).
    """
    if automaton._violations:
        raise InvalidAutomaton(automaton._violations)
    _require_natural(bound, "unfold bound must be a natural number")
    size, count = automaton.size, automaton.size * (bound + 1)
    cap = DEFAULT_STATE_CAP if state_cap is None else state_cap
    if count > cap:
        raise BoundTooLarge(count, cap)
    rows = range(bound + 1)
    states = tuple([f"{name}#{row}" for row in rows for name in automaton.states])
    transitions = {}
    for row in rows:  # a valid machine's steps never fall below row 0
        for (q, sym), (dst, effect, weight) in (automaton.delta1 if row else automaton.delta0).items():
            if row + effect <= bound:
                transitions[row * size + q, sym] = ((row + effect) * size + dst, weight)
    initial = (automaton.initial_state, automaton.initial_weight)
    finals = automaton.final_weights * (bound + 1)
    return Dwa._from_parts(states, automaton.alphabet, automaton.field, transitions, finals, initial)
