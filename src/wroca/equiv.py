"""Equivalence of two one-counter automata, with minimal witness extraction.

The decision pipeline: compute the witness-length bound for the combined
size, unfold both machines lazily up to that bound, and run the
difference-vector worklist over the unfoldings. Two machines differ exactly
when some word no longer than the bound distinguishes them, so the worklist
never explores longer words. The reported witness is shortest, ties broken
by alphabet order, and always replays through the counter semantics to the
reported weights.

The theoretical bound is astronomically large even for tiny machines, so a
verdict in default mode relies on the kept-vector basis saturating early.
When the reachable row space keeps growing (counters that climb forever on
both sides), saturation never happens and the search stops with
ResourceBudgetExceeded instead of a verdict; passing ``bound_override``
turns the run into a bounded search that always terminates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Dwroca, Run, Word
from .dwa import (
    EquivalenceVerdict,
    Witness,
    _difference_search,
    _require_compatible,
)
from .errors import InternalError, InvalidAutomaton
from .fields import FieldElement
from .unfold import (
    BELT_THICKNESS_COEFF,
    INITIAL_SPACE_COEFF,
    LazyUnfolding,
    compute_bounds,
)

DEFAULT_SEARCH_BUDGET = 100_000


@dataclass(frozen=True)
class WitnessReplay:
    """Both acceptance weights of a word plus the full runs behind them."""

    f1: FieldElement
    f2: FieldElement
    run1: Run
    run2: Run


def _require_valid(a1: Dwroca, a2: Dwroca) -> None:
    violations = [f"left: {v}" for v in a1.validate()]
    violations += [f"right: {v}" for v in a2.validate()]
    if violations:
        raise InvalidAutomaton(violations)


def check_equivalence(
    a1: Dwroca,
    a2: Dwroca,
    bound_override: int | None = None,
    *,
    budget: int | None = DEFAULT_SEARCH_BUDGET,
    initial_coeff: int = INITIAL_SPACE_COEFF,
    belt_coeff: int = BELT_THICKNESS_COEFF,
) -> EquivalenceVerdict:
    """Decide equivalence, or report a minimal distinguishing witness.

    Without ``bound_override`` the word-length limit is the proven witness
    bound and an Equivalent verdict is a proof. An override below that
    bound demotes the verdict to mode "bounded": Equivalent then only means
    no witness of length <= override exists. ``budget`` caps dequeued words;
    exceeding it raises ResourceBudgetExceeded, which is a non-verdict.
    """
    _require_valid(a1, a2)
    _require_compatible(a1, a2)
    bounds = compute_bounds(a1.size, a2.size, initial_coeff, belt_coeff)
    if bound_override is None:
        limit = bounds.witness_bound
        mode = "theoretical"
    else:
        if bound_override < 0:
            raise ValueError("bound override must be a natural number")
        limit = bound_override
        mode = "theoretical" if bound_override >= bounds.witness_bound else "bounded"
    left = LazyUnfolding(a1, limit)
    right = LazyUnfolding(a2, limit)
    witness, stats = _difference_search(
        left,
        right,
        max_len=limit,
        budget=budget,
        dimension=(a1.size + a2.size) * (limit + 1),
        row_of=LazyUnfolding.row_of,
    )
    if witness is None:
        return EquivalenceVerdict(True, None, mode, limit, stats)
    f1 = a1.accept_weight_or_zero(witness.word)
    f2 = a2.accept_weight_or_zero(witness.word)
    # The unfolding is exact on words within the row bound, so the replayed
    # weights must agree with the searched ones.
    if f1 != witness.f1 or f2 != witness.f2:
        raise InternalError(
            f"unfolded search disagrees with replay on {witness.word!r}: "
            f"searched {witness.f1}, {witness.f2}; replayed {f1}, {f2}"
        )
    return EquivalenceVerdict(False, Witness(witness.word, f1, f2), mode, limit, stats)


def replay_witness(a1: Dwroca, a2: Dwroca, word: Word) -> WitnessReplay:
    """Both acceptance weights (zero-completed) and both full runs."""
    run1 = a1.run_word(a1.initial_configuration(), word)
    run2 = a2.run_word(a2.initial_configuration(), word)
    f1 = a1.accept_weight_or_zero(word)
    f2 = a2.accept_weight_or_zero(word)
    return WitnessReplay(f1, f2, run1, run2)

