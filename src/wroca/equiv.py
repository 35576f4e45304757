"""Equivalence of two one-counter automata, with minimal witness extraction.

The decision pipeline: compute the witness-length bound for the combined
size, and run the difference-vector worklist over both machines, stepping
their counters itself, on words no longer than that bound. Two machines
differ exactly when some such word distinguishes them. The reported
witness is shortest, ties broken by alphabet order, and is its replay
through the counter semantics (``replay_witness``), made once: the search
steps the witness's word once more through its own tables and raises
InternalError unless the replay gives exactly those weights.

The theoretical bound is astronomically large even for tiny machines, so a
verdict in default mode relies on the search ending early. It ends when the
kept-vector basis saturates, or, once it has tested the empty word without
a witness, when the lockstep certificate (``dwa._lockstep``) proves the
machines equivalent from their tables: a relation on (left state, right
state, counter class) under which both machines make equal counter moves.
A pair whose counters climb out of step, like a counting machine against
its counter-free copy, is left to the search, which then stops with
ResourceBudgetExceeded instead of a verdict; passing ``bound_override``
turns the run into a bounded search that always terminates and never asks
the certificate.
"""

from __future__ import annotations

from .core import Dwroca, Word
from .dwa import EquivalenceVerdict, Witness, _difference_search
from .errors import InvalidAutomaton
from .unfold import compute_bounds

DEFAULT_SEARCH_BUDGET = 100_000


def _require_valid(a1: Dwroca, a2: Dwroca) -> None:
    """Raise InvalidAutomaton listing both machines' violations, each
    prefixed by its side. It reads the violations each machine recorded
    when it was built and walks no table."""
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
) -> EquivalenceVerdict:
    """Decide equivalence, or report a minimal distinguishing witness.

    Without ``bound_override`` the word-length limit is the proven witness
    bound and an Equivalent verdict is a proof: either no word within the
    bound is a witness, or the lockstep certificate, asked once the search
    has tested the empty word, proves that none is. An override
    below that bound demotes the verdict to mode "bounded": Equivalent then
    only means no witness of length <= override exists, and the certificate
    is not asked. ``budget`` caps dequeued words (None: no cap); exceeding
    it raises ResourceBudgetExceeded, which is a non-verdict.

    A NotEquivalent verdict's witness is ``replay_witness`` of its word; the
    search raises InternalError unless that replay has exactly the weights
    it steps through the machines' tables, or when those are equal.
    Machines over different alphabets or fields raise AlphabetMismatch or
    FieldMismatch, and a machine that is not a ``Dwroca`` a TypeError.
    """
    if not (isinstance(a1, Dwroca) and isinstance(a2, Dwroca)):
        raise TypeError("check_equivalence compares two Dwroca; use dwa_equiv for weighted automata")
    _require_valid(a1, a2)
    # type(...) is int: a bool is not a natural number
    if bound_override is not None and (type(bound_override) is not int or bound_override < 0):
        raise ValueError("bound override must be a natural number")
    if budget is not None and (type(budget) is not int or budget < 0):
        raise ValueError("budget must be a natural number")
    bounds = compute_bounds(a1.size, a2.size)
    limit = bounds.witness_bound if bound_override is None else bound_override
    mode = "theoretical" if limit >= bounds.witness_bound else "bounded"
    witness, stats = _difference_search(
        a1,
        a2,
        max_len=limit,
        budget=budget,
        certify=mode == "theoretical",
        replay=lambda word: replay_witness(a1, a2, word),
    )
    return EquivalenceVerdict(witness is None, witness, mode, limit, stats)


def replay_witness(a1: Dwroca, a2: Dwroca, word: Word) -> Witness:
    """``word`` with both machines' acceptance weights, zero-completed: an
    undefined run weighs zero."""
    return Witness(tuple(word), a1.accept_weight_or_zero(word), a2.accept_weight_or_zero(word))

