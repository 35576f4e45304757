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
kept-vector basis saturates, or, once it has tested ``_CERTIFY_AFTER`` words
without a witness, when the lockstep certificate (``_lockstep``) proves the
machines equivalent from their tables: a relation on (left state, right
state, counter class) under which both machines make equal counter moves.
The certificate computes on the search's int pairs, as ``_ray`` keeps
them, and performs no FieldElement operation.
A pair whose counters climb out of step, like a counting machine against
its counter-free copy, is left to the search, which then stops with
ResourceBudgetExceeded instead of a verdict; passing ``bound_override``
turns the run into a bounded search that always terminates and never asks
the certificate.
"""

from __future__ import annotations

from .core import Dwroca, Word
from .dwa import (
    EquivalenceVerdict,
    Witness,
    _difference_search,
    _ray,
    _vanishes,
)
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
    has tested ``_CERTIFY_AFTER`` words, proves that none is. An override
    below that bound demotes the verdict to mode "bounded": Equivalent then
    only means no witness of length <= override exists, and the certificate
    is not asked. ``budget`` caps dequeued words (None: no cap); exceeding
    it raises ResourceBudgetExceeded, which is a non-verdict.

    A NotEquivalent verdict's witness is ``replay_witness`` of its word; the
    search raises InternalError unless that replay has exactly the weights
    it steps through the machines' tables, or when those are equal.
    Machines over different alphabets or fields raise AlphabetMismatch or
    FieldMismatch.
    """
    _require_valid(a1, a2)
    bounds = compute_bounds(a1.size, a2.size)
    if bound_override is None:
        limit = bounds.witness_bound
        mode = "theoretical"
    else:
        if bound_override < 0:
            raise ValueError("bound override must be a natural number")
        limit = bound_override
        mode = "theoretical" if bound_override >= bounds.witness_bound else "bounded"
    if budget is not None and budget < 0:
        raise ValueError("budget must be a natural number")
    certify = (lambda: _lockstep(a1, a2)) if mode == "theoretical" else None
    witness, stats = _difference_search(
        a1,
        a2,
        max_len=limit,
        budget=budget,
        certify=certify,
        replay=lambda word: replay_witness(a1, a2, word),
    )
    return EquivalenceVerdict(witness is None, witness, mode, limit, stats)


def _classes(positive: bool, effect: int) -> tuple:
    """The counter classes, as "is positive", that a step with counter
    ``effect`` reaches from a counter in class ``positive``. A decrement
    from a positive counter reaches zero from 1 and stays positive above
    it."""
    if not positive:
        return (effect > 0,)
    return (False, True) if effect < 0 else (True,)


def _zero_series(machine: Dwroca) -> set:
    """The (state, positive) pairs from which every word weighs zero at
    every counter value of the class: the greatest set whose members have
    final weight zero and step only to members, in every class reached."""
    tables = (machine.delta0, machine.delta1)
    symbols = range(len(machine.alphabet))
    zero = {(s, c) for s, w in enumerate(machine.final_weights) if w.is_zero for c in (False, True)}
    changed = True
    while changed:
        changed = False
        for s, c in list(zero):
            for sym in symbols:
                step = tables[c].get((s, sym))
                if step is not None and any((step[0], c2) not in zero for c2 in _classes(c, step[1])):
                    zero.discard((s, c))
                    changed = True
                    break
    return zero


def _lockstep(a1: Dwroca, a2: Dwroca) -> bool:
    """True when a lockstep relation proves the two machines equivalent.

    The relation maps triples (p, q, c), c saying whether the counter is
    positive, to a ratio rho. It claims that from p and from q at any one
    counter value of class c, every word weighs rho times as much on the
    left as on the right. It starts from (initial, initial, zero) with rho
    = right initial weight / left initial weight, and holds when at each
    triple:

    * the final weights agree: final(p) = rho * final(q);
    * per symbol, in class c's tables, both sides are stuck; or one side is
      stuck and the other steps to a state with zero series in every class
      it reaches; or both step with equal counter effects, to (p', q') with
      ratio rho * v / u, u the left step weight and v the right, in every
      class they reach (``_classes``): from zero, 0 stays at zero and +1
      goes positive; from positive, -1 reaches both classes, and 0 or +1
      stays positive.

    A triple where both sides have zero series holds with any ratio, so a
    rule it breaks or a second ratio for it is no conflict. Anywhere else,
    a broken rule or a second ratio returns False: the check is
    sufficient, not necessary. By induction on word length the claim holds
    for every triple, so the two machines weigh every word alike.

    The check computes on the search's int pairs and performs no
    FieldElement operation: rho is a pair (n, d) meaning n / d, kept as
    ``_ray`` keeps the search's pairs, and each equation is tested
    cross-multiplied, against zero mod p over GF(p). It assumes valid
    machines: ``check_equivalence`` reads both machines' recorded
    violations before it can ask, and with nonzero step weights no ratio's
    d is 0.
    """
    modulus = a1.field.modulus
    symbols = range(len(a1.alphabet))
    zero = [None, None]  # each machine's zero-series pairs, once one is asked for

    def dead(side: int, state: int, positive: bool) -> bool:
        if zero[side] is None:
            zero[side] = _zero_series((a1, a2)[side])
        return (state, positive) in zero[side]

    def successors(p: int, q: int, c: bool, rho: tuple) -> list | None:
        """The triples the rules relate to (p, q, c) at rho, or None when a
        rule fails there."""
        n, d = rho
        fl, fr = a1.final_weights[p].value, a2.final_weights[q].value
        if not _vanishes(fl.numerator * fr.denominator * d - n * fr.numerator * fl.denominator, modulus):
            return None
        table1, table2 = (a1.delta1, a2.delta1) if c else (a1.delta0, a2.delta0)
        found = []
        for sym in symbols:
            step1, step2 = table1.get((p, sym)), table2.get((q, sym))
            if step1 is None and step2 is None:
                continue
            if step1 is None or step2 is None:
                side, (dst, effect, _) = (0, step1) if step2 is None else (1, step2)
                if not all(dead(side, dst, c2) for c2 in _classes(c, effect)):
                    return None
            elif step1[1] != step2[1]:
                return None
            else:
                u, v = step1[2].value, step2[2].value
                ratio = _ray(n * v.numerator * u.denominator, d * v.denominator * u.numerator, modulus)
                found += [(step1[0], step2[0], c2, ratio) for c2 in _classes(c, step1[1])]
        return found

    ratios: dict = {}
    w1, w2 = a1.initial_weight.value, a2.initial_weight.value
    rho = _ray(w2.numerator * w1.denominator, w2.denominator * w1.numerator, modulus)
    todo = [(a1.initial_state, a2.initial_state, False, rho)]
    while todo:
        p, q, c, rho = todo.pop()
        seen = ratios.get((p, q, c))
        if seen is None:
            ratios[(p, q, c)] = rho
            found = successors(p, q, c, rho)
            if found is not None:
                todo += found
                continue
        elif _vanishes(seen[0] * rho[1] - rho[0] * seen[1], modulus):
            continue
        if not (dead(0, p, c) and dead(1, q, c)):
            return False
    return True


def replay_witness(a1: Dwroca, a2: Dwroca, word: Word) -> Witness:
    """``word`` with both machines' acceptance weights, zero-completed: an
    undefined run weighs zero."""
    return Witness(tuple(word), a1.accept_weight_or_zero(word), a2.accept_weight_or_zero(word))

