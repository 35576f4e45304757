"""Brute-force oracles, seeded random instance generation, and a driver for
the depth-k matching property. Loop-removal drivers live in ``pumping``.

The oracle enumerates every word in shortest-then-lexicographic order and
reports the first weight mismatch, so its witness is minimal by
construction. It walks the word tree as synchronized configuration pairs,
which allows two exact accelerations that leave the enumeration semantics
untouched: subtrees where both machines are stuck agree everywhere (all
weights zero), and two tree nodes with the same states, counters, and
weight ratio have identical mismatch patterns, so only the
lexicographically first of them needs expanding. Both can be switched off
to get the plain word-by-word walk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field

from .core import Alphabet, Configuration, Dwroca
from .core import _require_natural, _require_state
from .dwa import Dwa, WaConfig, _difference_search, _require_compatible
from .errors import ResourceBudgetExceeded
from .fields import FieldElement, FieldSpec, rational
from .unfold import unfold

DEFAULT_ORACLE_BUDGET = 5_000_000

_SYMBOL_POOL = "abcdefghijklmnopqrstuvwxyz"


def default_weight_pool(spec: FieldSpec) -> tuple[FieldElement, ...]:
    """Small nonzero weights; small pools make collisions (and therefore
    genuinely equivalent random pairs) likely. Over GF(p) the pool is the
    residues 1..min(p - 1, 16), so a large prime costs no more than a small
    one."""
    if spec.kind == "rational":
        return (
            spec.element(1),
            spec.element(2),
            spec.element(3),
            spec.element("1/2"),
            spec.element(-1),
        )
    return tuple(spec.element(i) for i in range(1, min(spec.modulus, 17)))


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for seeded random automaton generation."""

    seed: int
    num_states: tuple[int, int] = (2, 4)
    alphabet_size: tuple[int, int] = (2, 2)
    field: FieldSpec = dataclass_field(default_factory=rational)
    weight_pool: tuple[FieldElement, ...] | None = None
    density: float = 0.8
    zero_final_prob: float = 0.3

    def __post_init__(self):
        lo, hi = self.num_states
        if not 1 <= lo <= hi:
            raise ValueError("num_states range must satisfy 1 <= lo <= hi")
        lo, hi = self.alphabet_size
        if not 1 <= lo <= hi <= len(_SYMBOL_POOL):
            raise ValueError("alphabet_size range out of range")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("density must be in [0, 1]")
        if not 0.0 <= self.zero_final_prob <= 1.0:
            raise ValueError("zero_final_prob must be in [0, 1]")
        if self.weight_pool is not None:
            if not self.weight_pool:
                raise ValueError("weight pool must be non-empty")
            for w in self.weight_pool:
                if w.spec is not self.field:
                    raise ValueError("weight pool element from a different field")
                if w.is_zero:
                    raise ValueError("weight pool must not contain zero")

    def pool(self) -> tuple[FieldElement, ...]:
        return self.weight_pool if self.weight_pool is not None else default_weight_pool(self.field)


def generate(cfg: GeneratorConfig) -> Dwroca:
    """A validate-clean random automaton; the same seed rebuilds it exactly."""
    rng = random.Random(cfg.seed)
    n = rng.randint(*cfg.num_states)
    k = rng.randint(*cfg.alphabet_size)
    pool = cfg.pool()
    delta0 = {}
    delta1 = {}
    for src in range(n):
        for sym in range(k):
            if rng.random() < cfg.density:
                delta0[src, sym] = (rng.randrange(n), rng.choice((0, 1)), rng.choice(pool))
            if rng.random() < cfg.density:
                delta1[src, sym] = (rng.randrange(n), rng.choice((-1, 0, 1)), rng.choice(pool))
    zero = cfg.field.zero()
    finals = tuple([zero if rng.random() < cfg.zero_final_prob else rng.choice(pool) for _ in range(n)])
    initial = (0, rng.choice(pool))
    states = tuple([f"q{i}" for i in range(n)])
    return Dwroca._from_parts(states, Alphabet(_SYMBOL_POOL[:k]), initial, delta0, delta1, finals)


def split_state(automaton: Dwroca, seed: int) -> Dwroca:
    """An equivalent but non-isomorphic copy: duplicate one state and split
    its incoming transitions randomly between the original and the copy,
    which gets the next index."""
    rng = random.Random(seed)
    n = automaton.size
    target = rng.randrange(n)
    copy_name = automaton.states[target] + "'"
    while copy_name in automaton.states:
        copy_name += "'"

    def retarget(dst: int) -> int:
        return n if dst == target and rng.random() < 0.5 else dst

    def rebuild(table):
        out = {}
        for (src, sym), (dst, effect, weight) in sorted(table.items()):
            out[src, sym] = (retarget(dst), effect, weight)
            if src == target:
                out[n, sym] = (retarget(dst), effect, weight)
        return out

    delta0 = rebuild(automaton.delta0)
    delta1 = rebuild(automaton.delta1)
    finals = automaton.final_weights + (automaton.final_weights[target],)
    initial = automaton.initial_state
    if initial == target and rng.random() < 0.5:
        initial = n
    states = automaton.states + (copy_name,)
    return Dwroca._from_parts(states, automaton.alphabet, (initial, automaton.initial_weight), delta0, delta1, finals)


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an exhaustive shortest-first enumeration.

    ``agreement_table[l]`` counts the words of length l confirmed to agree:
    the full count for every completed length, and the number of words
    lexicographically before the witness at the witness length.
    """

    shortest_witness: tuple[str, ...] | None
    checked_up_to: int
    agreement_table: tuple[int, ...]


def brute_force_witness(
    a1: Dwroca,
    a2: Dwroca,
    max_len: int,
    *,
    node_budget: int = DEFAULT_ORACLE_BUDGET,
    collapse: bool = True,
) -> OracleResult:
    """Enumerate every word of length <= max_len in shortest-then-lex order
    and return the first acceptance-weight mismatch (zero-completed).

    ``collapse=False`` disables the exact node-collapsing accelerations and
    walks one node per word; the result is identical either way. Each node
    is one word, so processing more than ``node_budget`` of them raises
    ResourceBudgetExceeded.
    """
    _require_natural(max_len, "max_len must be a natural number")
    _require_natural(node_budget, "budget must be a natural number")
    _require_compatible(a1, a2)
    zero = a1.field.zero()
    symbols = a1.alphabet.symbols
    m = len(symbols)

    def advance(machine, cfg, sym):
        if cfg is None:
            return None
        state, counter, weight = cfg
        entry = machine.transition(state, counter, sym)
        if entry is None:
            return None
        dst, effect, w = entry
        return (dst, counter + effect, weight * w)

    def accept(machine, cfg):
        if cfg is None:
            return zero
        return cfg[2] * machine.final_weights[cfg[0]]

    start1 = (a1.initial_state, 0, a1.initial_weight)
    start2 = (a2.initial_state, 0, a2.initial_weight)
    level = [((), start1, start2)]
    agreement = []
    nodes = 0
    for depth in range(max_len + 1):
        for word, c1, c2 in level:
            nodes += 1
            if nodes > node_budget:
                raise ResourceBudgetExceeded(nodes, node_budget)
            if accept(a1, c1) != accept(a2, c2):
                rank = 0
                for i, symbol in enumerate(word):
                    rank += a1.alphabet.index_of(symbol) * m ** (len(word) - 1 - i)
                agreement.append(rank)
                return OracleResult(word, depth, tuple(agreement))
        agreement.append(m**depth)
        if depth == max_len:
            break
        nxt = []
        seen = set()
        for word, c1, c2 in level:
            for sym in range(m):
                d1 = advance(a1, c1, sym)
                d2 = advance(a2, c2, sym)
                if collapse:
                    if d1 is None and d2 is None:
                        continue  # both stuck: the whole subtree agrees at weight zero
                    key = _collapse_key(d1, d2)
                    if key in seen:
                        continue
                    seen.add(key)
                nxt.append((word + (symbols[sym],), d1, d2))
        level = nxt
    return OracleResult(None, max_len, tuple(agreement))


def _collapse_key(c1, c2):
    # Same states and counters with the same weight ratio give the same
    # mismatch pattern on every suffix; stuck sides compare by zero-ness
    # only, so their weight is irrelevant.
    if c1 is None:
        return (None, None, c2[0], c2[1], None)
    if c2 is None:
        return (c1[0], c1[1], None, None, None)
    return (c1[0], c1[1], c2[0], c2[1], c2[2] / c1[2])


def language_equiv_witness(a1: Dwroca, a2: Dwroca, max_len: int):
    """First word (shortest-then-lex) accepted with nonzero weight by exactly
    one machine, or None. Plain language comparison, no weight arithmetic."""
    _require_natural(max_len, "max_len must be a natural number")
    _require_compatible(a1, a2)
    symbols = a1.alphabet.symbols
    m = len(symbols)

    def advance(machine, cfg, sym):
        if cfg is None:
            return None
        state, counter = cfg
        entry = machine.transition(state, counter, sym)
        if entry is None:
            return None
        dst, effect, _weight = entry
        return (dst, counter + effect)

    def member(machine, cfg):
        return cfg is not None and not machine.final_weights[cfg[0]].is_zero

    level = [((), (a1.initial_state, 0), (a2.initial_state, 0))]
    for depth in range(max_len + 1):
        for word, c1, c2 in level:
            if member(a1, c1) != member(a2, c2):
                return word
        if depth == max_len:
            break
        nxt = []
        seen = set()
        for word, c1, c2 in level:
            for sym in range(m):
                d1 = advance(a1, c1, sym)
                d2 = advance(a2, c2, sym)
                if d1 is None and d2 is None:
                    continue
                key = (d1, d2)
                if key in seen:
                    continue
                seen.add(key)
                nxt.append((word + (symbols[sym],), d1, d2))
        level = nxt
    return None


def find_k_equiv_wa_config(
    automaton: Dwroca, config: Configuration, wa: Dwa, k: int
) -> WaConfig | None:
    """Find a weighted-automaton configuration k-equivalent to ``config``.

    For a candidate state q, a weight c works exactly when every word up to
    length k weighs c times as much from (q, 1) as from ``config`` in the
    counter automaton. So one depth-k search from ``config`` against
    (q, 1) pins c: no witness means 1 works; a witness on which one side
    weighs zero rules q out; otherwise its weights force c = f1 / f2, which
    a second depth-k search verifies. Returns the first state that admits a
    weight, or None when none does. Each search runs from ``config``'s
    state in row r = min(counter, k) of the unfolding cut at r + k: from
    row k up no word of length at most k reaches the zero test.
    """
    _require_compatible(automaton, wa)
    _require_natural(k, "k must be a natural number")
    _require_state(automaton, config.state, "initial state")
    row = min(config.counter, k)
    start = unfold(automaton, row + k).with_initial(row * automaton.size + config.state, config.weight)
    one = automaton.field.one()
    for q in range(wa.size):
        witness, _stats = _difference_search(start, wa.with_initial(q, one), max_len=k)
        if witness is None:
            return WaConfig(q, one)
        if witness.f1.is_zero or witness.f2.is_zero:
            continue
        candidate = witness.f1 / witness.f2
        if _difference_search(start, wa.with_initial(q, candidate), max_len=k)[0] is None:
            return WaConfig(q, candidate)
    return None


def random_words(alphabet, count: int, max_len: int, seed: int) -> list[tuple[str, ...]]:
    """Seeded random words over the alphabet, lengths uniform in [0, max_len]."""
    rng = random.Random(seed)
    symbols = tuple(alphabet)
    out = []
    for _ in range(count):
        length = rng.randint(0, max_len)
        out.append(tuple(rng.choice(symbols) for _ in range(length)))
    return out
