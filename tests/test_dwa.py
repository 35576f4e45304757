import random
import re
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wroca import (
    AlphabetMismatch,
    Configuration,
    Dwa,
    Dwroca,
    FieldMismatch,
    InternalError,
    ParseError,
    ResourceBudgetExceeded,
    UnknownSymbol,
    WaConfig,
    check_equivalence,
    compute_bounds,
    dwa_equiv,
    prime_field,
    rational,
    underlying_wa,
    unfold,
)
from wroca import dwa
from wroca.dwa import (
    _SHORTCUT_AFTER,
    EquivalenceVerdict,
    SearchStats,
    Witness,
    _difference_search,
    _PairBasis,
)
from wroca.testkit import (
    GeneratorConfig,
    default_weight_pool,
    find_k_equiv_wa_config,
    generate,
    random_words,
    split_state,
)

Q = rational()


def uncertified(left, right, budget):
    """``check_equivalence``'s theoretical-mode search without the lockstep
    certificate, so pairs it would prove spend their ``budget`` as before."""
    limit = compute_bounds(left.size, right.size).witness_bound
    witness, stats = _difference_search(left, right, max_len=limit, budget=budget)
    return EquivalenceVerdict(witness is None, witness, "theoretical", limit, stats)


def one_state_dwa(loop_weight, final_weight=None, initial_weight=None):
    return Dwa(
        ["q0"],
        ["a"],
        {("q0", "a"): ("q0", Q.element(loop_weight))},
        {"q0": Q.one() if final_weight is None else Q.element(final_weight)},
        ("q0", Q.one() if initial_weight is None else Q.element(initial_weight)),
    )


class Understated:
    """Steps like ``machine`` but reports ``size`` states, so a search
    against it checks its kept rows against a smaller dimension."""

    def __init__(self, machine, size):
        self.machine, self.size = machine, size

    def __getattr__(self, name):
        return getattr(self.machine, name)


def words_up_to(symbols, k):
    """Every word of length at most k, shortest first."""
    words = [()]
    for length in range(1, k + 1):
        words += [w + (s,) for w in words if len(w) == length - 1 for s in symbols]
    return words


def brute_dwa_witness(b1, b2, max_len):
    """Plain word-tree walk over configuration pairs; first weight mismatch."""
    zero = b1.field.zero()
    symbols = b1.alphabet.symbols

    def accepts(machine, cfg):
        if cfg is None:
            return zero
        return cfg[1] * machine.final_weights[cfg[0]]

    level = [((), b1.initial, b2.initial)]
    for depth in range(max_len + 1):
        for word, c1, c2 in level:
            if accepts(b1, c1) != accepts(b2, c2):
                return word
        if depth == max_len:
            break
        nxt = []
        for word, c1, c2 in level:
            for i, symbol in enumerate(symbols):
                d1 = b1.transitions.get((c1[0], i)) if c1 else None
                d2 = b2.transitions.get((c2[0], i)) if c2 else None
                if d1:
                    d1 = (d1[0], c1[1] * d1[1])
                if d2:
                    d2 = (d2[0], c2[1] * d2[1])
                if d1 is None and d2 is None:
                    continue
                nxt.append((word + (symbol,), d1, d2))
        level = nxt
    return None


def rebuilt(b, finals, initial_weight):
    """A copy of ``b`` with new final weights (indexed by state) and initial weight."""
    transitions = {
        (b.states[src], b.alphabet.symbols[sym]): (b.states[dst], w)
        for (src, sym), (dst, w) in b.transitions.items()
    }
    return Dwa(
        b.states,
        b.alphabet,
        transitions,
        dict(zip(b.states, finals)),
        (b.states[b.initial[0]], initial_weight),
    )


def scaled_copy(b):
    """An equivalent copy of ``b``: initial weight times 3, final weights over 3."""
    scale = b.field.element(3)
    finals = [w * scale.inverse() for w in b.final_weights]
    return rebuilt(b, finals, b.initial[1] * scale)


def difference_rank(b1, b2, max_len):
    """Rank of the difference vectors (x_w, -y_w) of all words w of length at
    most ``max_len``, where x_w and y_w are the forward vectors of the two
    machines, found by dense Gaussian elimination.

    Words are walked level by level through the transitions. A level keeps each
    vector only up to a nonzero scalar (scaled so its first nonzero
    coordinate is 1), which leaves the rank unchanged and keeps the levels
    small.
    """
    n1 = b1.size
    field = b1.field

    def ray(c1, c2):
        lead = (c1 if c1 is not None else c2)[1].inverse()
        return (
            None if c1 is None else (c1[0], c1[1] * lead),
            None if c2 is None else (c2[0], c2[1] * lead),
        )

    def step(machine, config, sym):
        if config is None:
            return None
        nxt = machine.transitions.get((config[0], sym))
        return None if nxt is None else (nxt[0], config[1] * nxt[1])

    level = {ray(b1.initial, b2.initial)}
    seen = set(level)
    for _ in range(max_len):
        nxt = set()
        for c1, c2 in level:
            for sym in range(len(b1.alphabet)):
                d1, d2 = step(b1, c1, sym), step(b2, c2, sym)
                if d1 is not None or d2 is not None:
                    nxt.add(ray(d1, d2))
        level = nxt - seen
        seen |= level

    matrix = []
    for c1, c2 in seen:
        vec = [field.zero()] * (n1 + b2.size)
        if c1 is not None:
            vec[c1[0]] = c1[1]
        if c2 is not None:
            vec[n1 + c2[0]] = -c2[1]
        matrix.append(vec)
    return dense_rank(matrix)


def dense_rank(matrix):
    """Rank of a list of equal-length lists of FieldElement, by dense
    Gaussian elimination on a copy."""
    matrix = list(matrix)
    rank = 0
    for col in range(len(matrix[0]) if matrix else 0):
        pivot = next((i for i in range(rank, len(matrix)) if not matrix[i][col].is_zero), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = matrix[rank][col].inverse()
        for i in range(rank + 1, len(matrix)):
            factor = matrix[i][col] * inv
            if not factor.is_zero:
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[rank])]
        rank += 1
    return rank


def random_dwa(seed, field=None):
    rng = random.Random(seed)
    field = field or (rational() if seed % 2 else prime_field(7))
    source = generate(
        GeneratorConfig(
            seed=rng.randrange(2**32),
            field=field,
            num_states=(1, 5),
            alphabet_size=(2, 3),
            density=0.75,
        )
    )
    pool = default_weight_pool(field)
    return underlying_wa(source).with_initial(0, rng.choice(pool))


class TestUnderlyingWa:
    def test_e1_becomes_self_loop(self, e1):
        wa = underlying_wa(e1)
        assert wa.initial is None
        assert wa.transitions == {(0, 0): (0, Q.element(2))}
        assert wa.final_weights == (Q.one(),)

    def test_empty_plus_table(self, Q):
        machine = Dwroca(
            ["q0"], ["a"], "q0", Q.one(), {("q0", "a"): ("q0", 1, Q.one())}, {}, {"q0": Q.one()}
        )
        assert underlying_wa(machine).transitions == {}

    def test_size_preserved(self):
        for seed in range(10):
            machine = generate(GeneratorConfig(seed=seed, num_states=(1, 5)))
            assert underlying_wa(machine).size == machine.size


class TestStateIndex:
    def test_a_bool_is_no_state(self, e1):
        wa = underlying_wa(e1)
        assert wa.state_index(0) == wa.state_index("q0") == 0
        for state in (True, False, "zz"):
            with pytest.raises(ValueError, match=f"^unknown state {state!r}$"):
                wa.with_initial(state, Q.one())


class TestDwaAcceptWeight:
    def test_two_loops(self, e1):
        wa = underlying_wa(e1)
        assert wa.accept_weight(WaConfig(0, Q.one()), ("a", "a")) == Q.element(4)

    def test_empty_word(self, e1):
        wa = underlying_wa(e1)
        assert wa.accept_weight(WaConfig(0, Q.element(3)), ()) == Q.element(3)

    def test_missing_transition_gives_zero(self, Q):
        wa = Dwa(["q0"], ["a"], {}, {"q0": Q.one()})
        assert wa.accept_weight(WaConfig(0, Q.one()), ("a",)) == Q.zero()

    def test_zero_start_weight_rejected(self):
        with pytest.raises(ValueError):
            WaConfig(0, Q.zero())

    @pytest.mark.parametrize(
        "state, word", [(99, ("a",)), (-1, ()), (99, ())], ids=["99-a", "-1-empty", "99-empty"]
    )
    def test_start_state_is_checked(self, state, word):
        # a start state that is not one of the machine's is a ValueError, as
        # in Dwroca.accept_weight, whether or not the word steps
        for field in (Q, prime_field(7)):
            wa = Dwa(["q0"], ["a"], {("q0", "a"): ("q0", field.element(2))}, {"q0": field.element(3)})
            with pytest.raises(ValueError, match=rf"^state {state} outside \[0, 0\]$"):
                wa.accept_weight(WaConfig(state, field.one()), word)

    def test_every_symbol_is_checked_before_stepping(self):
        # b has no transition: the run gets stuck before it reaches zzz
        two = Q.element(2)
        loop = {("q0", "a"): ("q0", 1, two)}
        machine = Dwroca(["q0"], ["a", "b"], "q0", Q.one(), loop, loop, {"q0": Q.one()})
        wa = underlying_wa(machine).with_initial(0, Q.one())
        for word in (("b", "zzz"), ("a", "b", "a", "zzz"), ("zzz",)):
            with pytest.raises(UnknownSymbol):
                machine.accept_weight(word)
            with pytest.raises(UnknownSymbol):
                wa.accept_weight(WaConfig(0, Q.one()), word)
            with pytest.raises(UnknownSymbol):
                wa.initial_accept_weight(word)
        assert wa.accept_weight(WaConfig(0, Q.one()), ("b", "a")) == Q.zero()


class TestDwaEquiv:
    def test_self_equivalence(self):
        b = one_state_dwa(2)
        verdict = dwa_equiv(b, b)
        assert verdict.equivalent and verdict.witness is None

    def test_loop_weight_mismatch(self):
        verdict = dwa_equiv(one_state_dwa(2), one_state_dwa(3))
        assert not verdict.equivalent
        assert verdict.witness.word == ("a",)
        assert verdict.witness.f1 == Q.element(2)
        assert verdict.witness.f2 == Q.element(3)

    def test_empty_word_witness(self):
        verdict = dwa_equiv(one_state_dwa(2, final_weight=1), one_state_dwa(2, final_weight=5))
        assert not verdict.equivalent
        assert verdict.witness.word == ()
        assert verdict.witness.f1 == Q.one() and verdict.witness.f2 == Q.element(5)

    def test_uninitialised_rejected(self, e1):
        with pytest.raises(ValueError):
            dwa_equiv(underlying_wa(e1), one_state_dwa(2))

    def test_counter_machines_refused(self, e1):
        # e1 against itself would search unbounded rows with no length
        # limit and no budget
        wa = one_state_dwa(2)
        for pair in ((e1, e1), (e1, wa), (wa, e1)):
            with pytest.raises(TypeError, match="use check_equivalence"):
                dwa_equiv(*pair)

    def test_alphabet_mismatch(self):
        other = Dwa(["q0"], ["b"], {}, {"q0": Q.one()}, ("q0", Q.one()))
        with pytest.raises(AlphabetMismatch):
            dwa_equiv(one_state_dwa(2), other)

    def test_alphabet_order_matters(self):
        b1 = Dwa(["q0"], ["a", "b"], {}, {"q0": Q.one()}, ("q0", Q.one()))
        b2 = Dwa(["q0"], ["b", "a"], {}, {"q0": Q.one()}, ("q0", Q.one()))
        with pytest.raises(AlphabetMismatch):
            dwa_equiv(b1, b2)

    def test_field_mismatch(self):
        gf = prime_field(7)
        other = Dwa(["q0"], ["a"], {}, {"q0": gf.one()}, ("q0", gf.one()))
        with pytest.raises(FieldMismatch):
            dwa_equiv(one_state_dwa(2), other)

    @pytest.mark.parametrize("field", [rational(), prime_field(2**31 - 1)], ids=["q", "gf"])
    def test_witness_weights_are_the_initial_accept_weights(self, field):
        # with no replay to check, a witness's weights are built from the
        # search's own unnormalised numerators and denominators
        rng = random.Random(2020 if field.modulus is None else 2021)

        def weight():
            return field.element(rng.choice((-7, -5, 2, 5, 7))) / field.element(rng.choice((3, 4, 9)))

        def fractional():
            states = ["p", "q", "r"]
            table = {(s, a): (rng.choice(states), weight()) for s in states for a in "ab" if rng.random() < 0.8}
            finals = {s: weight() if rng.random() < 0.8 else field.zero() for s in states}
            return Dwa(states, ["a", "b"], table, finals, ("p", weight()))

        lengths = set()
        for _ in range(60):
            left, right = fractional(), fractional()
            for witness in (dwa_equiv(left, right).witness, _difference_search(left, right, max_len=4)[0]):
                assert witness is not None
                assert witness.f1 == left.initial_accept_weight(witness.word)
                assert witness.f2 == right.initial_accept_weight(witness.word)
                lengths.add(len(witness.word))
        assert len(lengths) >= 2

    def test_witness_with_equal_weights_raises_internal_error(self, monkeypatch):
        # a weighs 2 on both sides, through step weights 2 and 1; a kernel
        # fault that swaps each child's cross-multipliers gives the word a
        # the int pair (1, 2), which the witness test reads as a difference
        left = Dwa(["p", "q"], ["a"], {("p", "a"): ("q", Q.element(2))}, {"p": Q.one(), "q": Q.one()}, ("p", Q.one()))
        right = Dwa(
            ["p", "q"], ["a"], {("p", "a"): ("q", Q.one())}, {"p": Q.one(), "q": Q.element(2)}, ("p", Q.one())
        )
        table = {("p", "a"): ("q", 1, Q.element(2))}
        counting = Dwroca(["p", "q"], ["a"], "p", Q.one(), table, {}, {"p": Q.one(), "q": Q.one()})
        table = {("p", "a"): ("q", 1, Q.one())}
        counting_twin = Dwroca(["p", "q"], ["a"], "p", Q.one(), table, {}, {"p": Q.one(), "q": Q.element(2)})
        assert dwa_equiv(left, right).equivalent
        assert check_equivalence(counting, counting_twin, 5).equivalent
        honest = dwa._children

        def swapped(*args):
            return [(sym, sl, el, sr, er, mr, ml) for sym, sl, el, sr, er, ml, mr in honest(*args)]

        monkeypatch.setattr(dwa, "_children", swapped)
        for search in (
            lambda: dwa_equiv(left, right),
            lambda: _difference_search(left, right, max_len=3),
            lambda: check_equivalence(counting, counting_twin, 5),
            lambda: check_equivalence(counting, counting_twin),
        ):
            with pytest.raises(InternalError, match="both machines weigh it 2"):
                search()

    def test_witness_matches_brute_force(self):
        for seed in range(120):
            b1 = random_dwa(3000 + seed)
            b2 = random_dwa(9000 + seed, field=b1.field)
            if b1.alphabet != b2.alphabet:
                continue
            verdict = dwa_equiv(b1, b2)
            expected = brute_dwa_witness(b1, b2, b1.size + b2.size)
            if expected is None:
                assert verdict.equivalent
            else:
                assert not verdict.equivalent
                assert verdict.witness.word == expected
                assert verdict.witness.f1 == b1.initial_accept_weight(expected)
                assert verdict.witness.f2 == b2.initial_accept_weight(expected)

    def test_basis_never_exceeds_dimension(self):
        for seed in range(80):
            b1 = random_dwa(13000 + seed)
            b2 = random_dwa(15000 + seed, field=b1.field)
            if b1.alphabet != b2.alphabet:
                continue
            verdict = dwa_equiv(b1, b2)
            assert verdict.stats.basis_size <= b1.size + b2.size

    def test_equivalent_verdicts_agree_on_random_words(self):
        hits = 0
        for seed in range(60):
            b1 = random_dwa(21000 + seed)
            b2 = scaled_copy(b1)
            verdict = dwa_equiv(b1, b2)
            assert verdict.equivalent
            hits += 1
            for w in random_words(b1.alphabet, 25, 20, seed):
                assert b1.initial_accept_weight(w) == b2.initial_accept_weight(w)
        assert hits == 60

    def test_pruning_changes_nothing(self):
        # the pruned search finds the plain word-tree walk's first witness,
        # with the weights each machine gives it
        found = 0
        for seed in range(50):
            b1 = random_dwa(31000 + seed)
            b2 = random_dwa(33000 + seed, field=b1.field)
            if b1.alphabet != b2.alphabet:
                continue
            depth = 6
            witness, _ = _difference_search(b1, b2, max_len=depth)
            word = brute_dwa_witness(b1, b2, depth)
            assert (witness is None) == (word is None)
            if word is not None:
                assert witness == Witness(word, b1.initial_accept_weight(word), b2.initial_accept_weight(word))
                found += 1
        assert found >= 10

    def test_basis_size_is_rank_of_difference_vectors(self):
        # Scaled copies mirror the left machine's states on the right, so
        # their vectors never need fill-in (reducing by a row adding
        # coordinates). Independent pairs whose final weights are all zero
        # are equivalent too, and their reductions do fill in.
        checked = 0
        for seed in range(40):
            b1 = random_dwa(51000 + seed)
            pairs = [(b1, scaled_copy(b1))]
            b2 = random_dwa(53000 + seed, field=b1.field)
            if b1.alphabet == b2.alphabet:
                zero = b1.field.zero()
                pairs.append(
                    (
                        rebuilt(b1, [zero] * b1.size, b1.initial[1]),
                        rebuilt(b2, [zero] * b2.size, b2.initial[1]),
                    )
                )
            for left, right in pairs:
                verdict = dwa_equiv(left, right)
                assert verdict.equivalent
                expected = difference_rank(left, right, left.size + right.size)
                assert verdict.stats.basis_size == expected
                checked += 1
        assert checked > 50

    def test_dimension_overflow_raises_internal_error(self):
        left = one_state_dwa(2)
        # a^n weighs 2^n here too, but a and the empty word end in different
        # states, so the search keeps two vectors
        right = Dwa(
            ["p0", "p1"],
            ["a"],
            {("p0", "a"): ("p1", Q.element(2)), ("p1", "a"): ("p1", Q.element(2))},
            {"p0": Q.one(), "p1": Q.one()},
            ("p0", Q.one()),
        )
        assert left.size + right.size == 3
        assert _difference_search(left, right)[1].basis_size == 2
        with pytest.raises(InternalError):
            _difference_search(left, Understated(right, 0))


GF7 = prime_field(7)
GF_BIG = prime_field(2**31 - 1)

_ints = st.integers(-50, 50) | st.integers(-(2**200), 2**200)


def _weights(spec):
    """Elements of ``spec``, large numerators and denominators included."""
    if spec.modulus is None:
        denominators = st.integers(1, 50) | st.integers(1, 2**200)
        return st.builds(lambda n, d: spec.element(Fraction(n, d)), _ints, denominators)
    return _ints.map(spec.element)


class _Looked(dict):
    """A basis's ``others``: the search looks up a two-coordinate vector's
    smaller coordinate here (``in``) before it calls ``insert`` or, at a
    fresh pivot, keeps the vector in place."""

    __slots__ = ("basis",)

    def __contains__(self, u):
        basis = self.basis
        basis.settle()
        found = dict.__contains__(self, u)
        if not found:
            basis.fresh = u
        return found


class LoggedBasis(_PairBasis):
    """A basis that logs every vector the search hands it, as ``((u, x, v,
    z), kept)``: the ones it walks through ``insert``, and the ones the
    search keeps in place at a fresh pivot, read back from the row the
    search wrote there before anything else changes the basis (at the next
    lookup, or at ``settle()`` after the search)."""

    __slots__ = ("log", "fresh")

    def __init__(self, modulus):
        super().__init__(modulus)
        self.others = _Looked()
        self.others.basis = self
        self.log, self.fresh = [], None

    def insert(self, u, x, v, z):
        kept = super().insert(u, x, v, z)
        self.log.append(((u, x, v, z), kept))
        return kept

    def settle(self):
        if self.fresh is not None:
            u, self.fresh = self.fresh, None
            row = (u, self.scales.get(u, 1), dict.__getitem__(self.others, u), self.values[u])
            self.log.append((row, True))


def logged_bases(monkeypatch, cls=LoggedBasis):
    """Make every search build a ``cls`` basis, and return the list of those
    built; ``settled_logs`` reads their logs."""
    bases = []

    class Built(cls):
        __slots__ = ()

        def __init__(self, modulus):
            super().__init__(modulus)
            bases.append(self)

    monkeypatch.setattr("wroca.dwa._PairBasis", Built)
    return bases


def settled_logs(bases):
    for basis in bases:
        basis.settle()
    return [basis.log for basis in bases]


class TestPairScaler:
    """A word's int pair is its two weights up to one nonzero scalar."""

    @given(st.sampled_from([Q, GF7, GF_BIG]), st.data())
    def test_scale_pair_keeps_the_ray(self, spec, data):
        # The one-state series u * v^n * f agree on every word exactly when
        # they agree on the empty word and on a; a witness is the first of
        # these on which they differ, with its FieldElement weights. The
        # right side is a copy, a copy with its initial and final weights
        # scaled by c and 1/c, or drawn afresh.
        weights = _weights(spec)
        u1, v1, f1 = (data.draw(weights) for _ in range(3))
        c = data.draw(weights.filter(lambda w: not w.is_zero))
        u2, f2 = data.draw(st.sampled_from([(u1, f1), (u1 * c, f1 / c)]) | st.tuples(weights, weights))
        v2 = data.draw(st.just(v1) | weights)
        left, right = (
            Dwa(["q0"], ["a"], {("q0", "a"): ("q0", v)}, {"q0": f}, ("q0", u))
            for u, v, f in ((u1, v1, f1), (u2, v2, f2))
        )
        verdict = dwa_equiv(left, right)
        assert verdict.equivalent == (u1 * f1 == u2 * f2 and u1 * v1 * f1 == u2 * v2 * f2)
        if u1 * f1 != u2 * f2:
            assert verdict.witness == Witness((), u1 * f1, u2 * f2)
        elif not verdict.equivalent:
            assert verdict.witness == Witness(("a",), u1 * v1 * f1, u2 * v2 * f2)

    def test_search_pairs_are_in_normal_form(self, monkeypatch):
        # Every word's pair reaches the basis divided by its gcd over Q and
        # as residues over GF(p), the words of unfoldings cut below the word
        # length included, whether the basis walks it or the search keeps
        # it at a fresh pivot; and ``_children``'s step multipliers have no
        # common factor over Q.
        multipliers, searched = [], [None]

        def recorded(*args):
            kids = children(*args)
            if searched[0] is Q:
                multipliers.extend((ml, mr) for *_, ml, mr in kids)
            return kids

        children = dwa._children
        monkeypatch.setattr("wroca.dwa._children", recorded)
        bases = logged_bases(monkeypatch)
        for i in range(30):
            field, sigma = (Q, GF7, GF_BIG)[i % 3], 2 + i % 2
            left = generate(GeneratorConfig(seed=70500 + i, field=field, alphabet_size=(sigma, sigma)))
            right = split_state(left, 71500 + i)  # equivalent: the searches run long
            searched[0] = field
            for view_l, view_r, max_len in ((left, right, 40), (unfold(left, 1), unfold(right, 2), 6)):
                try:
                    _difference_search(view_l, view_r, max_len=max_len, budget=300)
                except ResourceBudgetExceeded:
                    pass
        pairs = [(basis.modulus, x, z) for basis, log in zip(bases, settled_logs(bases)) for (_, x, _, z), _ in log]
        assert len(pairs) > 1000 and {p for p, _, _ in pairs} == {None, 7, GF_BIG.modulus}
        for p, x, z in pairs:
            if p is None:
                assert gcd(x, z) == 1
            else:
                assert 0 < x < p and 0 <= z < p
        assert len(multipliers) > 100 and all(gcd(ml, mr) == 1 for ml, mr in multipliers)

    def test_crossed_step_weights_reduce_the_child_pair(self, monkeypatch):
        # a weighs 2 on the left and 3 on the right, b the reverse, so each
        # step's multipliers are coprime but ab's pair, (6, 6), is not: the
        # children loop divides it to (1, 1), the empty word's vector, and
        # the walk cancels it
        two, three = Q.element(2), Q.element(3)
        left, right = (
            Dwa(["p0", "p1"], ["a", "b"], {("p0", "a"): ("p1", u), ("p1", "b"): ("p0", v)},
                {"p0": Q.one(), "p1": v}, ("p0", Q.one()))
            for u, v in ((two, three), (three, two))
        )
        bases = logged_bases(monkeypatch)
        assert dwa_equiv(left, right).equivalent
        (log,) = settled_logs(bases)
        assert log == [((0, 1, 1, 1), True), ((2, 2, 3, 3), True), ((0, 1, 1, 1), False)]


def lines_run(func, call):
    """The source lines of ``func`` that run while ``call()`` runs."""
    code, hit = func.__code__, set()

    def local(frame, event, arg):
        if event == "line":
            hit.add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        call()
    finally:
        sys.settrace(previous)
    return hit


class TestPairBasis:
    SIZE = 6  # coordinates of the random streams
    WIDTH = 13  # coordinates of every stream, the chained ones included

    def stream(self, rng, p):
        """Twelve vectors as the search passes them, ``(u, x, v, z)`` with
        ``v`` None or above ``u``: one or two coordinates, nonzero values,
        residues over GF(p). About a quarter are multiples of earlier ones, so
        that walks also end in a cancellation, at an equal coordinate or on a
        one-coordinate row. The values' prime factors are 2 and 3, so none
        vanishes mod 7."""
        vectors = []
        while len(vectors) < 12:
            if vectors and rng.random() < 0.25:
                u, x, v, z = rng.choice(vectors)
                c = rng.choice([-2, 2, 3])
                vectors.append((u, c * x, v, c * z))
            elif rng.random() < 0.3:
                vectors.append((rng.randrange(self.SIZE), rng.choice([-2, 1, 3]), None, 0))
            else:
                u, v = sorted(rng.sample(range(self.SIZE), 2))
                x, z = rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([-3, -2, -1, 1, 2, 3])
                vectors.append((u, x, v, z))
        return [(u, x % p, v, z % p) if p else (u, x, v, z) for u, x, v, z in vectors]

    def dense(self, field, coords):
        row = [field.zero()] * self.WIDTH
        for c, value in coords.items():
            row[c] = field.element(value)
        return row

    def streams(self, field):
        rng = random.Random(71)
        return [self.stream(rng, field.modulus) for _ in range(150)]

    @staticmethod
    def chained_streams():
        """Walks along one chain of links past ``_SHORTCUT_AFTER`` rows: the
        rows ``s * e_i + e_(i+1)`` for i < 10, with or without ``e_10`` to
        close the chain, then vectors at 0 and 11 or 12 that walk it."""
        streams = []
        for scale in (1, 2):
            for closed in ([], [(10, 1, None, 0)]):
                rows = [(i, scale, i + 1, 1) for i in range(10)] + closed
                streams.append(rows + [(0, 1, 12, 1), (0, 3, 12, 3), (0, 1, 11, 2), (1, 1, 12, 1)])
        assert _SHORTCUT_AFTER < 10
        return streams

    @pytest.mark.parametrize("field", [Q, GF7, GF_BIG], ids=["q", "gf7", "gf_big"])
    def test_keeps_exactly_the_independent_vectors(self, field):
        p, scaled = field.modulus, 0
        for stream in self.streams(field) + self.chained_streams():
            basis, dense, rank = _PairBasis(p), [], 0
            for u, x, v, z in stream:
                if p:
                    x, z = x % p, z % p
                dense.append(self.dense(field, {u: x} if v is None else {u: x, v: z}))
                kept, rank = rank, dense_rank(dense)
                assert basis.insert(u, x, v, z) == (rank > kept)
            rows = []
            for pivot, other in basis.others.items():
                if other is None:  # e_u
                    assert pivot not in basis.values and pivot not in basis.scales
                    rows.append(self.dense(field, {pivot: 1}))
                    continue
                assert other > pivot
                assert basis.scales.get(pivot) != 1  # a pivot value of 1 is not stored
                d, y = basis.scales.get(pivot, 1), basis.values[pivot]
                if p:
                    assert 0 < d < p and 0 < y < p
                else:
                    assert y and gcd(d, y) == 1
                rows.append(self.dense(field, {pivot: d, other: y}))
            # the rows span exactly what was inserted
            assert dense_rank(rows) == len(rows) == rank == dense_rank(rows + dense)
            scaled += bool(basis.scales)
        assert scaled > 0

    def test_streams_reach_every_line_of_the_walk(self):
        # a new pivot, a one-coordinate row, and a two-coordinate row whose
        # other coordinate is below, above or at v, cancelling or not; the
        # chained streams add long walks, whose chain ends at a coordinate
        # without a row or at a one-coordinate row, with pivot value 1 or not
        fields = (Q, GF7, GF_BIG)
        streams = [(f.modulus, s) for f in fields for s in self.streams(f) + self.chained_streams()]

        def run():
            for p, stream in streams:
                basis = _PairBasis(p)
                for u, x, v, z in stream:
                    basis.insert(u, x % p if p else x, v, z % p if p else z)

        for method in (_PairBasis.insert, _PairBasis._shortcut):
            code = method.__code__
            body = {line for _, _, line in code.co_lines() if line} - {code.co_firstlineno}
            assert body - lines_run(method, run) == set(), method.__name__

    @pytest.mark.parametrize("other, v", [(2, 3), (3, 2)], ids=["below_v", "above_v"])
    def test_walk_orders_the_two_coordinates(self, other, v):
        # line coverage cannot tell these two apart: both leave e_2 - e_3
        basis = _PairBasis(None)
        basis.insert(0, 1, other, 1)
        assert basis.insert(0, 1, v, 1)
        assert basis.others[2] == 3
        assert basis.scales.get(2, 1) == -basis.values[2]

    @staticmethod
    def independent(vec, kept, field):
        """Whether ``vec`` is outside the span of the ``kept`` vectors, by
        dense_rank. The span splits over the connected components of
        coordinates that kept vectors link, so only the vectors linked to
        ``vec``'s coordinates enter the matrix."""
        coords, near, rest = set(vec), [], kept
        while linked := [w for w in rest if coords.intersection(w)]:
            rest = [w for w in rest if not coords.intersection(w)]
            near += linked
            for w in linked:
                coords.update(w)
        columns = sorted(coords)
        matrix = [[field.element(w.get(c, 0)) for c in columns] for w in near]
        row = [field.element(vec.get(c, 0)) for c in columns]
        return dense_rank(matrix + [row]) > dense_rank(matrix)

    def test_search_decisions_match_dense_rank(self, monkeypatch):
        # A verdict's stats, or a budget run's ResourceBudgetExceeded.stats,
        # count the kept vectors but do not show which were kept; record
        # every vector the searches hand the basis instead.
        bases = logged_bases(monkeypatch)
        fields = (Q, GF7, GF_BIG)
        budget_runs = inserts = 0
        for i in range(24):
            # the acceptance stream's shape; every other pair a split_state
            # copy, on the right or, so the larger coordinate comes first
            # sometimes, on the left
            rng = random.Random(61000 + i)
            field, sigma = fields[i % 3], 2 + (i // 2) % 2
            config = lambda seed: GeneratorConfig(  # noqa: E731
                seed=seed, field=field, alphabet_size=(sigma, sigma)
            )
            left = generate(config(rng.randrange(2**32)))
            if i % 2:
                right = split_state(left, rng.randrange(2**32))
                if i % 4 == 3:
                    left, right = right, left
            else:
                right = generate(config(rng.randrange(2**32)))
            bases.clear()
            try:
                uncertified(left, right, budget=200)
            except ResourceBudgetExceeded:
                budget_runs += 1
            for log in settled_logs(bases):
                kept = []
                for (u, x, v, z), was_kept in log:
                    assert v is None or u < v  # the walk needs its smaller coordinate first
                    vec = {u: x} if v is None else {u: x, v: z}
                    assert was_kept == self.independent(vec, kept, field)
                    if was_kept:
                        kept.append(vec)
                inserts += len(log)
        assert budget_runs == 8 and inserts == 1630


    @pytest.mark.parametrize("first_row", [(0, 1, None, 0), (0, 1, 20, 1)], ids=["e_0", "link_above_v"])
    def test_shortcut_reaches_the_chain_the_walk_moved_to(self, first_row):
        # e_0 + e_2 leaves row 0 at once, for 2's chain 2 -> 3 -> ... -> 13;
        # the walk re-points row 2, where it began on that chain
        basis = _PairBasis(None)
        for vec in [first_row] + [(i, 1, i + 1, 1) for i in range(2, 13)]:
            assert basis.insert(*vec)
        assert basis.insert(0, 1, 2, 1)
        assert basis.others[2] == 13 and basis.others[3] == 4

    @staticmethod
    def counting_flat(field):
        """``e1`` over ``field``, and its copy whose counter stays put: both
        weigh a^n 2^n, but only one side's coordinate climbs."""
        one, two = field.one(), field.element(2)
        step = {("q0", "a"): ("q0", 1, two)}
        flat = {("q0", "a"): ("q0", 0, two)}
        e1 = Dwroca(["q0"], ["a"], "q0", one, step, step, {"q0": one})
        return e1, Dwroca(["q0"], ["a"], "q0", one, flat, flat, {"q0": one})

    @pytest.mark.parametrize("field", [Q, GF_BIG], ids=["q", "gf_big"])
    @pytest.mark.parametrize("flat_left", [False, True], ids=["e1_left", "flat_left"])
    def test_walks_stay_short_when_one_counter_stays_put(self, field, flat_left, monkeypatch):
        # Word a^n's vector links the flat side's one coordinate to the
        # climbing side's n-th, so without shortcuts every insert walks a
        # chain of all n rows kept before it: 4.5 million row lookups here.
        # Counted as work, not time: every row the search, the walk or a
        # shortcut looks up. The vectors the search hands the basis are its
        # ``insert`` calls and the ones it keeps in place, where its lookup
        # finds no row.
        counts = {"inserts": 0, "lookups": 0}

        class Lookups(dict):
            def get(self, key, default=None):
                counts["lookups"] += 1
                return super().get(key, default)

            def __contains__(self, key):
                counts["lookups"] += 1
                found = super().__contains__(key)
                counts["inserts"] += not found
                return found

        class Counting(_PairBasis):
            __slots__ = ()

            def __init__(self, modulus):
                super().__init__(modulus)
                self.others = Lookups()

            def insert(self, u, x, v, z):
                counts["inserts"] += 1
                return super().insert(u, x, v, z)

        monkeypatch.setattr("wroca.dwa._PairBasis", Counting)
        e1, flat = self.counting_flat(field)
        left, right = (flat, e1) if flat_left else (e1, flat)
        with pytest.raises(ResourceBudgetExceeded):
            check_equivalence(left, right, budget=3000)
        assert counts["inserts"] == 3000
        assert counts["lookups"] <= 2 * _SHORTCUT_AFTER * counts["inserts"]


    @staticmethod
    def counter_blind_pair(seed, field):
        """A random machine whose two tables agree, so its counter never
        changes a weight, and a copy of it whose counter stays at 0: the
        two are equivalent, and the copy's coordinates never climb."""
        rng = random.Random(seed)
        cfg = GeneratorConfig(seed=seed, field=field, num_states=(1, 3), alphabet_size=(1, 2), density=1.0)
        machine = generate(cfg)
        states, symbols = machine.states, machine.alphabet.symbols
        entries = {(states[s], symbols[a]): (states[d], w) for (s, a), (d, _, w) in machine.delta1.items()}
        climbing = {key: (d, rng.choice((0, 1)), w) for key, (d, w) in entries.items()}
        flat = {key: (d, 0, w) for key, (d, w) in entries.items()}
        start, finals = states[machine.initial_state], dict(zip(states, machine.final_weights))
        return tuple(
            Dwroca(states, symbols, start, machine.initial_weight, table, table, finals)
            for table in (climbing, flat)
        )

    def test_shortcuts_keep_every_decision(self, monkeypatch):
        # The same searches with and without shortcuts hand the basis the
        # same vectors, keep the same ones and end with the same pivots.
        def searches():
            fired = [0]

            class Firing(LoggedBasis):
                __slots__ = ()

                def _shortcut(self, u):
                    fired[0] += 1
                    super()._shortcut(u)

            with monkeypatch.context() as patch:
                bases = logged_bases(patch, Firing)
                for i in range(18):
                    left, right = self.counter_blind_pair(9100 + i, (Q, GF7, GF_BIG)[i % 3])
                    if i % 2:
                        left, right = right, left
                    try:
                        check_equivalence(left, right, budget=400)
                    except ResourceBudgetExceeded:
                        pass
            return settled_logs(bases), fired[0]

        with_shortcuts, fired = searches()
        monkeypatch.setattr("wroca.dwa._SHORTCUT_AFTER", 10**9)
        without, none = searches()
        assert fired > 100 and none == 0
        assert with_shortcuts == without


class TestLongSearchShapes:
    """Exact ``(explored_words, basis_size, max_counter_row)`` of long
    searches, the shapes the pair tables serve most: the counting pairs at
    bound 2000 keep every word, ``e1`` against its counter-free copy climbs
    on one side only, and ``split_state`` copies, searched without the
    lockstep certificate, mostly run out of budget. A budget run's shape is
    read from its ResourceBudgetExceeded."""

    @staticmethod
    def shape(*args, search=check_equivalence, **kwargs):
        try:
            stats = search(*args, **kwargs).stats
        except ResourceBudgetExceeded as exc:
            stats = exc.stats
        return stats.explored_words, stats.basis_size, stats.max_counter_row

    @pytest.mark.parametrize("field", [Q, GF_BIG], ids=["q", "gf_big"])
    def test_counting_pairs(self, field):
        e1, flat = TestPairBasis.counting_flat(field)
        one, two = field.one(), field.element(2)
        e2 = Dwroca(
            ["q0", "q1"],
            ["a"],
            "q0",
            one,
            {("q0", "a"): ("q1", 1, field.element(4)), ("q1", "a"): ("q1", 1, two)},
            {("q1", "a"): ("q1", 1, two)},
            {"q0": one, "q1": two.inverse()},
        )
        assert self.shape(e1, e1, 2000) == (2001, 2001, 2000)
        assert self.shape(e1, e2, 2000) == (2001, 2001, 2000)
        assert self.shape(e1, flat, budget=3000) == (3001, 3000, 2999)
        assert self.shape(flat, e1, budget=3000) == (3001, 3000, 2999)

    def test_split_state_copies(self):
        shapes = []
        for i in range(12):
            rng = random.Random(7300 + i)
            config = GeneratorConfig(seed=rng.randrange(2**32), field=(Q, GF7, GF_BIG)[i % 3], alphabet_size=(2, 3))
            left = generate(config)
            right = split_state(left, rng.randrange(2**32))
            shapes.append(self.shape(left, right, search=uncertified, budget=2000))
        assert shapes == [
            (9, 3, 0),
            (2001, 802, 398),
            (14, 7, 2),
            (2001, 891, 223),
            (2001, 999, 996),
            (2001, 1003, 335),
            (6, 3, 0),
            (2001, 1334, 667),
            (1, 1, 0),
            (8, 4, 1),
            (2001, 1001, 998),
            (12, 8, 3),
        ]

    @pytest.mark.parametrize("field", [Q, GF_BIG], ids=["q", "gf_big"])
    def test_budget_run_reports_its_stats(self, field):
        # a^0 .. a^199 are kept, a^199 reaching row 199 on the side that
        # climbs; a^200 is dequeued over the budget, counted and not tested
        e1, flat = TestPairBasis.counting_flat(field)
        for left, right in ((e1, flat), (flat, e1)):
            with pytest.raises(ResourceBudgetExceeded) as info:
                check_equivalence(left, right, budget=200)
            assert str(info.value) == "explored 201 words, budget is 200"
            assert info.value.stats == SearchStats(201, 200, 199)
        # in step, the lockstep certificate proves the pair once the empty
        # word is tested and kept
        verdict = check_equivalence(e1, e1, budget=200)
        assert verdict.equivalent and verdict.stats == SearchStats(1, 1, 0)


def k_equiv(left, right, k):
    """No word of length at most k tells the two machines apart."""
    return _difference_search(left, right, max_len=k)[0] is None


class TestBoundedKEquiv:
    def test_depth_zero_compares_empty_word_only(self):
        b1, b2 = one_state_dwa(2), one_state_dwa(3)
        assert k_equiv(b1, b2, 0)
        assert not k_equiv(b1, b2, 1)

    def test_identical_any_depth(self):
        b = one_state_dwa(2)
        for k in (0, 1, 5, 40):
            assert k_equiv(b, b, k)

    def test_matches_brute_force_on_prefix_depths(self):
        for seed in range(60):
            b1 = random_dwa(41000 + seed)
            b2 = random_dwa(43000 + seed, field=b1.field)
            if b1.alphabet != b2.alphabet:
                continue
            for k in (0, 1, 3):
                assert k_equiv(b1, b2, k) == (brute_dwa_witness(b1, b2, k) is None)

    def test_mixed_search_checks_dimension(self, e1):
        # the counter machine's a^n and the loop's a^n both weigh 2^n, but
        # each word reaches a new row, so the search keeps one vector per depth
        assert k_equiv(e1, one_state_dwa(2), 4)
        with pytest.raises(InternalError):
            k_equiv(Understated(e1, 0), one_state_dwa(2), 4)


class TestFindKEquivConfig:
    def test_start_state_and_field_are_checked(self, e1):
        wa = underlying_wa(e1)
        with pytest.raises(ValueError, match=r"^initial state 5 outside \[0, 0\]$"):
            find_k_equiv_wa_config(e1, Configuration(5, 0, Q.one()), wa, 3)
        with pytest.raises(ValueError, match="initial state -1"):
            find_k_equiv_wa_config(e1, Configuration(-1, 0, Q.one()), wa, 3)
        with pytest.raises(FieldMismatch):
            find_k_equiv_wa_config(e1, Configuration(0, 0, GF7.element(5)), wa, 3)

    @pytest.mark.parametrize("value", [True, 2.5, "3"], ids=["true", "float", "str"])
    def test_k_is_an_int(self, e1, value):
        config, wa = Configuration(0, 0, Q.one()), underlying_wa(e1)
        with pytest.raises(ValueError, match="^k must be a natural number$"):
            find_k_equiv_wa_config(e1, config, wa, value)

    def test_e1_counter_zero(self, e1):
        wa = underlying_wa(e1)
        found = find_k_equiv_wa_config(e1, Configuration(0, 0, Q.one()), wa, 2)
        assert found == WaConfig(0, Q.one())

    def test_all_zero_finals_not_found(self, Q):
        machine = Dwroca(
            ["q0"], ["a"], "q0", Q.one(), {("q0", "a"): ("q0", 1, Q.one())}, {}, {"q0": Q.one()}
        )
        wa = Dwa(["q0"], ["a"], {}, {"q0": Q.zero()})
        assert find_k_equiv_wa_config(machine, machine.initial_configuration(), wa, 0) is None

    def test_found_config_really_is_k_equivalent(self):
        for seed in range(50):
            rng = random.Random(seed)
            field = rational() if seed % 2 else prime_field(7)
            pool = default_weight_pool(field)
            machine = generate(GeneratorConfig(seed=5000 + seed, field=field, num_states=(2, 3)))
            wa = underlying_wa(generate(GeneratorConfig(seed=6000 + seed, field=field, num_states=(2, 3))))
            k = rng.randint(0, 3)
            counter = rng.choice((0, 1, 2, 3, 4, 7, 1_000))
            config = Configuration(rng.randrange(machine.size), counter, rng.choice(pool))
            found = find_k_equiv_wa_config(machine, config, wa, k)
            if found is None:
                continue
            for w in words_up_to(machine.alphabet.symbols, k):
                assert machine.accept_weight_or_zero(w, config) == wa.accept_weight(found, w)

    def test_first_admitting_state_and_forced_weight(self):
        # Enumerate every word up to length k: state q admits weight c
        # exactly when each word weighs c times as much from (q, 1) as
        # from the configuration, so c is forced by any word on which
        # either side is nonzero, and is 1 when there is none.
        found = missing = 0
        for seed in range(400):
            rng = random.Random(70000 + seed)
            field = rational() if seed % 2 else prime_field(7)
            one = field.one()
            machine = generate(GeneratorConfig(seed=rng.randrange(2**32), field=field, num_states=(1, 3)))
            source = machine if seed % 3 == 0 else generate(
                GeneratorConfig(seed=rng.randrange(2**32), field=field, num_states=(1, 3))
            )
            wa = underlying_wa(source)
            if wa.alphabet != machine.alphabet:
                continue
            k = rng.randint(0, 3)
            pool = default_weight_pool(field)
            config = Configuration(rng.randrange(machine.size), rng.randint(0, 3), rng.choice(pool))
            words = words_up_to(machine.alphabet.symbols, k)
            expected = None
            for q in range(wa.size):
                ratios = set()
                for w in words:
                    f = machine.accept_weight_or_zero(w, config)
                    g = wa.accept_weight(WaConfig(q, one), w)
                    if f.is_zero != g.is_zero:
                        break
                    if not f.is_zero:
                        ratios.add(f / g)
                else:
                    if len(ratios) <= 1:
                        expected = WaConfig(q, ratios.pop() if ratios else one)
                        break
            assert find_k_equiv_wa_config(machine, config, wa, k) == expected
            found += expected is not None
            missing += expected is None
        assert found > 50 and missing > 50

    def test_counters_above_k_answer_as_at_k(self, e2):
        # e2's q0 steps only at counter 0: from any counter >= k >= 1 no
        # word of length <= k reaches the zero test, so counter 10^6 gives
        # the answer counter k gives, and counter 0 another one
        loop = Dwa(["p"], ["a"], {("p", "a"): ("p", Q.element(2))}, {"p": Q.one()})
        stuck = Dwa(["p"], ["a"], {}, {"p": Q.one()})
        k = 3
        for wa, at_zero, above in ((loop, WaConfig(0, Q.one()), None), (stuck, None, WaConfig(0, Q.one()))):
            answers = [find_k_equiv_wa_config(e2, Configuration(0, n, Q.one()), wa, k) for n in (0, k, 10**6)]
            assert answers == [at_zero, above, above]

    def test_scaling_property(self, e1):
        wa = underlying_wa(e1)
        s = Q.element(2)
        s_bar = Q.element("1/3")
        base = find_k_equiv_wa_config(e1, Configuration(0, 1, s), wa, 2)
        assert base is not None
        scaled_weight = s_bar * s.inverse() * base.weight
        rescaled = WaConfig(base.state, scaled_weight)
        for w in [(), ("a",), ("a", "a")]:
            expected = e1.accept_weight_or_zero(w, Configuration(0, 1, s_bar))
            assert wa.accept_weight(rescaled, w) == expected


class TestDwaJson:
    def test_roundtrip_initialised(self):
        b = one_state_dwa(2, final_weight=5, initial_weight=3)
        doc = b.to_json()
        assert set(doc) == {"field", "states", "alphabet", "initial", "delta", "final"}
        assert Dwa.from_json(doc).to_json() == doc

    def test_roundtrip_uninitialised(self, e1):
        wa = underlying_wa(e1)
        doc = wa.to_json()
        assert "initial" not in doc
        assert Dwa.from_json(doc).to_json() == doc

    def test_unknown_key_rejected(self):
        doc = one_state_dwa(2).to_json()
        doc["ce"] = 1
        with pytest.raises(ParseError):
            Dwa.from_json(doc)

    @pytest.mark.parametrize("states", [[], ["q0", "q0"]], ids=["empty", "duplicate"])
    def test_bad_state_list_rejected(self, states):
        doc = one_state_dwa(2).to_json()
        doc["states"] = states
        doc["final"] = {name: "1" for name in states}
        with pytest.raises(ParseError):
            Dwa.from_json(doc)

    def test_delta_entry_has_no_ce(self):
        doc = one_state_dwa(2).to_json()
        assert set(doc["delta"][0]) == {"from", "on", "to", "weight"}
        doc["delta"][0]["ce"] = 1
        with pytest.raises(ParseError):
            Dwa.from_json(doc)

    @pytest.mark.parametrize("key", ["from", "on", "to"])
    @pytest.mark.parametrize("value", [["q0"], {"q0": "a"}], ids=["list", "object"])
    def test_non_string_entry_names_rejected(self, key, value):
        doc = one_state_dwa(2).to_json()
        doc["delta"][0][key] = value
        with pytest.raises(ParseError):
            Dwa.from_json(doc)


class TestForeignWeights:
    """A ``Dwa`` records no violations, so the search checks that each of
    its weights is an element of its field before reading any value."""

    @pytest.mark.parametrize(
        "transition, final",
        [(GF7.element(4), Q.one()), (Q.element(4), GF7.one()), ("4", Q.one()), (Q.element(4), "1")],
        ids=["gf7-transition", "gf7-final", "str-transition", "str-final"],
    )
    def test_a_weight_of_another_field_is_refused(self, transition, final):
        foreign = Dwa(["s"], ["a"], {("s", "a"): ("s", transition)}, {"s": final}, ("s", Q.one()))
        for left, right in ((foreign, one_state_dwa(4)), (one_state_dwa(4), foreign)):
            with pytest.raises(FieldMismatch, match="in an automaton over"):
                dwa_equiv(left, right)

    def test_an_initial_weight_sets_the_field_the_others_must_share(self):
        over_gf7 = Dwa(["s"], ["a"], {("s", "a"): ("s", GF7.element(4))}, {"s": GF7.one()}, ("s", GF7.one()))
        mixed = Dwa(["s"], ["a"], {("s", "a"): ("s", Q.element(4))}, {"s": Q.one()}, ("s", GF7.one()))
        with pytest.raises(FieldMismatch):
            dwa_equiv(mixed, over_gf7)
        assert dwa_equiv(over_gf7, over_gf7).equivalent


class TestNonElementWeights:
    """The weight that fixes a new automaton's or configuration's field
    must be a field element: anything else is a FieldMismatch, as in
    ``Dwa.with_initial``."""

    @pytest.mark.parametrize("weight", [1, "1"], ids=["int", "str"])
    def test_refused_with_field_mismatch(self, weight):
        loop = {("s", "a"): ("s", Q.one())}
        calls = [
            (lambda: Dwa(["s"], ["a"], loop, {"s": Q.one()}, ("s", weight)), "initial weight"),
            (lambda: Dwa(["s", "t"], ["a"], loop, {"s": weight, "t": Q.one()}), "final weight of 's'"),
            (lambda: WaConfig(0, weight), "configuration weight"),
        ]
        for call, what in calls:
            with pytest.raises(FieldMismatch, match=f"^{what} {weight!r} is not a field element$"):
                call()


class TestTransitionEntryShape:
    """A ``Dwa``'s transition entry is a ``(dst, weight)`` tuple and a
    ``Dwroca``'s a ``(dst, counter effect, weight)`` tuple; any other entry
    is refused when the automaton is built, naming its transition, before
    any of its items is read."""

    @pytest.mark.parametrize(
        "entry",
        [("s", 0, Q.one()), ("s",), ["s", Q.one()], "s"],
        ids=["counter-style", "one-item", "list", "str"],
    )
    def test_refused_with_value_error(self, entry):
        with pytest.raises(ValueError, match=r"^transition \('s', 'a'\) is .*, not a \(state, weight\) pair$"):
            Dwa(["s"], ["a"], {("s", "a"): entry}, {"s": Q.one()}, ("s", Q.one()))

    @pytest.mark.parametrize(
        "entry",
        [("s", Q.one()), ("s", 0, Q.one(), 5), ["s", 0, Q.one()], "sx", ("s",)],
        ids=["pair", "four-items", "list", "str", "one-item"],
    )
    @pytest.mark.parametrize("table", ["delta0", "delta1"])
    def test_counter_tables_refuse_with_value_error(self, entry, table):
        tables = {"delta0": {}, "delta1": {}}
        tables[table] = {("s", "a"): entry}
        shape = r"not a \(state, counter effect, weight\) triple"
        message = rf"^transition \('s', 'a'\) is {re.escape(repr(entry))}, {shape}$"
        with pytest.raises(ValueError, match=message):
            Dwroca(["s"], ["a"], "s", Q.one(), tables["delta0"], tables["delta1"], {"s": Q.one()})

    def test_counter_table_triples_are_kept(self):
        machine = Dwroca(["s"], ["a"], "s", Q.one(), {("s", "a"): ("s", 1, Q.one())}, {}, {"s": Q.one()})
        assert machine.delta0 == {(0, 0): (0, 1, Q.one())} and machine.validate() == []


class TestDwaRefusals:
    """Refusals of a ``Dwa``'s constructor and accessors, each with its
    exact message."""

    @staticmethod
    def wa(initial=None):
        return Dwa(["s"], ["a"], {("s", "a"): ("s", Q.one())}, {"s": Q.one()}, initial)

    def test_unknown_initial_state(self):
        with pytest.raises(ValueError, match=r"^unknown initial state 't'$"):
            self.wa(("t", Q.one()))

    @pytest.mark.parametrize("state", [99, -1])
    def test_state_index_out_of_range(self, state):
        with pytest.raises(ValueError, match=rf"^state index {state} out of range$"):
            self.wa().state_index(state)

    def test_state_index_of_an_unknown_name(self):
        with pytest.raises(ValueError, match=r"^unknown state 't'$"):
            self.wa().state_index("t")

    def test_uninitialised_has_no_initial_accept_weight(self):
        with pytest.raises(ValueError, match=r"^automaton is uninitialised$"):
            self.wa().initial_accept_weight(("a",))
        assert self.wa(("s", Q.element(2))).initial_accept_weight(("a",)) == Q.element(2)


class TestRenderWord:
    """A witness renders as plain text when every symbol is one character,
    comma-separated otherwise."""

    @pytest.mark.parametrize(
        "word, text",
        [((), ""), (("a",), "a"), (("a", "b"), "ab"), (("ab",), "ab"), (("ab", "c"), "ab,c"), (("a", "bc"), "a,bc")],
    )
    def test_render(self, word, text):
        assert dwa.render_word(word) == text

    def test_verdict_json_of_a_multicharacter_witness(self):
        witness = Witness(("x1", "y"), Q.element(2), Q.element(3))
        verdict = EquivalenceVerdict(False, witness, "bounded", 4, SearchStats(5, 4, 0))
        doc = verdict.to_json()
        assert doc["witness"] == "x1,y" and doc["witness_symbols"] == ["x1", "y"]


class TestOneTableShape:
    """The search reads a ``Dwa``'s one table as the two tables of a
    counter machine whose counter stays at 0 (``_side``), so a ``Dwa`` and
    its counter twin search alike against the same other side."""

    @staticmethod
    def counter_twin(wa):
        """A ``Dwroca`` whose two tables both hold ``wa``'s entries at
        counter effect 0, initialised as ``wa`` is."""
        names, symbols = wa.states, wa.alphabet.symbols
        table = {(names[s], symbols[a]): (names[d], 0, w) for (s, a), (d, w) in wa.transitions.items()}
        state, weight = wa.initial
        return Dwroca(names, symbols, names[state], weight, table, dict(table), dict(zip(names, wa.final_weights)))

    @pytest.mark.parametrize("field", [Q, GF7, GF_BIG], ids=["q", "gf7", "gf_big"])
    def test_twins_search_alike(self, field):
        outcomes = set()
        for seed in range(40):
            wa = random_dwa(47000 + seed, field=field)
            twin = self.counter_twin(wa)
            others = [scaled_copy(wa), random_dwa(48000 + seed, field=field)]
            for other in others:
                if other.alphabet != wa.alphabet:
                    continue
                for max_len in (None, 3):
                    for pair, twin_pair in (((wa, other), (twin, other)), ((other, wa), (other, twin))):
                        found = _difference_search(*pair, max_len=max_len)
                        assert _difference_search(*twin_pair, max_len=max_len) == found, (seed, pair)
                        outcomes.add(found[0] is None)
        assert outcomes == {True, False}


@pytest.mark.parametrize("field", [Q, GF7, GF_BIG], ids=["q", "gf7", "gf_big"])
class TestWithInitial:
    @staticmethod
    def other(field):
        return GF7 if field != GF7 else Q

    def test_the_copy_keeps_the_field(self, field):
        wa = underlying_wa(generate(GeneratorConfig(seed=3, field=field)))
        weight = field.element(3)
        copy = wa.with_initial(0, weight)
        assert copy.field is wa.field and copy.initial == (0, weight)
        with pytest.raises(FieldMismatch, match="is not an element of"):
            wa.with_initial(0, self.other(field).element(3))

    def test_no_proof_across_fields(self, field):
        def loop(spec):
            return Dwa(["s"], ["a"], {("s", "a"): ("s", spec.one())}, {"s": spec.one()})

        other = self.other(field)
        with pytest.raises(FieldMismatch):
            dwa_equiv(loop(field).with_initial("s", other.one()), loop(other).with_initial("s", other.one()))
