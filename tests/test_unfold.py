import itertools
import math
import random

import pytest

from wroca import (
    BoundTooLarge,
    Configuration,
    Dwroca,
    FieldMismatch,
    InvalidAutomaton,
    LazyUnfolding,
    ResourceBudgetExceeded,
    bounds_for_k,
    compute_bounds,
    prime_field,
    rational,
    underlying_wa,
    unfold,
)
from wroca.dwa import WaConfig, _difference_search
from wroca.testkit import GeneratorConfig, generate, split_state

Q = rational()
GF7 = prime_field(7)


class TestUnfoldConstruction:
    def test_e1_one_row(self, e1):
        wa = unfold(e1, 1)
        assert wa.states == ("q0#0", "q0#1")
        assert wa.initial == (0, Q.one())
        # the only edge climbs from row 0 to row 1; row 1 has no way up
        assert wa.transitions == {(0, 0): (1, Q.element(2))}

    def test_row_zero_only(self, Q):
        machine = Dwroca(
            ["q0"],
            ["a", "b"],
            "q0",
            Q.one(),
            {("q0", "a"): ("q0", 0, Q.element(2)), ("q0", "b"): ("q0", 1, Q.element(3))},
            {("q0", "a"): ("q0", -1, Q.one())},
            {"q0": Q.one()},
        )
        wa = unfold(machine, 0)
        assert wa.states == ("q0#0",)
        # only the zero-row self-loop with effect 0 survives the clipping
        assert wa.transitions == {(0, 0): (0, Q.element(2))}

    def test_state_count(self):
        for seed, bound in ((1, 0), (2, 3), (3, 7)):
            machine = generate(GeneratorConfig(seed=seed))
            assert unfold(machine, bound).size == machine.size * (bound + 1)

    def test_cap_enforced(self, e1):
        with pytest.raises(BoundTooLarge) as info:
            unfold(e1, 5, state_cap=5)
        assert info.value.required == 6 and info.value.cap == 5

    def test_invalid_automaton_rejected(self, Q):
        broken = Dwroca(["q0"], ["a"], "q0", Q.zero(), {}, {}, {"q0": Q.one()})
        with pytest.raises(InvalidAutomaton):
            unfold(broken, 1)

    def test_negative_bound_rejected(self, e1):
        with pytest.raises(ValueError):
            unfold(e1, -1)

    def test_zero_test_fidelity(self):
        # row 0 rows carry exactly the zero-test table, higher rows the other
        for seed in range(15):
            machine = generate(GeneratorConfig(seed=100 + seed, density=0.9))
            bound = 4
            wa = unfold(machine, bound)
            name_of = {name: i for i, name in enumerate(wa.states)}
            seen = set()
            for (src, sym), (dst, weight) in wa.transitions.items():
                src_name, src_row = wa.states[src].rsplit("#", 1)
                dst_name, dst_row = wa.states[dst].rsplit("#", 1)
                src_row, dst_row = int(src_row), int(dst_row)
                assert 0 <= dst_row <= bound
                table = machine.delta0 if src_row == 0 else machine.delta1
                key = (machine.states.index(src_name), sym)
                assert key in table
                entry = table[key]
                assert machine.states[entry[0]] == dst_name
                assert entry[1] == dst_row - src_row
                assert entry[2] == weight
                seen.add((src_row == 0, key))
            # every unclipped table entry is present
            for row in range(bound + 1):
                table = machine.delta0 if row == 0 else machine.delta1
                for key, (dst, effect, weight) in table.items():
                    if 0 <= row + effect <= bound:
                        src = name_of[f"{machine.states[key[0]]}#{row}"]
                        assert (src, key[1]) in wa.transitions


class TestUnfoldFaithfulness:
    def test_exact_on_short_words(self):
        for seed in range(25):
            machine = generate(GeneratorConfig(seed=500 + seed, alphabet_size=(2, 2)))
            bound = 1 + seed % 8
            wa = unfold(machine, bound)
            start = WaConfig(wa.initial[0], wa.initial[1])
            for length in range(bound + 1):
                for w in itertools.product(machine.alphabet.symbols, repeat=length):
                    assert machine.accept_weight_or_zero(w) == wa.accept_weight(start, w)


class TestLazyUnfolding:
    def test_matches_materialized(self):
        rng = random.Random(7)
        for seed in range(20):
            machine = generate(GeneratorConfig(seed=800 + seed))
            bound = rng.randint(0, 6)
            lazy = LazyUnfolding(machine, bound)
            wa = unfold(machine, bound)
            for _ in range(60):
                w = tuple(
                    rng.choice(machine.alphabet.symbols) for _ in range(rng.randint(0, bound + 3))
                )
                state, weight = lazy.initial_config()
                for symbol in w:
                    step = lazy.step_config(state, machine.alphabet.index_of(symbol))
                    if step is None:
                        state = None
                        break
                    state, weight = step[0], weight * step[1]
                lazy_value = (
                    machine.field.zero() if state is None else weight * lazy.final_weight(state)
                )
                assert lazy_value == wa.accept_weight(WaConfig(*wa.initial), w)

    def test_custom_start(self, e1):
        lazy = LazyUnfolding(e1, 10, start=Configuration(0, 4, Q.element(5)))
        assert lazy.initial_config() == ((0, 4), Q.element(5))
        step = lazy.step_config((0, 4), 0)
        assert step == ((0, 5), Q.element(2))

    def test_rows_clip_at_bound(self, e1):
        lazy = LazyUnfolding(e1, 2)
        assert lazy.step_config((0, 2), 0) is None

    def test_start_row_outside_bound_rejected(self, e1):
        with pytest.raises(ValueError, match=r"^initial row 3 outside \[0, 2\]$"):
            LazyUnfolding(e1, 2, start=Configuration(0, 3, Q.one()))

    def test_start_state_and_field_are_checked(self, e1):
        with pytest.raises(ValueError, match=r"^initial state 5 outside \[0, 0\]$"):
            LazyUnfolding(e1, 3, start=Configuration(5, 0, Q.one()))
        with pytest.raises(ValueError, match="initial state -1"):
            LazyUnfolding(e1, 3, start=Configuration(-1, 0, Q.one()))
        with pytest.raises(FieldMismatch):
            LazyUnfolding(e1, 3, start=Configuration(0, 0, GF7.element(5)))

    def test_other_field_start_cannot_reach_a_search(self, e1):
        # such a view used to compare as k-equivalent to a machine over Q
        wa = underlying_wa(e1).with_initial(0, Q.element(3))
        with pytest.raises(FieldMismatch):
            _difference_search(LazyUnfolding(e1, 4, start=Configuration(0, 0, GF7.element(3))), wa, max_len=4)

    def test_size_matches_materialized_unfolding(self, e1, e2):
        for machine in (e1, e2):
            for bound in (0, 1, 5):
                assert LazyUnfolding(machine, bound).size == unfold(machine, bound).size


class TestSearchClip:
    """The search applies the row bound itself; a materialized unfolding
    has it built in by ``step_config``'s own row rule, and the same
    coordinates. So searches on both agree word for word."""

    @staticmethod
    def outcome(left, right, max_len):
        try:
            witness, stats = _difference_search(left, right, max_len=max_len, budget=400)
        except ResourceBudgetExceeded as exc:
            return "budget", exc.stats.explored_words, exc.stats.basis_size
        word = None if witness is None else (witness.word, witness.f1, witness.f2)
        return word, stats.explored_words, stats.basis_size, stats.max_counter_row

    @pytest.mark.parametrize("field", [rational(), prime_field(7)], ids=["q", "gf7"])
    def test_lazy_rows_clip_like_the_materialized_unfolding(self, field):
        rng = random.Random(4242 if field.modulus is None else 4343)
        clipped = witnesses = 0
        for i in range(40):
            sigma = 2 + i % 2
            config = lambda: GeneratorConfig(  # noqa: E731
                seed=rng.randrange(2**32), field=field, alphabet_size=(sigma, sigma)
            )
            left = generate(config())
            right = split_state(left, rng.randrange(2**32)) if i % 2 else generate(config())
            bound = rng.randrange(3)
            max_len = bound + 1 + rng.randrange(4)
            lazy = self.outcome(LazyUnfolding(left, bound), LazyUnfolding(right, bound), max_len)
            wa = self.outcome(unfold(left, bound), unfold(right, bound), max_len)
            assert lazy[:3] == wa[:3]
            if lazy[0] != "budget":
                # a side the clip makes stuck does not keep the row it left for
                assert lazy[3] <= bound and wa[3] == 0
                clipped += 0 < lazy[3] == bound
                witnesses += lazy[0] is not None
        assert clipped >= 10 and witnesses >= 10

    @staticmethod
    def wild(machine, rng):
        """``machine`` with counter effects from -2 to 2 in both tables, a
        zero-test decrement among them: invalid, so ``unfold`` refuses it,
        but a lazy unfolding steps it, clipping rows at both ends."""
        states, symbols = machine.states, machine.alphabet.symbols

        def table(delta):
            return {
                (states[s], symbols[a]): (states[d], rng.choice((-2, -1, 0, 1, 2)), w)
                for (s, a), (d, _, w) in delta.items()
            }

        start, finals = states[machine.initial_state], dict(zip(states, machine.final_weights))
        return Dwroca(states, symbols, start, machine.initial_weight, table(machine.delta0), table(machine.delta1), finals)

    @staticmethod
    def stepped_witness(left, right, max_len):
        """The first word, shortest and then in symbol order, on which the
        two views' own ``step_config`` runs weigh differently, with both
        weights; None when they agree up to ``max_len``."""
        zero = left.field.zero()

        def weight(view, config):
            return zero if config is None else config[1] * view.final_weight(config[0])

        def step(view, config, sym):
            nxt = None if config is None else view.step_config(config[0], sym)
            return None if nxt is None else (nxt[0], config[1] * nxt[1])

        level = [((), left.initial_config(), right.initial_config())]
        for depth in range(max_len + 1):
            for word, c1, c2 in level:
                if weight(left, c1) != weight(right, c2):
                    return word, weight(left, c1), weight(right, c2)
            level = [
                (word + (symbol,), step(left, c1, sym), step(right, c2, sym))
                for word, c1, c2 in level
                for sym, symbol in enumerate(left.alphabet.symbols)
            ]
        return None

    @pytest.mark.parametrize("field", [rational(), prime_field(7)], ids=["q", "gf7"])
    def test_rows_clip_at_both_ends_on_invalid_machines(self, field):
        rng = random.Random(4545 if field.modulus is None else 4646)
        clipped_below = 0
        for i in range(40):
            left = generate(GeneratorConfig(seed=rng.randrange(2**32), field=field, alphabet_size=(2, 2)))
            wild = self.wild(left, rng)
            bound, max_len = rng.randrange(1, 4), 5
            views = LazyUnfolding(wild, bound), LazyUnfolding(split_state(left, rng.randrange(2**32)), bound)
            if i % 2:
                views = views[::-1]
            witness, _stats = _difference_search(*views, max_len=max_len)
            found = None if witness is None else (witness.word, witness.f1, witness.f2)
            assert found == self.stepped_witness(*views, max_len)
            clipped_below += any(e < 0 for _, e, _ in wild.delta0.values())
        assert clipped_below >= 20


class TestBounds:
    def test_exact_values_for_two_singletons(self):
        report = compute_bounds(1, 1)
        assert report.k == 2
        assert report.initial_space == 896
        assert report.belt_thickness == 96
        assert report.counter_bound == 295810
        assert report.witness_bound == 700_028_448_800

    def test_k_one_positive(self):
        report = bounds_for_k(1)
        assert report.initial_space > 0
        assert report.belt_thickness > 0
        assert report.counter_bound > 0
        assert report.witness_bound > 0

    def test_monotone_in_k(self):
        previous = bounds_for_k(1)
        for k in range(2, 12):
            current = bounds_for_k(k)
            assert current.initial_space > previous.initial_space
            assert current.belt_thickness > previous.belt_thickness
            assert current.counter_bound > previous.counter_bound
            assert current.witness_bound > previous.witness_bound
            previous = current

    def test_ordering_invariant(self):
        for k in range(1, 30):
            report = bounds_for_k(k)
            assert report.witness_bound >= report.counter_bound >= report.initial_space

    def test_growth_order_on_small_k(self):
        # counter bound ~ 72 k^12, witness bound ~ 2 * 72^2 k^26 = 10368 k^26
        for k in range(2, 11):
            report = bounds_for_k(k)
            assert 60 <= report.counter_bound / k**12 <= 90
            assert 9_000 <= report.witness_bound / k**26 <= 12_000

    def test_growth_exponents_at_fifty(self):
        # log-log slope at k = 50: the exponent estimate for a polynomial
        hi, lo = bounds_for_k(50), bounds_for_k(49)
        slope3 = (math.log(hi.counter_bound) - math.log(lo.counter_bound)) / (
            math.log(50) - math.log(49)
        )
        slope0 = (math.log(hi.witness_bound) - math.log(lo.witness_bound)) / (
            math.log(50) - math.log(49)
        )
        assert abs(slope3 - 12) / 12 < 0.05
        assert abs(slope0 - 26) / 26 < 0.05

    def test_sizes_must_be_positive(self):
        with pytest.raises(ValueError):
            compute_bounds(0, 1)
        with pytest.raises(ValueError):
            bounds_for_k(0)

    def test_k_two_matches_size_pair(self):
        assert bounds_for_k(2) == compute_bounds(1, 1)


class TestStartConfiguration:
    def test_lazy_start_equals_counter_run(self, e2):
        # the lazy view from (state, row) reproduces accept weights from the
        # matching counter configuration when the bound leaves headroom
        lazy = LazyUnfolding(e2, 12, start=Configuration(1, 3, Q.element(2)))
        for length in range(6):
            w = ("a",) * length
            state, weight = lazy.initial_config()
            for symbol in w:
                step = lazy.step_config(state, 0)
                if step is None:
                    state = None
                    break
                state, weight = step[0], weight * step[1]
            value = Q.zero() if state is None else weight * lazy.final_weight(state)
            assert value == e2.accept_weight_or_zero(w, Configuration(1, 3, Q.element(2)))
