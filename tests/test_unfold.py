import itertools
import math
import random

import pytest

from wroca import (
    BoundTooLarge,
    Configuration,
    Dwa,
    Dwroca,
    InvalidAutomaton,
    LazyUnfolding,
    ResourceBudgetExceeded,
    bounds_for_k,
    check_equivalence,
    compute_bounds,
    dwa_equiv,
    prime_field,
    rational,
    underlying_wa,
    unfold,
)
from wroca.dwa import WaConfig, _difference_search
from wroca.testkit import (
    GeneratorConfig,
    find_k_equiv_wa_config,
    generate,
    split_state,
)

Q = rational()
NOT_NATURAL = pytest.mark.parametrize("value", [True, 2.5, "3"], ids=["true", "float", "str"])


class TestUnfoldConstruction:
    @NOT_NATURAL
    def test_bound_is_an_int(self, e1, value):
        with pytest.raises(ValueError, match="^unfold bound must be a natural number$"):
            unfold(e1, value)

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
    @NOT_NATURAL
    def test_bound_is_an_int(self, e1, value):
        with pytest.raises(ValueError, match="^unfold bound must be a natural number$"):
            LazyUnfolding(e1, value)

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
                state, weight = (machine.initial_state, 0), machine.initial_weight
                for symbol in w:
                    step = lazy.step_config(state, machine.alphabet.index_of(symbol))
                    if step is None:
                        state = None
                        break
                    state, weight = step[0], weight * step[1]
                lazy_value = (
                    machine.field.zero() if state is None else weight * machine.final_weights[state[0]]
                )
                assert lazy_value == wa.accept_weight(WaConfig(*wa.initial), w)

    def test_custom_start(self, e1):
        # a view steps from any row; a search from any counter configuration
        # searches the unfolding initialised there
        assert LazyUnfolding(e1, 10).step_config((0, 4), 0) == ((0, 5), Q.element(2))
        found = find_k_equiv_wa_config(e1, Configuration(0, 4, Q.element(5)), underlying_wa(e1), 6)
        assert found == WaConfig(0, Q.element(5))

    def test_rows_clip_at_bound(self, e1):
        lazy = LazyUnfolding(e1, 2)
        assert lazy.step_config((0, 2), 0) is None

    def test_size_matches_materialized_unfolding(self, e1, e2):
        for machine in (e1, e2):
            for bound in (0, 1, 5):
                assert LazyUnfolding(machine, bound).size == unfold(machine, bound).size


class TestSearchClip:
    """The search clips no rows. A word of length n stays in rows 0..n, so a
    search of the machines at ``max_len`` equals a search of their
    unfoldings cut at ``max_len``, whose states number the rows and states
    as the search's coordinates do: the two agree word for word. Only
    unfoldings cut lower clip rows."""

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
        top = witnesses = 0
        for i in range(100):
            sigma = 2 + i % 2
            config = lambda: GeneratorConfig(  # noqa: E731
                seed=rng.randrange(2**32), field=field, alphabet_size=(sigma, sigma)
            )
            left = generate(config())
            right = split_state(left, rng.randrange(2**32)) if i % 2 else generate(config())
            max_len = 1 + rng.randrange(5)
            machines = self.outcome(left, right, max_len)
            assert machines[:3] == self.outcome(unfold(left, max_len), unfold(right, max_len), max_len)[:3]
            if machines[0] != "budget":
                assert machines[3] <= max_len
                top += machines[3] == max_len
                witnesses += machines[0] is not None
        assert top >= 10 and witnesses >= 30

    @staticmethod
    def wild(machine, rng):
        """``machine`` with counter effects from -2 to 2 in both tables,
        often a zero-test decrement among them: invalid, so the search and
        ``unfold`` refuse it, but a lazy unfolding steps it, clipping rows at
        both ends."""
        states, symbols = machine.states, machine.alphabet.symbols

        def table(delta):
            return {
                (states[s], symbols[a]): (states[d], rng.choice((-2, -1, 0, 1, 2)), w)
                for (s, a), (d, _, w) in delta.items()
            }

        start, finals = states[machine.initial_state], dict(zip(states, machine.final_weights))
        return Dwroca(states, symbols, start, machine.initial_weight, table(machine.delta0), table(machine.delta1), finals)

    @pytest.mark.parametrize("field", [rational(), prime_field(7)], ids=["q", "gf7"])
    def test_rows_clip_at_both_ends_on_invalid_machines(self, field):
        # the search once clipped a zero-test decrement as a stuck step
        rng = random.Random(4545 if field.modulus is None else 4646)
        decrements = 0
        for i in range(40):
            left = generate(GeneratorConfig(seed=rng.randrange(2**32), field=field, alphabet_size=(2, 2)))
            wild = self.wild(left, rng)
            if not any(e < 0 for _, e, _ in wild.delta0.values()):
                continue
            decrements += 1
            pair = wild, split_state(left, rng.randrange(2**32))
            with pytest.raises(InvalidAutomaton):
                _difference_search(*(pair[::-1] if i % 2 else pair), max_len=5)
            with pytest.raises(InvalidAutomaton):
                find_k_equiv_wa_config(wild, wild.initial_configuration(), underlying_wa(left), 3)
            bound = rng.randrange(1, 4)
            view = LazyUnfolding(wild, bound)
            for row, delta in ((0, wild.delta0), (bound, wild.delta1)):
                for (state, sym), (dst, effect, weight) in delta.items():
                    stepped = ((dst, row + effect), weight) if 0 <= row + effect <= bound else None
                    assert view.step_config((state, row), sym) == stepped
        assert decrements >= 20

    def test_no_decision_path_builds_a_view(self, e1, e1p, e2, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a decision path built a LazyUnfolding")

        monkeypatch.setattr(LazyUnfolding, "__init__", refuse)
        assert check_equivalence(e1, e2).equivalent
        assert check_equivalence(e1, e1p, 12).witness.word == ("a",)
        wa = underlying_wa(e1)
        assert dwa_equiv(wa.with_initial(0, Q.one()), wa.with_initial(0, Q.element(2))).witness.word == ()
        assert find_k_equiv_wa_config(e1, Configuration(0, 4, Q.one()), wa, 3) == WaConfig(0, Q.one())


class TestBounds:
    @NOT_NATURAL
    def test_k_is_an_int(self, value):
        bounds_for_k(1), bounds_for_k(k=1)  # the cached 1s must not answer for True
        with pytest.raises(ValueError, match="^combined size must be at least 1$"):
            bounds_for_k(value)
        with pytest.raises(ValueError, match="^combined size must be at least 1$"):
            bounds_for_k(k=value)

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

    @pytest.mark.parametrize("value", [True, 1.5, "1"], ids=["true", "float", "str"])
    def test_sizes_are_ints(self, value):
        for sizes in ((value, 1), (1, value)):
            with pytest.raises(ValueError, match="^automaton sizes must be at least 1$"):
                compute_bounds(*sizes)

    def test_k_two_matches_size_pair(self):
        assert bounds_for_k(2) == compute_bounds(1, 1)


class TestStartConfiguration:
    def test_lazy_start_equals_counter_run(self, e2):
        # e2 from (q1, row 3, weight 2): a^n weighs 2^n there, as on a
        # one-state loop of weight 2 from weight 1, and no weight makes a
        # loop of weight 3 agree on both the empty word and a
        start = Configuration(1, 3, Q.element(2))
        weights = [e2.accept_weight_or_zero(("a",) * n, start) for n in range(6)]
        assert weights == [Q.element(2**n) for n in range(6)]

        def loop(weight):
            return Dwa(["p"], ["a"], {("p", "a"): ("p", Q.element(weight))}, {"p": Q.one()}, ("p", Q.one()))

        assert find_k_equiv_wa_config(e2, start, loop(2), 5) == WaConfig(0, Q.one())
        assert find_k_equiv_wa_config(e2, start, loop(3), 5) is None
