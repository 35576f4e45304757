import random

import pytest

from wroca import Dwroca, PreconditionViolated, prime_field, rational
from wroca.pumping import (
    PumpingIntervals,
    check_pumping,
    find_pumpings,
    harvest_theorem1_tuples,
    run_word,
    theorem1_trial,
)
from wroca.testkit import GeneratorConfig, generate

Q = rational()
NOT_NATURAL = pytest.mark.parametrize("value", [True, -1, 2.5, "3"], ids=["true", "negative", "float", "str"])


class TestCaps:
    """Each count is checked as every other count is, and a cap of 0 is
    honoured: nothing is returned."""

    @NOT_NATURAL
    def test_max_results_must_be_a_natural_number(self, e1, value):
        with pytest.raises(ValueError, match="^max_results must be a natural number$"):
            find_pumpings(e1, e1.initial_configuration(), ("a", "a"), max_results=value)

    @NOT_NATURAL
    def test_max_tuples_must_be_a_natural_number(self, e1, e1p, value):
        with pytest.raises(ValueError, match="^max_tuples must be a natural number$"):
            harvest_theorem1_tuples(e1, e1p, 4, max_tuples=value)

    @NOT_NATURAL
    def test_max_word_len_must_be_a_natural_number(self, e1, e1p, value):
        with pytest.raises(ValueError, match="^max_word_len must be a natural number$"):
            harvest_theorem1_tuples(e1, e1p, value, max_tuples=5)

    def test_a_cap_of_zero_returns_nothing(self, e1, e1p):
        assert find_pumpings(e1, e1.initial_configuration(), ("a",) * 3, max_results=0) == []
        assert harvest_theorem1_tuples(e1, e1p, 4, max_tuples=0) == []
        assert harvest_theorem1_tuples(e1, e1p, 0, max_tuples=5) == []


class TestFindPumpings:
    def test_no_repeated_state_only_empty(self, Q):
        chain = Dwroca(
            ["q0", "q1"],
            ["a"],
            "q0",
            Q.one(),
            {("q0", "a"): ("q1", 1, Q.one())},
            {},
            {"q0": Q.one(), "q1": Q.one()},
        )
        found = find_pumpings(chain, chain.initial_configuration(), ("a",))
        assert found == [PumpingIntervals()]

    def test_e1_keeps_first_zero_test(self, e1):
        start = e1.initial_configuration()
        found = find_pumpings(e1, start, ("a", "a", "a"))
        as_tuples = {p.intervals for p in found}
        assert ((1, 1),) in as_tuples
        assert ((2, 2),) in as_tuples
        assert ((1, 2),) in as_tuples
        assert all((0, j) not in p for p in as_tuples for j in range(3))

    def test_everything_returned_passes_check(self):
        for seed in range(30):
            machine = generate(GeneratorConfig(seed=1500 + seed, density=0.9))
            rng = random.Random(seed)
            word = tuple(rng.choice(machine.alphabet.symbols) for _ in range(6))
            start = machine.initial_configuration()
            if not run_word(machine, start, word).ok:
                continue
            for intervals in find_pumpings(machine, start, word):
                assert check_pumping(machine, start, word, intervals)

    def test_undefined_run_rejected(self, Q):
        dead = Dwroca(["q0"], ["a"], "q0", Q.one(), {}, {}, {"q0": Q.one()})
        with pytest.raises(ValueError):
            find_pumpings(dead, dead.initial_configuration(), ("a",))

    def test_result_cap(self, e1):
        found = find_pumpings(e1, e1.initial_configuration(), ("a",) * 7, max_results=5)
        assert len(found) == 5


class TestTheoremTrial:
    def test_both_empty_passes_trivially(self, e1, e1p):
        outcome = theorem1_trial(
            e1,
            e1p,
            e1.initial_configuration(),
            e1p.initial_configuration(),
            ("a",),
            PumpingIntervals(),
            PumpingIntervals(),
        )
        assert outcome.passed
        assert outcome.union_is_pumping
        assert set(outcome.distinguishing) == {"w_I", "w_J", "w_IJ"}

    def test_equal_weights_violate_preconditions(self, e1):
        with pytest.raises(PreconditionViolated) as info:
            theorem1_trial(
                e1,
                e1,
                e1.initial_configuration(),
                e1.initial_configuration(),
                ("a",),
                PumpingIntervals(),
                PumpingIntervals(),
            )
        assert "does not distinguish" in str(info.value)

    def test_overlapping_lists_violate_preconditions(self, e1, e1p):
        with pytest.raises(PreconditionViolated):
            theorem1_trial(
                e1,
                e1p,
                e1.initial_configuration(),
                e1p.initial_configuration(),
                ("a", "a", "a"),
                PumpingIntervals([(1, 1)]),
                PumpingIntervals([(1, 2)]),
            )

    def test_non_pumping_interval_violates_preconditions(self, e1, e1p):
        with pytest.raises(PreconditionViolated) as info:
            theorem1_trial(
                e1,
                e1p,
                e1.initial_configuration(),
                e1p.initial_configuration(),
                ("a", "a", "a"),
                PumpingIntervals([(0, 0)]),  # removes the zero-test
                PumpingIntervals(),
            )
        assert "pumping" in str(info.value)

    def test_undefined_run_violates_preconditions(self, Q, e1):
        dead = Dwroca(["q0"], ["a"], "q0", Q.one(), {}, {}, {"q0": Q.one()})
        message = r"^precondition violated: run of \('a',\) is undefined at position 0$"
        with pytest.raises(PreconditionViolated, match=message):
            theorem1_trial(
                dead,
                e1,
                dead.initial_configuration(),
                e1.initial_configuration(),
                ("a",),
                PumpingIntervals(),
                PumpingIntervals(),
            )

    def test_harvested_tuples_pump_something(self, e1, e1p):
        # find_pumpings returns the empty list once, so no tuple pairs it with itself
        harvested = harvest_theorem1_tuples(e1, e1p, 4, max_tuples=50)
        assert harvested and all(len(ivs_i) or len(ivs_j) for *_, ivs_i, ivs_j in harvested)

    def test_harvested_instances_always_distinguish(self):
        # the disjunction clause: some residual word keeps the machines apart
        # on every harvested instance, whether or not the merge stays valid
        trials = 0
        seed = 0
        while trials < 200 and seed < 400:
            seed += 1
            rng = random.Random(12_000 + seed)
            field = rational() if seed % 2 else prime_field(7)
            left = generate(GeneratorConfig(seed=rng.randrange(2**32), field=field, num_states=(2, 3), density=0.9))
            right = generate(GeneratorConfig(seed=rng.randrange(2**32), field=field, num_states=(2, 3), density=0.9))
            for c, c_prime, word, ivs_i, ivs_j in harvest_theorem1_tuples(left, right, 7, max_tuples=5):
                outcome = theorem1_trial(left, right, c, c_prime, word, ivs_i, ivs_j)
                trials += 1
                assert outcome.distinguishing
        assert trials >= 200

    def test_valid_merges_always_pass(self):
        # whenever the merged list is itself a valid removal, the trial passes
        trials = 0
        seed = 0
        while trials < 200 and seed < 400:
            seed += 1
            rng = random.Random(18_000 + seed)
            field = rational() if seed % 2 else prime_field(7)
            left = generate(GeneratorConfig(seed=rng.randrange(2**32), field=field, num_states=(2, 3), density=0.9))
            right = generate(GeneratorConfig(seed=rng.randrange(2**32), field=field, num_states=(2, 3), density=0.9))
            for c, c_prime, word, ivs_i, ivs_j in harvest_theorem1_tuples(left, right, 7, max_tuples=5):
                outcome = theorem1_trial(left, right, c, c_prime, word, ivs_i, ivs_j)
                trials += 1
                if outcome.union_is_pumping:
                    assert outcome.passed
        assert trials >= 200

    @staticmethod
    def _counting_machine(loop_weight):
        # a climbs (+1, weighted loop_weight after the first step), b descends (-1)
        return Dwroca(
            ["m0", "m1"],
            ["a", "b"],
            "m0",
            Q.one(),
            {("m0", "a"): ("m1", 1, Q.one())},
            {
                ("m1", "a"): ("m1", 1, Q.element(loop_weight)),
                ("m1", "b"): ("m1", -1, Q.one()),
            },
            {"m0": Q.zero(), "m1": Q.one()},
        )

    def test_merged_removal_can_fail_while_singles_hold(self):
        """Counter interaction between two individually valid removals.

        On a a a b from counter 0 (effects 1, 2, 3, 2), removing either +1
        loop alone keeps the minimum prefix effect at 1, but removing both
        drops it to 0, so the merged list is not a valid removal. With the
        two machines differing only on the loop weight, the merged residual
        a b no longer contains a loop and cannot distinguish them, while
        each single-loop residual still does. Both lists remove a +1 loop,
        so positive loops stack."""
        left, right = self._counting_machine(1), self._counting_machine(2)
        word = ("a", "a", "a", "b")
        assert left.accept_weight(word) == Q.one()
        assert right.accept_weight(word) == Q.element(4)
        ivs_i, ivs_j = PumpingIntervals([(1, 1)]), PumpingIntervals([(2, 2)])
        for m in (left, right):
            start = m.initial_configuration()
            assert check_pumping(m, start, word, ivs_i)
            assert check_pumping(m, start, word, ivs_j)
            assert not check_pumping(m, start, word, ivs_i.union(ivs_j))
        outcome = theorem1_trial(
            left,
            right,
            left.initial_configuration(),
            right.initial_configuration(),
            word,
            ivs_i,
            ivs_j,
        )
        assert not outcome.union_is_pumping
        assert outcome.distinguishing == ("w_I", "w_J")
        assert not outcome.passed
        assert outcome.positive_loops_stack

    def test_merge_of_positive_and_nonpositive_loop_holds(self):
        """The other side of the stacking boundary.

        On a a a a b b from counter 0 (effects 1, 2, 3, 4, 3, 2), I removes
        the +1 loop at position 1 and J the -1 loop at position 5. Alone,
        they leave a a a b b (1, 2, 3, 2, 1) and a a a a b (1, 2, 3, 4, 3);
        together a a a b (1, 2, 3, 2). Every residual keeps the zero-test at
        position 0, takes the positive table elsewhere and has minimum 1, so
        the merge is valid. The residual weights are 4, 8 and 4 against 1."""
        left, right = self._counting_machine(1), self._counting_machine(2)
        word = ("a", "a", "a", "a", "b", "b")
        assert left.accept_weight(word) == Q.one()
        assert right.accept_weight(word) == Q.element(8)
        ivs_i, ivs_j = PumpingIntervals([(1, 1)]), PumpingIntervals([(5, 5)])
        for m in (left, right):
            start = m.initial_configuration()
            assert check_pumping(m, start, word, ivs_i)
            assert check_pumping(m, start, word, ivs_j)
            assert check_pumping(m, start, word, ivs_i.union(ivs_j))
        outcome = theorem1_trial(
            left,
            right,
            left.initial_configuration(),
            right.initial_configuration(),
            word,
            ivs_i,
            ivs_j,
        )
        assert not outcome.positive_loops_stack
        assert outcome.union_is_pumping
        assert outcome.distinguishing == ("w_I", "w_J", "w_IJ")
        assert outcome.passed
