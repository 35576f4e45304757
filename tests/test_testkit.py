import random

import pytest

from wroca import (
    Dwroca,
    ResourceBudgetExceeded,
    prime_field,
    rational,
)
from wroca.testkit import (
    GeneratorConfig,
    brute_force_witness,
    default_weight_pool,
    generate,
    language_equiv_witness,
    random_words,
    split_state,
)

Q = rational()
NOT_NATURAL = pytest.mark.parametrize("value", [True, 2.5, "3"], ids=["true", "float", "str"])


class TestGenerator:
    def test_same_seed_same_machine(self):
        first = generate(GeneratorConfig(seed=42))
        second = generate(GeneratorConfig(seed=42))
        assert first.to_json() == second.to_json()

    def test_different_seeds_differ_somewhere(self):
        docs = {str(generate(GeneratorConfig(seed=s)).to_json()) for s in range(20)}
        assert len(docs) > 1

    def test_density_zero_means_empty_tables(self):
        machine = generate(GeneratorConfig(seed=5, density=0.0))
        assert machine.delta0 == {} and machine.delta1 == {}

    def test_all_zero_finals_pairs_are_equivalent(self):
        left = generate(GeneratorConfig(seed=10, zero_final_prob=1.0))
        right = generate(GeneratorConfig(seed=11, zero_final_prob=1.0))
        assert brute_force_witness(left, right, 6).shortest_witness is None

    def test_generated_machines_validate(self):
        for seed in range(200):
            field = prime_field(7) if seed % 3 == 0 else rational()
            machine = generate(GeneratorConfig(seed=seed, field=field))
            assert machine.validate() == []

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, density=1.5)
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, num_states=(3, 2))
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, weight_pool=(Q.zero(),))

    @pytest.mark.parametrize(
        "knobs, message",
        [
            ({"num_states": (0, 2)}, "num_states range must satisfy 1 <= lo <= hi"),
            ({"num_states": (3, 2)}, "num_states range must satisfy 1 <= lo <= hi"),
            ({"alphabet_size": (0, 1)}, "alphabet_size range out of range"),
            ({"alphabet_size": (2, 1)}, "alphabet_size range out of range"),
            ({"alphabet_size": (1, 10**6)}, "alphabet_size range out of range"),
            ({"density": -0.1}, r"density must be in \[0, 1\]"),
            ({"density": 1.5}, r"density must be in \[0, 1\]"),
            ({"zero_final_prob": -0.1}, r"zero_final_prob must be in \[0, 1\]"),
            ({"zero_final_prob": 2.0}, r"zero_final_prob must be in \[0, 1\]"),
            ({"weight_pool": ()}, "weight pool must be non-empty"),
            ({"weight_pool": (prime_field(7).one(),)}, "weight pool element from a different field"),
            ({"weight_pool": (Q.one(), Q.zero())}, "weight pool must not contain zero"),
        ],
    )
    def test_each_config_error_has_its_message(self, knobs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GeneratorConfig(seed=1, **knobs)

    def test_gf_pool_covers_all_nonzero_residues(self):
        pool = default_weight_pool(prime_field(5))
        assert sorted(w.value for w in pool) == [1, 2, 3, 4]

    def test_large_prime_pool_is_capped(self):
        field = prime_field(2**31 - 1)
        pool = default_weight_pool(field)
        assert [w.value for w in pool] == list(range(1, 17))
        machine = generate(GeneratorConfig(seed=1, field=field))
        assert machine.validate() == []
        weights = {w for table in (machine.delta0, machine.delta1) for _dst, _ce, w in table.values()}
        assert weights <= set(pool)


class TestSplitState:
    def test_adds_one_state(self):
        machine = generate(GeneratorConfig(seed=3))
        split = split_state(machine, 17)
        assert split.size == machine.size + 1
        assert split.validate() == []

    def test_split_is_equivalent(self):
        for seed in range(40):
            machine = generate(GeneratorConfig(seed=600 + seed))
            split = split_state(machine, seed)
            assert brute_force_witness(machine, split, 8).shortest_witness is None

    def test_deterministic(self):
        machine = generate(GeneratorConfig(seed=9))
        assert split_state(machine, 4).to_json() == split_state(machine, 4).to_json()

    def test_copy_name_skips_taken_names(self):
        # seed 1 splits state 0, "q", whose first candidate name "q'" is taken
        one, two = Q.one(), Q.element(2)
        table = {("q", "a"): ("r", 0, two), ("r", "a"): ("q'", 0, one), ("q'", "a"): ("q", 0, two)}
        finals = {"q": one, "r": two, "q'": one}
        machine = Dwroca(["q", "r", "q'"], ["a"], "q", one, table, dict(table), finals)
        split = split_state(machine, 1)
        assert split.states == ("q", "r", "q'", "q''")
        assert split.validate() == []
        assert brute_force_witness(machine, split, 6).shortest_witness is None


class TestBruteForceWitness:
    def test_no_witness_on_self(self, e1):
        result = brute_force_witness(e1, e1, 6)
        assert result.shortest_witness is None
        assert result.checked_up_to == 6
        assert result.agreement_table == (1,) * 7  # one word per length over {a}

    def test_first_mismatch(self, e1, e1p):
        result = brute_force_witness(e1, e1p, 3)
        assert result.shortest_witness == ("a",)
        assert result.checked_up_to == 1
        assert result.agreement_table == (1, 0)  # empty word agreed, witness is lex rank 0

    def test_depth_zero_compares_empty_word(self, e1, e2):
        assert brute_force_witness(e1, e2, 0).shortest_witness is None
        three = Dwroca(["q0"], ["a"], "q0", Q.element(3), {}, {}, {"q0": Q.one()})
        one = Dwroca(["q0"], ["a"], "q0", Q.one(), {}, {}, {"q0": Q.one()})
        assert brute_force_witness(three, one, 0).shortest_witness == ()

    def test_budget(self, e1):
        # e1 against itself: one node per depth, so the fourth is over budget
        with pytest.raises(ResourceBudgetExceeded) as info:
            brute_force_witness(e1, e1, 6, node_budget=3)
        assert (info.value.explored, info.value.budget) == (4, 3)
        assert str(info.value) == "explored 4 words, budget is 3"

    def test_negative_budget_rejected(self, e1):
        with pytest.raises(ValueError, match="budget must be a natural number"):
            brute_force_witness(e1, e1, 6, node_budget=-1)

    @NOT_NATURAL
    def test_natural_arguments_are_ints(self, e1, value):
        with pytest.raises(ValueError, match="^max_len must be a natural number$"):
            brute_force_witness(e1, e1, value)
        with pytest.raises(ValueError, match="^budget must be a natural number$"):
            brute_force_witness(e1, e1, 6, node_budget=value)

    def test_collapse_matches_plain_walk(self):
        for seed in range(120):
            rng = random.Random(2000 + seed)
            field = rational() if seed % 2 else prime_field(7)
            left = generate(GeneratorConfig(seed=rng.randrange(2**32), field=field, num_states=(2, 3)))
            right = (
                split_state(left, seed)
                if seed % 6 == 0
                else generate(GeneratorConfig(seed=rng.randrange(2**32), field=field, num_states=(2, 3)))
            )
            fast = brute_force_witness(left, right, 5)
            plain = brute_force_witness(left, right, 5, collapse=False)
            assert fast == plain

    def test_agreement_table_counts_full_levels(self, e1, e2):
        result = brute_force_witness(e1, e2, 4)
        assert result.agreement_table == (1, 1, 1, 1, 1)


class TestLanguageOracle:
    def test_matches_weighted_oracle_on_plain_machines(self):
        for seed in range(60):
            cfg = dict(weight_pool=(Q.one(),), zero_final_prob=0.5)
            left = generate(GeneratorConfig(seed=4000 + seed, **cfg))
            right = generate(GeneratorConfig(seed=4500 + seed, **cfg))
            weighted = brute_force_witness(left, right, 7).shortest_witness
            plain = language_equiv_witness(left, right, 7)
            assert weighted == plain

    @NOT_NATURAL
    def test_max_len_is_an_int(self, e1, value):
        with pytest.raises(ValueError, match="^max_len must be a natural number$"):
            language_equiv_witness(e1, e1, value)

    def test_weight_blind(self, e1, e1p):
        # same language, different weights: the language oracle sees nothing
        assert language_equiv_witness(e1, e1p, 6) is None
        assert brute_force_witness(e1, e1p, 6).shortest_witness == ("a",)


class TestRandomWords:
    def test_deterministic(self, e1):
        first = random_words(e1.alphabet, 10, 8, 5)
        second = random_words(e1.alphabet, 10, 8, 5)
        assert first == second
        assert all(len(w) <= 8 for w in first)
