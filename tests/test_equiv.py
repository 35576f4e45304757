import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wroca import (
    AlphabetMismatch,
    Dwroca,
    FieldMismatch,
    InternalError,
    InvalidAutomaton,
    ResourceBudgetExceeded,
    check_equivalence,
    prime_field,
    rational,
    replay_witness,
)
from wroca.testkit import GeneratorConfig, brute_force_witness, generate, split_state

Q = rational()


def flat(weights_by_symbol, final=1):
    """One state over {a, b}, no counter movement; easy theoretical verdicts."""
    table = {
        ("q0", symbol): ("q0", 0, Q.element(weight))
        for symbol, weight in weights_by_symbol.items()
    }
    return Dwroca(["q0"], ["a", "b"], "q0", Q.one(), table, dict(table), {"q0": Q.element(final)})


class TestCheckEquivalence:
    def test_bounded_self_equivalence(self, e1):
        verdict = check_equivalence(e1, e1, 12)
        assert verdict.equivalent and verdict.mode == "bounded" and verdict.bound == 12

    def test_theoretical_proof_when_rows_stay_finite(self):
        left = flat({"a": 2, "b": 3})
        right = flat({"a": 2, "b": 3})
        verdict = check_equivalence(left, right)
        assert verdict.equivalent and verdict.mode == "theoretical"

    def test_theoretical_witness(self, e1, e1p):
        verdict = check_equivalence(e1, e1p)
        assert not verdict.equivalent
        assert verdict.mode == "theoretical"
        assert verdict.witness.word == ("a",)
        assert verdict.witness.f1 == Q.element(2)
        assert verdict.witness.f2 == Q.element(3)

    def test_split_weight_pair_equivalent(self, e1, e2):
        verdict = check_equivalence(e1, e2, 10)
        assert verdict.equivalent
        oracle = brute_force_witness(e1, e2, 10)
        assert oracle.shortest_witness is None

    def test_budget_converts_runaway_exploration(self, e1):
        with pytest.raises(ResourceBudgetExceeded):
            check_equivalence(e1, e1, budget=200)

    def test_override_at_or_above_proof_bound_stays_theoretical(self):
        left = flat({"a": 2, "b": 3})
        right = flat({"a": 2, "b": 3})
        proof_bound = 700_028_448_800  # witness bound at combined size 2
        verdict = check_equivalence(left, right, proof_bound)
        assert verdict.mode == "theoretical"
        verdict = check_equivalence(left, right, proof_bound - 1)
        assert verdict.mode == "bounded"

    def test_alphabet_mismatch(self, e1):
        other = Dwroca(["q0"], ["b"], "q0", Q.one(), {}, {}, {"q0": Q.one()})
        with pytest.raises(AlphabetMismatch):
            check_equivalence(e1, other)

    def test_field_mismatch(self, e1):
        gf = prime_field(7)
        other = Dwroca(["q0"], ["a"], "q0", gf.one(), {}, {}, {"q0": gf.one()})
        with pytest.raises(FieldMismatch):
            check_equivalence(e1, other)

    def test_invalid_automaton_rejected(self, e1):
        broken = Dwroca(["q0"], ["a"], "q0", Q.zero(), {}, {}, {"q0": Q.one()})
        with pytest.raises(InvalidAutomaton):
            check_equivalence(e1, broken)

    def test_unweighted_language_difference(self):
        # plain (all-ones) machines: {a^n b a^n ...} style counting difference
        counting = Dwroca(
            ["q0", "q1"],
            ["a", "b"],
            "q0",
            Q.one(),
            {("q0", "a"): ("q0", 1, Q.one()), ("q0", "b"): ("q1", 0, Q.one())},
            {("q0", "a"): ("q0", 1, Q.one()), ("q0", "b"): ("q1", -1, Q.one()), ("q1", "b"): ("q1", -1, Q.one())},
            {"q0": Q.zero(), "q1": Q.one()},
        )
        sloppy = Dwroca(
            ["q0", "q1"],
            ["a", "b"],
            "q0",
            Q.one(),
            {("q0", "a"): ("q0", 1, Q.one()), ("q0", "b"): ("q1", 0, Q.one())},
            {("q0", "a"): ("q0", 1, Q.one()), ("q0", "b"): ("q1", 0, Q.one()), ("q1", "b"): ("q1", 0, Q.one())},
            {"q0": Q.zero(), "q1": Q.one()},
        )
        verdict = check_equivalence(counting, sloppy, 12)
        assert not verdict.equivalent
        replay = replay_witness(counting, sloppy, verdict.witness.word)
        assert replay.f1 != replay.f2

    def test_witness_replays_exactly(self):
        for seed in range(60):
            rng = random.Random(seed)
            field = rational() if seed % 2 else prime_field(7)
            a1 = generate(GeneratorConfig(seed=rng.randrange(2**32), field=field))
            a2 = generate(GeneratorConfig(seed=rng.randrange(2**32), field=field))
            verdict = check_equivalence(a1, a2, 12)
            if verdict.equivalent:
                continue
            replay = replay_witness(a1, a2, verdict.witness.word)
            assert replay.f1 == verdict.witness.f1
            assert replay.f2 == verdict.witness.f2
            assert replay.f1 != replay.f2

    def test_witness_weights_are_true_weights(self):
        # Non-unit initial, transition and final weights over Q: the search
        # compares the weights only up to a common scalar, and the witness
        # must still carry each machine's own weight.
        def machine(initial, b_weight, finals):
            w = Q.element
            delta0 = {
                ("q0", "a"): ("q1", 1, w("2/3")),
                ("q0", "b"): ("q0", 0, w("1/2")),
                ("q1", "a"): ("q0", 0, w(-5)),
            }
            delta1 = dict(delta0)
            delta1[("q1", "b")] = ("q1", -1, w(b_weight))
            final = {"q0": w(finals[0]), "q1": w(finals[1])}
            return Dwroca(["q0", "q1"], ["a", "b"], "q0", w(initial), delta0, delta1, final)

        left = machine("3/2", "7/4", ("1/3", "-2/5"))
        right = machine(3, "7/3", ("1/6", "-1/5"))
        verdict = check_equivalence(left, right)
        word = verdict.witness.word
        assert word == ("a", "b")
        assert verdict.witness.f1 == left.accept_weight_or_zero(word) == Q.element("-7/10")
        assert verdict.witness.f2 == right.accept_weight_or_zero(word) == Q.element("-14/15")

    def test_witness_minimal_and_lex_first(self):
        for seed in range(60):
            rng = random.Random(1000 + seed)
            field = rational() if seed % 2 else prime_field(7)
            sigma = 2 + seed % 2
            a1 = generate(
                GeneratorConfig(seed=rng.randrange(2**32), field=field, num_states=(2, 4), alphabet_size=(sigma, sigma))
            )
            a2 = generate(
                GeneratorConfig(seed=rng.randrange(2**32), field=field, num_states=(2, 4), alphabet_size=(sigma, sigma))
            )
            verdict = check_equivalence(a1, a2, 12)
            oracle = brute_force_witness(a1, a2, 12)
            assert verdict.equivalent == (oracle.shortest_witness is None)
            if not verdict.equivalent:
                assert verdict.witness.word == oracle.shortest_witness

    def test_bounded_equivalent_means_no_short_witness(self):
        for seed in range(40):
            a1 = generate(GeneratorConfig(seed=7000 + seed))
            a2 = split_state(a1, 7100 + seed)
            verdict = check_equivalence(a1, a2, 9)
            assert verdict.equivalent
            assert brute_force_witness(a1, a2, 9).shortest_witness is None

    def test_counter_row_telemetry(self):
        for seed in range(40):
            rng = random.Random(3000 + seed)
            a1 = generate(GeneratorConfig(seed=rng.randrange(2**32)))
            a2 = generate(GeneratorConfig(seed=rng.randrange(2**32)))
            verdict = check_equivalence(a1, a2, 12)
            if not verdict.equivalent:
                assert verdict.stats.max_counter_row <= min(12, len(verdict.witness.word))

    def test_byte_identical_verdicts(self, e1, e1p):
        first = json.dumps(check_equivalence(e1, e1p, 12).to_json(), sort_keys=True)
        second = json.dumps(check_equivalence(e1, e1p, 12).to_json(), sort_keys=True)
        assert first == second

    def test_replay_disagreement_raises_internal_error(self, e1, e1p, monkeypatch):
        honest = Dwroca.accept_weight_or_zero

        def off_by_one(self, word, start=None):
            return honest(self, word, start) + self.field.one()

        monkeypatch.setattr(Dwroca, "accept_weight_or_zero", off_by_one)
        with pytest.raises(InternalError):
            check_equivalence(e1, e1p, 12)

    def test_internal_checks_survive_optimize_flag(self):
        # python -O strips assert statements; the internal checks must stay.
        script = """
import sys
from wroca import Dwroca, InternalError, LazyUnfolding, check_equivalence, rational
from wroca.dwa import _difference_search

Q = rational()

def loop(weight):
    table = {("q0", "a"): ("q0", 1, Q.element(weight))}
    return Dwroca(["q0"], ["a"], "q0", Q.one(), table, dict(table), {"q0": Q.one()})

two = loop(2)
try:
    _difference_search(LazyUnfolding(two, 4), LazyUnfolding(two, 4), dimension=1)
    sys.exit(1)
except InternalError:
    pass
Dwroca.accept_weight_or_zero = lambda self, word, start=None: Q.zero()
try:
    check_equivalence(two, loop(3), 4)
    sys.exit(2)
except InternalError:
    sys.exit(0 if sys.flags.optimize else 3)
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("field", [rational(), prime_field(2**31 - 1)], ids=["q", "gf"])
    @pytest.mark.parametrize("same", [True, False], ids=["e1-e1", "e1-e2"])
    def test_counting_pair_keeps_every_word(self, field, same):
        # a^n weighs 2^n on both machines; the n-th word is the first to
        # reach counter row n, so no word is spanned by earlier ones.
        two = field.element(2)
        loop = {("q0", "a"): ("q0", 1, two)}
        e1 = Dwroca(["q0"], ["a"], "q0", field.one(), loop, dict(loop), {"q0": field.one()})
        e2 = Dwroca(
            ["q0", "q1"],
            ["a"],
            "q0",
            field.one(),
            {("q0", "a"): ("q1", 1, field.element(4)), ("q1", "a"): ("q1", 1, two)},
            {("q1", "a"): ("q1", 1, two)},
            {"q0": field.one(), "q1": two.inverse()},
        )
        verdict = check_equivalence(e1, e1 if same else e2, 300)
        assert verdict.equivalent and verdict.mode == "bounded"
        stats = verdict.stats
        assert stats.explored_words == stats.basis_size == stats.max_counter_row + 1 == 301


_machines = st.builds(
    lambda seed, field: generate(GeneratorConfig(seed=seed, num_states=(1, 4), field=field)),
    st.integers(0, 10**6),
    st.sampled_from([Q, prime_field(7)]),
)


def rebuild(machine, states=None, scale=None, rename=None, alphabet=None):
    """The same machine with its states declared in another order, renamed
    by ``rename`` (old name -> new name), its symbols declared in the order
    ``alphabet``, and its initial weight scaled by ``scale``, its final
    weights by 1/``scale``."""
    names, symbols = machine.states, machine.alphabet.symbols
    new = dict(zip(names, names)) if rename is None else rename
    delta0, delta1 = (
        {
            (new[names[src]], symbols[sym]): (new[names[dst]], ce, w)
            for (src, sym), (dst, ce, w) in table.items()
        }
        for table in (machine.delta0, machine.delta1)
    )
    initial_weight = machine.initial_weight
    final = {new[name]: w for name, w in zip(names, machine.final_weights)}
    if scale is not None:
        initial_weight = initial_weight * scale
        final = {name: w * scale.inverse() for name, w in final.items()}
    return Dwroca(
        [new[name] for name in (names if states is None else states)],
        machine.alphabet if alphabet is None else alphabet,
        new[names[machine.initial_state]],
        initial_weight,
        delta0,
        delta1,
        final,
    )


class TestMetamorphic:
    @settings(deadline=None)
    @given(_machines, st.integers(-6, 6).filter(bool), st.integers(1, 6))
    def test_scaled_initial_and_final_weights_equivalent(self, machine, num, den):
        spec = machine.field
        scale = spec.element(num) * spec.element(den).inverse()
        assert check_equivalence(machine, rebuild(machine, scale=scale), 8).equivalent

    @settings(deadline=None)
    @given(_machines, st.integers(0, 10**6), st.data())
    def test_state_order_keeps_verdict_and_witness(self, machine, seed, data):
        other = generate(GeneratorConfig(seed=seed, num_states=(1, 4), field=machine.field))
        permuted = rebuild(machine, states=data.draw(st.permutations(machine.states)))
        before = check_equivalence(machine, other, 8)
        after = check_equivalence(permuted, other, 8)
        assert (after.equivalent, after.witness) == (before.equivalent, before.witness)

    @settings(deadline=None)
    @given(_machines, st.integers(0, 10**6), st.data())
    def test_renamed_states_keep_verdict_and_witness(self, machine, seed, data):
        other = generate(GeneratorConfig(seed=seed, num_states=(1, 4), field=machine.field))
        # each state takes another one's name; the declared order stays
        rename = dict(zip(machine.states, data.draw(st.permutations(machine.states))))
        before = check_equivalence(machine, other, 8)
        after = check_equivalence(rebuild(machine, rename=rename), other, 8)
        assert (after.equivalent, after.witness) == (before.equivalent, before.witness)

    @settings(deadline=None)
    @given(_machines, st.integers(0, 10**6))
    def test_alphabet_order_keeps_verdict_and_witness_length(self, machine, seed):
        other = generate(GeneratorConfig(seed=seed, num_states=(1, 4), field=machine.field))
        order = machine.alphabet.symbols[::-1]
        before = check_equivalence(machine, other, 8)
        after = check_equivalence(
            rebuild(machine, alphabet=order), rebuild(other, alphabet=order), 8
        )
        assert after.equivalent == before.equivalent
        if not before.equivalent:
            assert len(after.witness.word) == len(before.witness.word)


class TestReplayWitness:
    def test_empty_word(self, e1, e1p):
        replay = replay_witness(e1, e1p, ())
        assert replay.f1 == Q.one() and replay.f2 == Q.one()

    def test_two_letters(self, e1, e1p):
        replay = replay_witness(e1, e1p, ("a", "a"))
        assert replay.f1 == Q.element(4) and replay.f2 == Q.element(9)
        assert replay.run1.ok and replay.run2.ok

    def test_undefined_side_is_zero(self, e1, Q):
        dead = Dwroca(["q0"], ["a"], "q0", Q.one(), {}, {}, {"q0": Q.one()})
        replay = replay_witness(e1, dead, ("a",))
        assert replay.f1 == Q.element(2) and replay.f2 == Q.zero()
        assert not replay.run2.ok and replay.run2.stuck_at == 0

