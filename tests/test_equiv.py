import ast
import hashlib
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
    LazyUnfolding,
    ResourceBudgetExceeded,
    SearchStats,
    check_equivalence,
    prime_field,
    rational,
    replay_witness,
    underlying_wa,
    unfold,
)
from wroca import equiv
from wroca.dwa import EquivalenceVerdict, Witness, _difference_search
from wroca.dwa import _classes, _lockstep, _zero_series
from wroca.fields import FieldElement
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

    def test_budget_converts_runaway_exploration(self, e1, e1_flat):
        with pytest.raises(ResourceBudgetExceeded):
            check_equivalence(e1, e1_flat, budget=200)

    def test_negative_budget_rejected(self, e1):
        with pytest.raises(ValueError, match="budget must be a natural number"):
            check_equivalence(e1, e1, budget=-1)
        with pytest.raises(ResourceBudgetExceeded, match="explored 1 words, budget is 0"):
            check_equivalence(e1, e1, budget=0)
        assert check_equivalence(e1, e1, budget=None).equivalent  # None: no cap

    @pytest.mark.parametrize("value", [True, False, 2.5, "3", -1], ids=["true", "false", "float", "str", "neg"])
    def test_natural_arguments_are_ints(self, e1, e1p, value):
        with pytest.raises(ValueError, match="^bound override must be a natural number$"):
            check_equivalence(e1, e1p, value)
        with pytest.raises(ValueError, match="^budget must be a natural number$"):
            check_equivalence(e1, e1p, budget=value)

    def test_weighted_automata_refused(self, e1, e1p):
        # a Dwa has no counter to replay a witness through, and dwa_equiv
        # decides a pair of them
        left, right = (underlying_wa(m).with_initial(0, Q.one()) for m in (e1, e1p))
        for pair in ((left, right), (left, left), (e1, left), (left, e1)):
            with pytest.raises(TypeError, match="use dwa_equiv"):
                check_equivalence(*pair)

    def test_counters_climbing_in_step_are_proved(self, e1, e2):
        # the search alone never saturates on these; once the empty word is
        # tested without a witness the lockstep certificate proves them
        for right in (e1, e2):
            verdict = check_equivalence(e1, right)
            assert verdict.equivalent and verdict.witness is None
            assert verdict.mode == "theoretical"
            assert verdict.stats == SearchStats(1, 1, 0)

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
from wroca import Dwroca, InternalError, check_equivalence, rational
from wroca.dwa import _difference_search

Q = rational()

def loop(weight):
    table = {("q0", "a"): ("q0", 1, Q.element(weight))}
    return Dwroca(["q0"], ["a"], "q0", Q.one(), table, dict(table), {"q0": Q.one()})

class Understated:
    def __init__(self, machine, size):
        self.machine, self.size = machine, size

    def __getattr__(self, name):
        return getattr(self.machine, name)

two = loop(2)
try:
    _difference_search(Understated(two, 0), Understated(two, 0), max_len=4)
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

    def test_package_has_no_assert_statements(self):
        # python -O strips assert statements, so an internal check written
        # as one is no check at all; it must raise InternalError instead.
        package = Path(__file__).resolve().parents[1] / "src" / "wroca"
        modules = sorted(package.glob("*.py"))
        assert modules
        found = [
            f"{path.name}:{node.lineno}"
            for path in modules
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert)
        ]
        assert found == []

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
        assert replay_witness(e1, e1p, ()) == Witness((), Q.one(), Q.one())

    def test_two_letters(self, e1, e1p):
        assert replay_witness(e1, e1p, ["a", "a"]) == Witness(("a", "a"), Q.element(4), Q.element(9))

    def test_undefined_side_is_zero(self, e1, Q):
        dead = Dwroca(["q0"], ["a"], "q0", Q.one(), {}, {}, {"q0": Q.one()})
        assert replay_witness(e1, dead, ("a",)) == Witness(("a",), Q.element(2), Q.zero())


def machine(delta0, delta1, finals, initial=1, field=Q):
    """A machine over {a, b} starting in q0, from tables of (src, symbol) ->
    (dst, effect, weight) and finals by state, weights given as ints of
    ``field``."""
    states = sorted(finals)
    tables = [{key: (dst, e, field.element(w)) for key, (dst, e, w) in t.items()} for t in (delta0, delta1)]
    finals = {name: field.element(w) for name, w in finals.items()}
    return Dwroca(states, ["a", "b"], "q0", field.element(initial), *tables, finals)


LOCKSTEP_FIELDS = (Q, prime_field(7), prime_field(2**31 - 1))
GF7 = LOCKSTEP_FIELDS[1]


class TestWitnessWeighedExactly:
    """The search steps a witness once more through its own tables and
    holds ``check_equivalence``'s replay to exactly those weights, not to
    weights in the same ratio."""

    @staticmethod
    def pair(field):
        """``a`` weighs 2 * 3 on the left and 5 * 3 on the right, different
        and nonzero in each of the three fields; the empty word weighs 3."""

        def loop(weight):
            table = {("q0", "a"): ("q0", 1, weight)}
            return machine(table, table, {"q0": 3}, field=field)

        return loop(2), loop(5)

    @pytest.mark.parametrize("field", LOCKSTEP_FIELDS, ids=["q", "gf7", "gf"])
    def test_honest_replay(self, field):
        for bound in (None, 12):
            witness = check_equivalence(*self.pair(field), bound).witness
            assert witness == Witness(("a",), field.element(6), field.element(15))

    # each fault takes the honest replay and the field's one
    FAULTS = {
        "doubled": lambda found, one: Witness(found.word, found.f1 * (one + one), found.f2 * (one + one)),
        "left_off_by_one": lambda found, one: Witness(found.word, found.f1 + one, found.f2),
        "right_off_by_one": lambda found, one: Witness(found.word, found.f1, found.f2 + one),
        "another_word": lambda found, one: Witness(found.word + ("b",), found.f1, found.f2),
    }

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("field", LOCKSTEP_FIELDS, ids=["q", "gf7", "gf"])
    def test_faulty_replay_raises(self, field, fault, monkeypatch):
        honest, faulty = equiv.replay_witness, self.FAULTS[fault]
        monkeypatch.setattr(equiv, "replay_witness", lambda a1, a2, word: faulty(honest(a1, a2, word), field.one()))
        for bound in (None, 12):
            with pytest.raises(InternalError, match="disagrees with replay"):
                check_equivalence(*self.pair(field), bound)

    def test_one_replay_and_no_unfolding_steps(self, e1, e1p, monkeypatch):
        calls = {"replay": 0, "step": 0}
        replay, step = Dwroca.accept_weight_or_zero, LazyUnfolding.step_config

        def counted(name, method):
            def call(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)

            return call

        monkeypatch.setattr(Dwroca, "accept_weight_or_zero", counted("replay", replay))
        monkeypatch.setattr(LazyUnfolding, "step_config", counted("step", step))
        for bound in (None, 12):
            calls.update(replay=0, step=0)
            verdict = check_equivalence(e1, e1p, bound)
            assert not verdict.equivalent and verdict.witness.word == ("a",)
            assert calls == {"replay": 2, "step": 0}


class TestLockstep:
    """One test per rule of the lockstep certificate, called directly,
    since the search decides most of these pairs before it would ask it.
    Each rule is tested over Q, GF(7) and GF(2^31 - 1)."""

    def test_initial_ratio_runs_right_over_left(self):
        # left weighs a^n 2 * 2^n * 1 and right 1 * 2^n * 2; the upside-down
        # ratio, left initial / right initial, would ask 1 = 2 * 2
        loop = {("q0", "a"): ("q0", 1, 2)}
        for field in LOCKSTEP_FIELDS:
            left = machine(loop, loop, {"q0": 1}, initial=2, field=field)
            right = machine(loop, loop, {"q0": 2}, field=field)
            assert _lockstep(left, right)
            assert not _lockstep(left, machine(loop, loop, {"q0": 1}, field=field))  # 1 vs 1/2 * 1
            verdict = check_equivalence(left, right, budget=200)
            assert verdict.equivalent and verdict.mode == "theoretical"

    def test_decrement_from_positive_reaches_zero(self):
        # a climbs to q1, b comes back down to q2; only q2's zero table
        # differs, so only the zero class after a return to zero tells
        up = {("q0", "a"): ("q1", 1, 1)}
        down = {("q1", "b"): ("q2", -1, 1), ("q2", "a"): ("q2", 0, 2)}
        finals = {"q0": 1, "q1": 1, "q2": 1}
        for field in LOCKSTEP_FIELDS:
            left = machine({**up, ("q2", "a"): ("q2", 0, 2)}, down, finals, field=field)
            right = machine({**up, ("q2", "a"): ("q2", 0, 3)}, down, finals, field=field)
            assert brute_force_witness(left, right, 3).shortest_witness == ("a", "b", "a")
            assert not _lockstep(left, right)
            assert _lockstep(left, left)

    def test_stuck_side_needs_a_zero_series(self):
        # q1 weighs zero from both classes, though it steps in each
        dead_end = {("q0", "a"): ("q1", 1, 1), ("q1", "a"): ("q1", 1, 1)}
        for field in LOCKSTEP_FIELDS:
            stuck = machine({}, {}, {"q0": 1}, field=field)
            to_live = machine({("q0", "a"): ("q0", 0, 1)}, {}, {"q0": 1}, field=field)
            to_dead = machine(dead_end, dead_end, {"q0": 1, "q1": 0}, field=field)
            assert not _lockstep(to_live, stuck) and not _lockstep(stuck, to_live)
            assert _lockstep(to_dead, stuck) and _lockstep(stuck, to_dead)

    def test_both_zero_series_triple_holds_with_any_ratio(self):
        # (d, d) is reached with ratios 3/2 and 1, and there the sides
        # step with unequal effects; both weigh zero from d, so no conflict
        for field in LOCKSTEP_FIELDS:
            left = machine(
                {("q0", "a"): ("d", 0, 2), ("q0", "b"): ("d", 0, 1), ("d", "a"): ("d", 1, 1)},
                {("d", "a"): ("d", 1, 1)},
                {"q0": 1, "d": 0},
                field=field,
            )
            right = machine(
                {("q0", "a"): ("d", 0, 3), ("q0", "b"): ("d", 0, 1), ("d", "a"): ("d", 0, 1)},
                {},
                {"q0": 1, "d": 0},
                field=field,
            )
            assert _lockstep(left, right)
            assert brute_force_witness(left, right, 8).shortest_witness is None

    def test_unequal_effects_fail(self):
        # equivalent, but the counters climb out of step
        climb, stay = {("q0", "a"): ("q0", 1, 2)}, {("q0", "a"): ("q0", 0, 2)}
        for field in LOCKSTEP_FIELDS:
            counting = machine(climb, climb, {"q0": 1}, field=field)
            flat_copy = machine(stay, stay, {"q0": 1}, field=field)
            assert not _lockstep(counting, flat_copy) and not _lockstep(flat_copy, counting)
            assert _lockstep(counting, counting) and _lockstep(flat_copy, flat_copy)

    def test_second_ratio_fails(self):
        # (q1, q1) is reached with ratios 3/2 (by a) and 1 (by b); each on
        # its own passes q1's zero final weight and its step to q2
        def pair_machine(a_weight, field):
            delta0 = {
                ("q0", "a"): ("q1", 0, a_weight),
                ("q0", "b"): ("q1", 0, 1),
                ("q1", "a"): ("q2", 0, 1),
            }
            return machine(delta0, {}, {"q0": 1, "q1": 0, "q2": 1}, field=field)

        for field in LOCKSTEP_FIELDS:
            left, right = pair_machine(2, field), pair_machine(3, field)
            assert brute_force_witness(left, right, 2).shortest_witness == ("a", "a")
            assert not _lockstep(left, right)

    def test_second_ratio_equal_mod_7(self):
        # (q1, q1) is reached with ratios 3 (by a) and 10 (by b): a conflict
        # over Q, one ratio over GF(7), where every word weighs alike
        def pair_machine(weights, q2_final, field):
            delta0 = {
                ("q0", "a"): ("q1", 0, weights[0]),
                ("q0", "b"): ("q1", 0, weights[1]),
                ("q1", "a"): ("q2", 0, 1),
            }
            return machine(delta0, {}, {"q0": 1, "q1": 0, "q2": q2_final}, field=field)

        for field, certified in ((Q, False), (GF7, True)):
            left, right = pair_machine((1, 1), 10, field), pair_machine((3, 10), 1, field)
            witness = brute_force_witness(left, right, 3).shortest_witness
            assert witness == (None if certified else ("a", "a"))
            assert _lockstep(left, right) is certified

    def test_final_weights_equal_mod_7(self):
        # rho = 3 and final weights 1 and 5: 1 = 3 * 5 holds mod 7 only
        climb = {("q0", "a"): ("q0", 1, 2)}
        for field, certified in ((Q, False), (GF7, True)):
            left = machine(climb, climb, {"q0": 1}, field=field)
            right = machine(climb, climb, {"q0": 5}, initial=3, field=field)
            witness = brute_force_witness(left, right, 3).shortest_witness
            assert witness == (None if certified else ())
            assert _lockstep(left, right) is certified

    def test_zero_step_weight_is_invalid_not_certified(self):
        # with weight 1 on b the pair is certified; with 0 it is no machine
        for field in LOCKSTEP_FIELDS:
            for b_weight in (1, 0):
                steps = {("q0", "a"): ("q0", 1, 2), ("q0", "b"): ("q0", 1, b_weight)}
                same = machine(steps, steps, {"q0": 1}, field=field)
                if b_weight:
                    verdict = check_equivalence(same, same)
                    assert verdict.equivalent and verdict.stats == SearchStats(1, 1, 0)
                else:
                    with pytest.raises(InvalidAutomaton, match="zero transition weight"):
                        check_equivalence(same, same)


def _reference_lockstep(a1, a2):
    """``equiv._lockstep`` as first written, on FieldElement arithmetic: the
    same relation, rules and traversal order, ratios as field elements."""
    symbols = range(len(a1.alphabet))
    zero = [None, None]

    def dead(side, state, positive):
        if zero[side] is None:
            zero[side] = _zero_series((a1, a2)[side])
        return (state, positive) in zero[side]

    def successors(p, q, c, rho):
        if a1.final_weights[p] != rho * a2.final_weights[q]:
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
                ratio = rho * step2[2] / step1[2]
                found += [(step1[0], step2[0], c2, ratio) for c2 in _classes(c, step1[1])]
        return found

    ratios = {}
    todo = [(a1.initial_state, a2.initial_state, False, a2.initial_weight / a1.initial_weight)]
    while todo:
        p, q, c, rho = todo.pop()
        seen = ratios.get((p, q, c))
        if seen is None:
            ratios[(p, q, c)] = rho
            found = successors(p, q, c, rho)
            if found is not None:
                todo += found
                continue
        elif seen == rho:
            continue
        if not (dead(0, p, c) and dead(1, q, c)):
            return False
    return True


def _rescaled(machine, rng, perturb=False):
    """An equivalent copy with state q's weights rescaled by a nonzero s_q:
    a step p -> q weighs u * s_q / s_p, the initial weight gains s_q0 and
    final(q) loses s_q, so certified pairs meet ratios other than 1. With
    ``perturb``, one step weight is also doubled."""
    field, names, symbols = machine.field, machine.states, machine.alphabet.symbols
    s = [field.element(rng.choice((1, -1, 2, 3, 5, 6))) for _ in names]
    tables = [
        {
            (names[src], symbols[sym]): (names[dst], e, w * s[dst] / s[src])
            for (src, sym), (dst, e, w) in table.items()
        }
        for table in (machine.delta0, machine.delta1)
    ]
    keys = [(t, key) for t, table in enumerate(tables) for key in sorted(table)]
    if perturb and keys:
        t, key = rng.choice(keys)
        dst, e, w = tables[t][key]
        tables[t][key] = dst, e, w * field.element(2)
    return Dwroca(
        names,
        machine.alphabet,
        names[machine.initial_state],
        machine.initial_weight * s[machine.initial_state],
        *tables,
        {name: w / s[q] for q, (name, w) in enumerate(zip(names, machine.final_weights))},
    )


def _lockstep_stream(base_seed, count):
    """Seeded acceptance-stream pairs over Q, GF(7) and GF(2^31 - 1): of
    every five, two pairs of generated machines, a ``split_state`` copy of
    the left machine, that copy rescaled, and the rescaled copy with one
    step weight doubled."""
    for i in range(count):
        rng = random.Random(base_seed + i)
        sigma = 2 + (i // 3) % 2
        config = lambda seed: GeneratorConfig(  # noqa: E731
            seed=seed, field=LOCKSTEP_FIELDS[i % 3], alphabet_size=(sigma, sigma)
        )
        left = generate(config(rng.randrange(2**32)))
        kind = i % 5
        if kind < 2:
            yield left, generate(config(rng.randrange(2**32)))
        else:
            right = split_state(left, rng.randrange(2**32))
            yield left, right if kind == 2 else _rescaled(right, rng, perturb=kind == 4)


class TestLockstepOnInts:
    def test_agrees_with_field_element_reference(self):
        certified = [0, 0, 0]
        for i, (left, right) in enumerate(_lockstep_stream(61_000, 1500)):
            for pair in ((left, right), (right, left)):
                expected = _reference_lockstep(*pair)
                assert _lockstep(*pair) is expected, (i, pair)
                certified[i % 3] += expected
        # every field certifies some pairs and refuses others
        assert all(0 < count < 1000 for count in certified), certified

    def test_certifies_without_field_element_arithmetic(self, e1, e2, monkeypatch):
        pairs = [(e1, e2), (e2, e1)]
        pairs += [pair for pair in _lockstep_stream(62_000, 300) if _reference_lockstep(*pair)]

        def refuse(*args):
            raise AssertionError("FieldElement arithmetic in the lockstep certificate")

        for name in ("__mul__", "__truediv__", "inverse"):
            monkeypatch.setattr(FieldElement, name, refuse)
        assert len(pairs) > 50
        assert all(_lockstep(*pair) for pair in pairs)
        assert all(check_equivalence(*pair).equivalent for pair in pairs)


def _pinned_lines(e1, e1p, e2):
    """One line per search of a fixed seeded set: the verdict JSON, stats
    included, or the budget message when the search runs out."""
    fields = (Q, prime_field(7), prime_field(2**31 - 1))

    def line(search, *args, **kwargs):
        try:
            verdict = search(*args, **kwargs)
        except ResourceBudgetExceeded as exc:
            return f"budget: {exc}"
        if isinstance(verdict, tuple):
            witness, stats = verdict
            verdict = EquivalenceVerdict(witness is None, witness, "bounded", None, stats)
        return json.dumps(verdict.to_json(), sort_keys=True)

    lines = []
    for i in range(200):
        rng = random.Random(52000 + i)
        sigma = 2 + (i // 2) % 2
        config = lambda seed: GeneratorConfig(  # noqa: E731
            seed=seed, field=fields[i % 3], alphabet_size=(sigma, sigma)
        )
        left = generate(config(rng.randrange(2**32)))
        if i % 5 == 4:
            right = split_state(left, rng.randrange(2**32))
        else:
            right = generate(config(rng.randrange(2**32)))
        lines.append(line(check_equivalence, left, right, 12 if i % 2 else None, budget=300))
        if i % 4 == 0:
            # unfoldings cut below the word length: their rows stop there
            lines.append(line(_difference_search, unfold(left, 1), unfold(right, 2), max_len=6, budget=300))
    for x, y in ((e1, e1), (e1, e1p), (e1, e2), (e2, e1)):
        for bound in range(4):
            lines.append(line(check_equivalence, x, y, bound))
            for other in range(3):
                lines.append(line(_difference_search, unfold(x, bound), unfold(y, other), max_len=5))
        lines.append(line(check_equivalence, x, y, budget=300))
    return lines


class TestPinnedAnswers:
    def test_verdict_digest(self, e1, e1p, e2):
        lines = _pinned_lines(e1, e1p, e2)
        assert len(lines) == 318
        # the lockstep certificate proves these once the empty word is
        # tested: the 11 searches that once ran out of their 300-word budget
        # (18, 105, ..., 317) and 12 that saturated after 2 to 18 words
        assert not any(text.startswith("budget:") for text in lines)
        certified = [i for i, text in enumerate(lines) if '"explored_words": 1, "max_counter_row": 0}' in text
                     and '"mode": "theoretical", "outcome": "equivalent"' in text]
        assert certified == [5, 18, 30, 43, 55, 68, 80, 93, 105, 118, 130, 143,
                             155, 168, 180, 193, 205, 218, 230, 243, 266, 300, 317]
        assert all('"stats": {"basis_size": 1, ' in lines[i] for i in certified)
        # check_equivalence's lines, the only ones with a bound
        checked = [text for text in lines if '"bound": ' in text]
        assert len(checked) == 220
        digest = hashlib.sha256("\n".join(checked).encode()).hexdigest()
        assert digest == "6e52dd2fc96e1a87cd1f87b9cb83db223afc3827404cd10d1040e26560cacdb1"
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "d613a6c9260b54842fd61f5697965b97bb22d76ad9c67434dead3103e9df9f36"
