import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wroca import (
    Alphabet,
    Configuration,
    Dwa,
    Dwroca,
    FieldMismatch,
    FieldSpec,
    IntervalOutOfBounds,
    ParseError,
    UnknownSymbol,
    prime_field,
    rational,
)
from wroca.pumping import (
    PLUS_TABLE,
    ZERO_TABLE,
    PumpingIntervals,
    _min_prefix_effect,
    check_pumping,
    remove_intervals,
    run_word,
)
from wroca.testkit import GeneratorConfig, generate

Q = rational()


def word(text):
    return tuple(text)


class TestAlphabet:
    def test_order_is_kept(self):
        assert Alphabet(["b", "a"]).symbols == ("b", "a")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Alphabet([])

    def test_empty_symbol_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(["a", ""])

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            Alphabet(["a"]).index_of("b")

    def test_word_indices_keep_their_errors(self):
        alpha = Alphabet(["a", "b"])
        assert alpha.word_indices(["b", "a"]) == (1, 0) and alpha.word_indices(()) == ()
        # the first unknown symbol is named, from a sequence or a one-shot iterator
        for word in (["a", "c", "d"], iter(["a", "c", "d"])):
            with pytest.raises(UnknownSymbol) as info:
                alpha.word_indices(word)
            assert str(info.value) == "symbol 'c' is not in the alphabet"
        with pytest.raises(TypeError, match="unhashable"):
            alpha.word_indices(["a", ["b"]])

    def test_multicharacter_symbols(self):
        alpha = Alphabet(["push", "pop"])
        assert alpha.index_of("pop") == 1


class TestStep:
    def test_zero_table_step(self, e1):
        start = Configuration(0, 0, Q.one())
        assert e1.step(start, "a") == Configuration(0, 1, Q.element(2))

    def test_positive_table_step(self, e1):
        mid = Configuration(0, 1, Q.element(2))
        assert e1.step(mid, "a") == Configuration(0, 2, Q.element(4))

    def test_undefined_at_zero(self, Q):
        only_plus = Dwroca(
            ["q0"],
            ["a"],
            "q0",
            Q.one(),
            {},
            {("q0", "a"): ("q0", 0, Q.one())},
            {"q0": Q.one()},
        )
        assert only_plus.step(Configuration(0, 0, Q.one()), "a") is None

    def test_unknown_symbol(self, e1):
        with pytest.raises(UnknownSymbol):
            e1.step(e1.initial_configuration(), "b")


class TestRunWord:
    def test_two_steps(self, e1):
        run = run_word(e1, e1.initial_configuration(), word("aa"))
        assert run.ok
        assert run.end == Configuration(0, 2, Q.element(4))
        assert [s.table for s in run.steps] == [ZERO_TABLE, PLUS_TABLE]

    def test_empty_word(self, e1):
        start = e1.initial_configuration()
        run = run_word(e1, start, ())
        assert run.ok and run.end == start and len(run) == 0

    def test_stuck_at_zero(self, Q):
        only_plus = Dwroca(
            ["q0"], ["a"], "q0", Q.one(), {}, {("q0", "a"): ("q0", 0, Q.one())}, {"q0": Q.one()}
        )
        run = run_word(only_plus, only_plus.initial_configuration(), word("aa"))
        assert not run.ok and run.stuck_at == 0 and len(run) == 0

    def test_replay_reproduces_end(self, e2):
        run = run_word(e2, e2.initial_configuration(), word("aaa"))
        current = run.start
        for step, expected in zip(run.steps, run.configurations[1:]):
            current = e2.step(current, step.symbol)
            assert current == expected
        assert current == run.end

    def test_deterministic_replay(self, e2):
        first = run_word(e2, e2.initial_configuration(), word("aaaa"))
        second = run_word(e2, e2.initial_configuration(), word("aaaa"))
        assert first.configurations == second.configurations
        assert first.steps == second.steps


class TestAcceptWeight:
    def test_three_steps(self, e1):
        assert e1.accept_weight(word("aaa")) == Q.element(8)

    def test_empty_word(self, e1):
        assert e1.accept_weight(()) == Q.one()

    def test_zero_final(self, Q):
        machine = Dwroca(
            ["q0"], ["a"], "q0", Q.one(), {}, {}, {"q0": Q.zero()}
        )
        assert machine.accept_weight(()) == Q.zero()

    def test_undefined_is_none(self, Q):
        machine = Dwroca(["q0"], ["a"], "q0", Q.one(), {}, {}, {"q0": Q.one()})
        assert machine.accept_weight(word("a")) is None
        assert machine.accept_weight_or_zero(word("a")) == Q.zero()

    def test_initial_weight_multiplied_once(self, Q):
        machine = Dwroca(
            ["q0"],
            ["a"],
            "q0",
            Q.element(5),
            {("q0", "a"): ("q0", 0, Q.element(3))},
            {},
            {"q0": Q.element(7)},
        )
        assert machine.accept_weight(word("a")) == Q.element(105)

    def test_weight_multiplicativity_random(self):
        for seed in range(40):
            machine = generate(GeneratorConfig(seed=seed, density=0.9))
            cfg = machine.initial_configuration()
            rng = random.Random(seed)
            w = tuple(rng.choice(machine.alphabet.symbols) for _ in range(rng.randint(0, 10)))
            run = run_word(machine, cfg, w)
            if not run.ok:
                continue
            product = machine.initial_weight
            for step in run.steps:
                product = product * step.weight
            expected = product * machine.final_weights[run.end.state]
            assert machine.accept_weight(w) == expected

    def test_matches_a_reference_stepping_loop(self):
        def reference(machine, w, state, counter, weight):
            symbols = machine.alphabet.symbols
            if any(s not in symbols for s in w):
                raise UnknownSymbol(w)
            for s in w:
                table = machine.delta0 if counter == 0 else machine.delta1
                entry = table.get((state, symbols.index(s)))
                if entry is None:
                    return None
                state, counter, weight = entry[0], counter + entry[1], weight * entry[2]
            return weight * machine.final_weights[state]

        stuck = 0
        for seed in range(120):
            field = (Q, prime_field(7))[seed % 2]
            machine = generate(GeneratorConfig(seed=300 + seed, field=field, density=0.8))
            rng = random.Random(seed)
            symbols = machine.alphabet.symbols
            other = Configuration(
                rng.randrange(machine.size), rng.randint(0, 4), field.element(rng.randint(1, 6))
            )
            for start in (None, other):
                begin = start or machine.initial_configuration()
                for _ in range(4):
                    w = tuple(rng.choice(symbols) for _ in range(rng.randint(0, 12)))
                    expected = reference(machine, w, begin.state, begin.counter, begin.weight)
                    assert machine.accept_weight(w, start) == expected
                    if expected is None:
                        stuck += 1
                        with pytest.raises(UnknownSymbol):
                            machine.accept_weight(w + ("?",), start)
        assert 300 <= stuck <= 700  # both stuck and complete runs are covered

    def test_negative_counter_rejected(self, Q):
        machine = Dwroca(
            ["q0"], ["a"], "q0", Q.one(), {("q0", "a"): ("q0", -1, Q.one())}, {}, {"q0": Q.one()}
        )
        with pytest.raises(ValueError):
            machine.accept_weight(word("a"))


class TestCounterProfile:
    """The least prefix counter effect, as ``check_pumping`` compares it."""

    def test_e1_grounded(self, e1):
        run = run_word(e1, e1.initial_configuration(), word("aa"))
        assert _min_prefix_effect(run) == 1  # over the non-empty prefixes only
        assert run.zero_test_positions() == (0,)

    def test_empty_run(self, e1):
        run = run_word(e1, e1.initial_configuration(), ())
        assert _min_prefix_effect(run) == 0
        assert run.zero_test_positions() == ()

    def test_up_down(self, Q):
        machine = Dwroca(
            ["q0"],
            ["a", "b"],
            "q0",
            Q.one(),
            {("q0", "a"): ("q0", 1, Q.one())},
            {("q0", "a"): ("q0", 1, Q.one()), ("q0", "b"): ("q0", -1, Q.one())},
            {"q0": Q.one()},
        )
        run = run_word(machine, Configuration(0, 1, Q.one()), word("ab"))
        assert _min_prefix_effect(run) == 0
        assert run.zero_test_positions() == ()


class TestFloatingMonotonicity:
    def test_lifting_counter_keeps_floating_runs(self):
        for seed in range(60):
            machine = generate(GeneratorConfig(seed=200 + seed, density=0.9))
            rng = random.Random(seed)
            start = Configuration(
                rng.randrange(machine.size), rng.randint(1, 3), Q.element(rng.randint(1, 5))
            )
            w = tuple(rng.choice(machine.alphabet.symbols) for _ in range(rng.randint(1, 8)))
            run = run_word(machine, start, w)
            if not run.ok or run.zero_test_positions():
                continue
            lifted = Configuration(start.state, start.counter + rng.randint(1, 4), Q.element(9))
            lifted_run = run_word(machine, lifted, w)
            assert lifted_run.ok
            assert [s.table for s in lifted_run.steps] == [s.table for s in run.steps]
            assert lifted_run.end.state == run.end.state


class TestRemoveIntervals:
    def test_middle(self):
        assert remove_intervals(word("abcde"), PumpingIntervals([(1, 2)])) == word("ade")

    def test_empty_list(self):
        assert remove_intervals(word("abc"), PumpingIntervals()) == word("abc")

    def test_two_intervals(self):
        assert remove_intervals(word("aaaa"), PumpingIntervals([(0, 1), (3, 3)])) == ("a",)

    def test_out_of_bounds(self):
        with pytest.raises(IntervalOutOfBounds):
            remove_intervals(word("ab"), PumpingIntervals([(1, 2)]))

    def test_overlap_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PumpingIntervals([(0, 2), (2, 3)])

    @pytest.mark.parametrize("interval", [(2, 1), (-1, 0)])
    def test_bad_interval_rejected_at_construction(self, interval):
        with pytest.raises(ValueError, match=rf"^bad interval \[{interval[0]}, {interval[1]}\]$"):
            PumpingIntervals([interval])

    def test_union_of_overlapping_lists_rejected(self):
        with pytest.raises(ValueError, match="^cannot merge overlapping interval lists$"):
            PumpingIntervals([(0, 2)]).union(PumpingIntervals([(2, 3)]))
        assert PumpingIntervals([(3, 3)]).union(PumpingIntervals([(0, 1)])) == PumpingIntervals([(0, 1), (3, 3)])

    @given(st.lists(st.sampled_from("ab"), max_size=12), st.data())
    def test_matches_position_filter(self, letters, data):
        w = tuple(letters)
        bounds = []
        cursor = 0
        while cursor < len(w):
            hi = data.draw(st.integers(min_value=cursor, max_value=len(w) - 1))
            if data.draw(st.booleans()):
                bounds.append((cursor, hi))
            cursor = hi + 2
        intervals = PumpingIntervals(bounds)
        removed = intervals.positions()
        assert remove_intervals(w, intervals) == tuple(
            s for i, s in enumerate(w) if i not in removed
        )


@pytest.fixture
def pump_machine(Q):
    """Two states; removal of the +1 self-loop at q1 drags a later step down
    to the counter-zero table."""
    return Dwroca(
        ["q0", "q1"],
        ["a", "b"],
        "q0",
        Q.one(),
        {
            ("q0", "a"): ("q1", 1, Q.one()),
            ("q1", "a"): ("q1", 1, Q.element(2)),
            ("q1", "b"): ("q1", 0, Q.element(3)),
        },
        {
            ("q1", "a"): ("q1", 1, Q.one()),
            ("q1", "b"): ("q1", -1, Q.one()),
        },
        {"q0": Q.one(), "q1": Q.one()},
    )


class TestCheckPumping:
    def test_empty_is_pumping(self, e1):
        start = e1.initial_configuration()
        assert check_pumping(e1, start, word("aaa"), PumpingIntervals())

    def test_non_loop_rejected(self, e2):
        start = e2.initial_configuration()
        # positions 0..1: q0 -> q1 -> q1; removing [0,0] would need q0 == q1
        assert not check_pumping(e2, start, word("aa"), PumpingIntervals([(0, 0)]))

    def test_forced_new_zero_test_rejected(self, pump_machine):
        start = pump_machine.initial_configuration()
        # word a a b b: counters 1,2,1,0; removing the +1 loop at position 1
        # replays b at counter 0, switching it to the zero-test table
        w = word("aabb")
        run = run_word(pump_machine, start, w)
        assert run.ok
        assert not check_pumping(pump_machine, start, w, PumpingIntervals([(1, 1)]))

    def test_loop_removal_after_zero_test_ok(self, e1):
        start = e1.initial_configuration()
        assert check_pumping(e1, start, word("aaa"), PumpingIntervals([(1, 1)]))
        assert check_pumping(e1, start, word("aaa"), PumpingIntervals([(1, 2)]))
        assert check_pumping(e1, start, word("aaa"), PumpingIntervals([(2, 2)]))

    def test_removing_last_zero_test_rejected(self, e1):
        start = e1.initial_configuration()
        assert not check_pumping(e1, start, word("aaa"), PumpingIntervals([(0, 0)]))
        assert not check_pumping(e1, start, word("aaa"), PumpingIntervals([(0, 2)]))

    def test_min_effect_may_not_drop(self, pump_machine):
        # from counter 5 the word a b b floats high above zero: effects 1, 0, -1
        start = Configuration(1, 5, Q.one())
        w = word("abb")
        run = run_word(pump_machine, start, w)
        assert run.ok
        # removing the leading +1 loop leaves effects -1, -2: same tables
        # everywhere (counters stay positive), but the minimum drops
        assert not check_pumping(pump_machine, start, w, PumpingIntervals([(0, 0)]))
        # from one row higher the same removal keeps enough headroom only for
        # the table choice; the minimum-effect clause is what rejects it
        residual = run_word(pump_machine, start, word("bb"))
        assert residual.ok
        assert all(s.table == PLUS_TABLE for s in residual.steps)

    def test_out_of_bounds(self, e1):
        with pytest.raises(IntervalOutOfBounds):
            check_pumping(e1, e1.initial_configuration(), word("aa"), PumpingIntervals([(0, 5)]))

    def test_undefined_run_rejected(self, Q):
        machine = Dwroca(["q0"], ["a"], "q0", Q.one(), {}, {}, {"q0": Q.one()})
        with pytest.raises(ValueError):
            check_pumping(machine, machine.initial_configuration(), word("a"), PumpingIntervals())


class TestValidate:
    def test_well_formed(self, e1):
        assert e1.validate() == []

    def test_zero_test_decrement(self, Q):
        machine = Dwroca(
            ["q0"], ["a"], "q0", Q.one(), {("q0", "a"): ("q0", -1, Q.one())}, {}, {"q0": Q.one()}
        )
        assert any("zero-test decrement" in v for v in machine.validate())

    def test_zero_transition_weight(self, Q):
        machine = Dwroca(
            ["q0"], ["a"], "q0", Q.one(), {}, {("q0", "a"): ("q0", 0, Q.zero())}, {"q0": Q.one()}
        )
        assert any("zero transition weight" in v for v in machine.validate())

    def test_zero_initial_weight(self, Q):
        machine = Dwroca(["q0"], ["a"], "q0", Q.zero(), {}, {}, {"q0": Q.one()})
        assert any("zero initial weight" in v for v in machine.validate())

    def test_mixed_fields_flagged(self, Q):
        machine = Dwroca(
            ["q0"],
            ["a"],
            "q0",
            Q.one(),
            {},
            {("q0", "a"): ("q0", 0, prime_field(7).element(2))},
            {"q0": Q.one()},
        )
        assert any("different field" in v for v in machine.validate())

    def test_delta1_effect_out_of_range(self, Q):
        machine = Dwroca(
            ["q0"], ["a"], "q0", Q.one(), {}, {("q0", "a"): ("q0", 2, Q.one())}, {"q0": Q.one()}
        )
        assert any("out of range" in v for v in machine.validate())

    def test_exact_messages_in_key_order(self, Q):
        # Tables are written out of key order, several entries break more
        # than one rule, and every kind of violation appears; the list is
        # pinned word for word. ``twin`` equals the machine's field but is a
        # different object, so its weights are valid.
        gf7, twin = prime_field(7), FieldSpec("rational")
        assert twin is not Q and twin == Q
        machine = Dwroca(
            ["p", "q", "r"],
            ["b", "a"],
            "p",
            Q.zero(),
            {
                ("r", "a"): ("p", 1, Q.one()),
                ("q", "b"): ("q", -1, Q.zero()),
                ("p", "a"): ("q", 2, gf7.element(3)),
                ("p", "b"): ("r", 0, twin.element(5)),
            },
            {
                ("r", "b"): ("p", True, 3),
                ("q", "a"): ("r", -2, twin.element(2)),
                ("p", "b"): ("p", -1, Q.element(2)),
                ("p", "a"): ("r", 1, Q.zero()),
            },
            {"p": twin.one(), "q": gf7.one(), "r": "1"},
        )
        assert machine.validate() == [
            "zero initial weight",
            "counter effect 2 out of range at delta0 (p, a)",
            "weight from a different field at delta0 (p, a)",
            "zero-test decrement at delta0 (q, b)",
            "zero transition weight at delta0 (q, b)",
            "zero transition weight at delta1 (p, a)",
            "counter effect -2 out of range at delta1 (q, a)",
            "counter effect True out of range at delta1 (r, b)",
            "non-element weight at delta1 (r, b)",
            "final weight of q from a different field",
            "final weight of r from a different field",
        ]

    def test_exact_messages_of_a_weighted_automaton(self, Q):
        gf7, twin = prime_field(7), FieldSpec("rational")
        machine = Dwa(
            ["s", "t"],
            ["x", "y"],
            {
                ("t", "y"): ("s", "2"),
                ("t", "x"): ("t", twin.element(4)),
                ("s", "y"): ("t", gf7.element(1)),
                ("s", "x"): ("s", Q.zero()),
            },
            {"s": Q.one(), "t": gf7.zero()},
            initial=("t", Q.zero()),
        )
        assert machine.validate() == [
            "zero initial weight",
            "zero transition weight at (s, x)",
            "weight from a different field at (s, y)",
            "non-element weight at (t, y)",
            "final weight of t from a different field",
        ]
        uninitialised = Dwa(["s"], ["x"], {("s", "x"): ("s", twin.one())}, {"s": twin.one()})
        assert uninitialised.validate() == []


class TestJson:
    def test_roundtrip(self, e2):
        doc = e2.to_json()
        again = Dwroca.from_json(json.loads(json.dumps(doc)))
        assert again.to_json() == doc

    def test_documented_shape(self, e1):
        doc = e1.to_json()
        assert set(doc) == {"field", "states", "alphabet", "initial", "delta0", "delta1", "final"}
        assert doc["field"] == {"kind": "rational"}
        assert doc["delta0"] == [
            {"from": "q0", "on": "a", "to": "q0", "ce": 1, "weight": "2"}
        ]
        assert doc["final"] == {"q0": "1"}

    def test_unknown_key_rejected(self, e1):
        doc = e1.to_json()
        doc["comment"] = "hello"
        with pytest.raises(ParseError):
            Dwroca.from_json(doc)

    def test_missing_key_rejected(self, e1):
        doc = e1.to_json()
        del doc["delta1"]
        with pytest.raises(ParseError):
            Dwroca.from_json(doc)

    def test_duplicate_transition_rejected(self, e1):
        doc = e1.to_json()
        doc["delta0"] = doc["delta0"] * 2
        with pytest.raises(ParseError):
            Dwroca.from_json(doc)

    def test_final_must_cover_all_states(self, e2):
        doc = e2.to_json()
        del doc["final"]["q1"]
        with pytest.raises(ParseError):
            Dwroca.from_json(doc)

    def test_non_integer_effect_rejected(self, e1):
        doc = e1.to_json()
        doc["delta0"][0]["ce"] = True
        with pytest.raises(ParseError):
            Dwroca.from_json(doc)

    def test_unknown_state_rejected(self, e1):
        doc = e1.to_json()
        doc["delta0"][0]["to"] = "nowhere"
        with pytest.raises(ParseError):
            Dwroca.from_json(doc)

    @pytest.mark.parametrize("key", ["from", "on", "to"])
    @pytest.mark.parametrize("value", [["q0"], {"q0": "a"}], ids=["list", "object"])
    def test_non_string_entry_names_rejected(self, e1, key, value):
        doc = e1.to_json()
        doc["delta1"][0][key] = value
        with pytest.raises(ParseError):
            Dwroca.from_json(doc)

    def test_gf_roundtrip(self):
        gf = prime_field(7)
        machine = Dwroca(
            ["s"], ["x"], "s", gf.element(3), {("s", "x"): ("s", 1, gf.element(5))}, {}, {"s": gf.element(2)}
        )
        doc = machine.to_json()
        assert doc["field"] == {"kind": "gf", "p": 7}
        assert Dwroca.from_json(doc).to_json() == doc

    def test_invalid_ce_parses_but_fails_validate(self, e1):
        doc = e1.to_json()
        doc["delta0"][0]["ce"] = -1
        machine = Dwroca.from_json(doc)
        assert any("zero-test decrement" in v for v in machine.validate())


class TestConstruction:
    def test_duplicate_states_rejected(self, Q):
        with pytest.raises(ValueError):
            Dwroca(["q", "q"], ["a"], "q", Q.one(), {}, {}, {"q": Q.one()})

    def test_unknown_initial_rejected(self, Q):
        with pytest.raises(ValueError):
            Dwroca(["q"], ["a"], "r", Q.one(), {}, {}, {"q": Q.one()})

    def test_missing_final_rejected(self, Q):
        with pytest.raises(ValueError):
            Dwroca(["q", "r"], ["a"], "q", Q.one(), {}, {}, {"q": Q.one()})

    @pytest.mark.parametrize("kind", [Dwroca, Dwa])
    def test_no_states_rejected(self, Q, kind):
        with pytest.raises(ValueError, match="^automaton needs at least one state$"):
            if kind is Dwroca:
                Dwroca([], ["a"], "q", Q.one(), {}, {}, {})
            else:
                Dwa([], ["a"], {}, {})

    @pytest.mark.parametrize("key, entry", [(("q", "a"), ("r", 0, Q.one())), (("r", "a"), ("q", 0, Q.one()))],
                             ids=["destination", "source"])
    def test_transition_naming_an_unknown_state_rejected(self, Q, key, entry):
        for delta0, delta1 in (({key: entry}, {}), ({}, {key: entry})):
            with pytest.raises(ValueError, match=rf"^transition \('{key[0]}', 'a'\) names an unknown state$"):
                Dwroca(["q"], ["a"], "q", Q.one(), delta0, delta1, {"q": Q.one()})
        with pytest.raises(ValueError, match=rf"^transition \('{key[0]}', 'a'\) names an unknown state$"):
            Dwa(["q"], ["a"], {key: (entry[0], entry[2])}, {"q": Q.one()})

    @pytest.mark.parametrize("kind", [Dwroca, Dwa])
    def test_unhashable_destination_names_an_unknown_state(self, Q, kind):
        # a list can never be a state, so it is the unknown-state ValueError, not a TypeError
        with pytest.raises(ValueError, match=r"^transition \('q', 'a'\) names an unknown state$"):
            if kind is Dwroca:
                Dwroca(["q"], ["a"], "q", Q.one(), {("q", "a"): (["q"], 0, Q.one())}, {}, {"q": Q.one()})
            else:
                Dwa(["q"], ["a"], {("q", "a"): (["q"], Q.one())}, {"q": Q.one()})

    @pytest.mark.parametrize("kind", [Dwroca, Dwa])
    def test_unhashable_initial_state_is_unknown(self, Q, kind):
        with pytest.raises(ValueError, match=r"^unknown initial state \['q'\]$"):
            if kind is Dwroca:
                Dwroca(["q"], ["a"], ["q"], Q.one(), {}, {}, {"q": Q.one()})
            else:
                Dwa(["q"], ["a"], {}, {"q": Q.one()}, (["q"], Q.one()))

    def test_unhashable_state_name_rejected(self, Q):
        with pytest.raises(ValueError, match=r"^state name \['r'\] is not hashable$"):
            Dwroca(["q", ["r"]], ["a"], "q", Q.one(), {}, {}, {"q": Q.one()})

    def test_negative_counter_configuration_rejected(self, Q):
        with pytest.raises(ValueError):
            Configuration(0, -1, Q.one())

    @pytest.mark.parametrize("weight", [1, "1"], ids=["int", "str"])
    def test_non_element_initial_weight_is_a_field_mismatch(self, Q, weight):
        # the initial weight fixes the machine's field, so it must have one
        with pytest.raises(FieldMismatch, match=f"^initial weight {weight!r} is not a field element$"):
            Dwroca(["q"], ["a"], "q", weight, {}, {}, {"q": Q.one()})

    @pytest.mark.parametrize("weight", [1, "1"], ids=["int", "str"])
    def test_non_element_configuration_weight_is_a_field_mismatch(self, Q, weight):
        # refused when built, before acceptance or a search reads it
        with pytest.raises(FieldMismatch, match=f"^configuration weight {weight!r} is not a field element$"):
            Configuration(0, 0, weight)


class TestStartState:
    """A configuration whose state is not one of the machine's is refused
    with a ValueError by every method that starts from one."""

    @pytest.mark.parametrize("state", [1, 99, -1])
    def test_refused_by_every_entry_point(self, e1, state):
        start = Configuration(state, 0, Q.one())
        calls = [
            lambda: e1.accept_weight((), start),
            lambda: e1.accept_weight(word("a"), start),
            lambda: e1.accept_weight_or_zero((), start),
            lambda: e1.accept_weight_or_zero(word("a"), start),
            lambda: run_word(e1, start, ()),
            lambda: run_word(e1, start, word("a")),
            lambda: e1.step(start, "a"),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=rf"^state {state} outside \[0, 0\]$"):
                call()
