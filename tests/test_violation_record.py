"""The violations a Dwroca records when it is built.

Every way of building a machine records what a fresh ``core._violations``
pass finds in it, valid or not; ``validate`` hands out a copy of that
record; and once the machines exist, no decision path walks a table to
validate them again.
"""

import copy
import io
import json
import pickle
from contextlib import redirect_stderr, redirect_stdout

import pytest

from wroca import Dwroca, InvalidAutomaton, check_equivalence, prime_field, rational, unfold
from wroca import core
from wroca.cli import main
from wroca.testkit import GeneratorConfig, generate, split_state

Q, GF7, GF_BIG = rational(), prime_field(7), prime_field(2**31 - 1)


def fresh(machine):
    """What a new validation pass finds in ``machine``."""
    tables = (("delta0 ", machine.delta0, (0, 1)), ("delta1 ", machine.delta1, (-1, 0, 1)))
    return core._violations(machine, machine.initial_weight, tables)


def parts(machine):
    """Constructor arguments, name-keyed, that rebuild ``machine``."""
    s, a = machine.states, machine.alphabet.symbols

    def named(table):
        return {(s[p], a[x]): (s[d], e, w) for (p, x), (d, e, w) in table.items()}

    return dict(
        states=s,
        alphabet=a,
        initial_state=s[machine.initial_state],
        initial_weight=machine.initial_weight,
        delta0=named(machine.delta0),
        delta1=named(machine.delta1),
        final_weights=dict(zip(s, machine.final_weights)),
    )


def set_entry(table, *, effect=None, weight=None):
    """Change the effect or the weight of the table's first entry."""
    key = min(table)
    dst, old_effect, old_weight = table[key]
    table[key] = (dst, old_effect if effect is None else effect, old_weight if weight is None else weight)


def zero_step_weight(p):
    set_entry(p["delta1"], weight=p["initial_weight"].spec.zero())


def zero_initial_weight(p):
    p["initial_weight"] = p["initial_weight"].spec.zero()


def effect_out_of_range(p):
    set_entry(p["delta1"], effect=2)


def zero_test_decrement(p):
    set_entry(p["delta0"], effect=-1)


def weight_from_another_field(p):
    other = GF7 if p["initial_weight"].spec == Q else Q
    set_entry(p["delta0"], weight=other.element(3))


BREAKERS = [None, zero_step_weight, zero_initial_weight, effect_out_of_range, zero_test_decrement,
            weight_from_another_field]
BREAKER_IDS = ["valid", "zero-step-weight", "zero-initial-weight", "effect-out-of-range",
               "zero-test-decrement", "weight-from-another-field"]


def seeded(field, seed, breaker):
    """A seeded machine with entries in both tables, broken by ``breaker``."""
    machine = generate(GeneratorConfig(seed=seed, field=field, num_states=(1, 4), alphabet_size=(1, 3),
                                       density=1.0))
    if breaker is None:
        return machine
    p = parts(machine)
    breaker(p)
    return Dwroca(**p)


@pytest.fixture
def counted(monkeypatch):
    """The machines ``core._violations`` is called on from now on."""
    calls = []
    original = core._violations

    def counting(machine, *rest):
        calls.append(machine)
        return original(machine, *rest)

    monkeypatch.setattr(core, "_violations", counting)
    return calls


@pytest.mark.parametrize("field", [Q, GF7, GF_BIG], ids=["q", "gf7", "gf_big"])
@pytest.mark.parametrize("breaker", BREAKERS, ids=BREAKER_IDS)
def test_every_way_of_building_records_a_fresh_pass(field, breaker):
    for seed in range(12):
        machine = seeded(field, seed, breaker)
        assert bool(machine.validate()) == (breaker is not None)
        built = [
            machine,
            Dwroca(**parts(machine)),
            Dwroca.from_json(json.loads(json.dumps(machine.to_json()))),
            copy.copy(machine),
            copy.deepcopy(machine),
            pickle.loads(pickle.dumps(machine)),
            split_state(machine, seed),
        ]
        for value in built:
            assert value._violations == tuple(fresh(value))
            assert value.validate() == fresh(value)


def test_copies_carry_the_record(counted):
    machine = seeded(Q, 3, zero_test_decrement)
    counted.clear()
    for value in (copy.copy(machine), copy.deepcopy(machine), pickle.loads(pickle.dumps(machine))):
        assert value._violations == machine._violations
    assert counted == []


def test_validate_returns_a_new_list():
    machine = seeded(Q, 5, zero_initial_weight)
    first, second = machine.validate(), machine.validate()
    assert first == second == fresh(machine) and first is not second
    first.append("not a violation")
    second.clear()
    assert machine.validate() == fresh(machine)


def test_building_makes_one_pass(counted):
    machine = generate(GeneratorConfig(seed=1))
    loaded = Dwroca.from_json(machine.to_json())
    assert counted == [machine, loaded]


def broken_e1(e1):
    doc = e1.to_json()
    doc["delta0"][0]["ce"] = -1
    return doc


def test_decisions_walk_no_table(e1, e1p, e2, counted):
    assert not check_equivalence(e1, e1p, 12).equivalent
    assert check_equivalence(e1, e2).equivalent
    unfold(e1, 3)
    assert counted == []


def test_an_invalid_machine_still_raises_the_same_messages(e1, counted):
    broken = Dwroca.from_json(broken_e1(e1))
    counted.clear()
    expected = "zero-test decrement at delta0 (q0, a)"
    with pytest.raises(InvalidAutomaton) as left:
        check_equivalence(broken, e1)
    with pytest.raises(InvalidAutomaton) as right:
        check_equivalence(e1, broken, 12)
    with pytest.raises(InvalidAutomaton) as unfolded:
        unfold(broken, 2)
    assert left.value.violations == [f"left: {expected}"]
    assert right.value.violations == [f"right: {expected}"]
    assert unfolded.value.violations == [expected]
    assert counted == []


def test_cli_validates_each_file_once_and_names_the_invalid_one(tmp_path, e1, counted):
    good, bad = tmp_path / "e1.json", tmp_path / "broken.json"
    good.write_text(json.dumps(e1.to_json()))
    bad.write_text(json.dumps(broken_e1(e1)))
    message = f"error: invalid automaton: {bad}: zero-test decrement at delta0 (q0, a)\n"
    for files in ((bad, good), (good, bad)):
        counted.clear()
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["equiv", *map(str, files)])
        assert (code, err.getvalue()) == (2, message)
        assert len(counted) == 2
