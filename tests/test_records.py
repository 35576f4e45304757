"""What code can see of the package's immutable values.

The records of the decision path, and ``pumping``'s ``RunStep``:
construction by position and keyword, field order, equality and hash, repr,
and the two constructor checks. Every value, records and the other frozen
types alike: assignment and deletion are refused, and copies and pickles
round-trip. One base class carries the idiom, which a scan of the sources
pins."""

import ast
import copy
import json
import pickle
from pathlib import Path

import pytest

from wroca import (
    Alphabet,
    BoundReport,
    Configuration,
    Dwa,
    Dwroca,
    EquivalenceVerdict,
    LazyUnfolding,
    SearchStats,
    WaConfig,
    Witness,
    check_equivalence,
    prime_field,
    rational,
)
from wroca.fields import FieldElement, FieldSpec, _Frozen
from wroca.pumping import PumpingIntervals, Run, RunStep, run_word
from wroca.testkit import GeneratorConfig, generate

Q = rational()
GF7 = prime_field(7)

WITNESS = Witness(("a", "b"), Q.element(4), Q.element(6))
STATS = SearchStats(5, 3, 2)

# (record, field names in order, repr text)
RECORDS = [
    (Configuration(1, 2, Q.element(8)), ("state", "counter", "weight"),
     "Configuration(state=1, counter=2, weight=8)"),
    (RunStep("a", 1, -1, GF7.element(3)), ("symbol", "table", "counter_effect", "weight"),
     "RunStep(symbol='a', table=1, counter_effect=-1, weight=3)"),
    (WaConfig(2, Q.element("5/3")), ("state", "weight"), "WaConfig(state=2, weight=5/3)"),
    (WITNESS, ("word", "f1", "f2"), "Witness(word=('a', 'b'), f1=4, f2=6)"),
    (STATS, ("explored_words", "basis_size", "max_counter_row"),
     "SearchStats(explored_words=5, basis_size=3, max_counter_row=2)"),
    (EquivalenceVerdict(False, WITNESS, "bounded", 12, STATS), ("equivalent", "witness", "mode", "bound", "stats"),
     "EquivalenceVerdict(equivalent=False, witness=Witness(word=('a', 'b'), f1=4, f2=6), mode='bounded', "
     "bound=12, stats=SearchStats(explored_words=5, basis_size=3, max_counter_row=2))"),
    (BoundReport(2, 896, 96, 10, 20), ("k", "initial_space", "belt_thickness", "counter_bound", "witness_bound"),
     "BoundReport(k=2, initial_space=896, belt_thickness=96, counter_bound=10, witness_bound=20)"),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


def values(record, names):
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize("record, names, text", RECORDS, ids=IDS)
class TestRecord:
    def test_construction_by_position_and_keyword(self, record, names, text):
        cls, vals = type(record), values(record, names)
        assert cls(*vals) == record
        assert cls(**dict(zip(names, vals))) == record
        assert values(cls(**dict(zip(names, vals))), names) == vals

    def test_equality_and_hash(self, record, names, text):
        cls, vals = type(record), values(record, names)
        twin = cls(*vals)
        assert twin is not record and twin == record and not twin != record
        assert hash(twin) == hash(record)
        assert len({record, twin}) == 1
        for i, val in enumerate(vals):  # no sample field holds 99
            other = cls(*vals[:i], Q.element(99) if isinstance(val, FieldElement) else 99, *vals[i + 1:])
            assert other != record and not other == record

    def test_unequal_to_tuple_and_other_classes(self, record, names, text):
        vals = values(record, names)
        assert record != vals and vals != record
        subclass = type("Other", (type(record),), {})
        assert record != subclass(*vals) and subclass(*vals) != record

    def test_repr(self, record, names, text):
        assert repr(record) == text

    def test_fields_cannot_be_set_or_deleted(self, record, names, text):
        before = values(record, names)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 0
        assert values(record, names) == before

    def test_deepcopy_and_pickle_round_trips(self, record, names, text):
        for copied in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(copied) is type(record)
            assert copied == record and hash(copied) == hash(record)
            assert repr(copied) == text


def test_records_of_different_classes_with_equal_fields_differ():
    assert SearchStats(1, 2, Q.one()) != Configuration(1, 2, Q.one())
    assert Configuration(1, 2, Q.one()) != SearchStats(1, 2, Q.one())


@pytest.mark.parametrize("counter", [1.5, True, "1", None], ids=["float", "bool", "str", "none"])
def test_configuration_counter_is_an_int(counter):
    with pytest.raises(ValueError, match="is not an int"):
        Configuration(0, counter, Q.one())


def test_constructor_checks():
    with pytest.raises(ValueError, match="never negative"):
        Configuration(0, -1, Q.one())
    with pytest.raises(ValueError, match="never negative"):
        Configuration(state=0, counter=-1, weight=Q.one())
    with pytest.raises(ValueError, match="nonzero"):
        WaConfig(0, Q.zero())
    with pytest.raises(ValueError, match="nonzero"):
        WaConfig(state=0, weight=Q.zero())
    assert Configuration(0, 0, Q.one()).counter == 0
    assert WaConfig(0, Q.element(-1)).weight == Q.element(-1)


E1_LOOP = {("q0", "a"): ("q0", 1, Q.element(2))}
E1 = Dwroca(["q0"], ["a"], "q0", Q.one(), E1_LOOP, dict(E1_LOOP), {"q0": Q.one()})
GF_DWA = Dwa(
    ["p", "q"],
    ["a", "b"],
    {("p", "a"): ("q", GF7.element(3)), ("q", "b"): ("p", GF7.element(6))},
    {"p": GF7.one(), "q": GF7.element(5)},
    ("p", GF7.element(2)),
)


def same(value):
    return value


# (frozen value other than a record, what its copies must equal)
VALUES = [
    (Q, same),
    (GF7, same),
    (Q.element("-3/4"), same),
    (GF7.element(5), same),
    (Alphabet(["a", "b"]), lambda alphabet: (alphabet.symbols, alphabet._index)),
    (PumpingIntervals([(0, 1), (3, 4)]), same),
    (run_word(E1, E1.initial_configuration(), ["a", "a"]), lambda run: (run.configurations, run.steps, run.stuck_at)),
    (E1, Dwroca.to_json),
    (GF_DWA, Dwa.to_json),
    (
        LazyUnfolding(E1, 3),
        lambda view: (view.automaton.to_json(), view.bound),
    ),
]
VALUE_IDS = ["rational", "gf7", "rational-element", "gf7-element", "Alphabet", "PumpingIntervals", "Run",
             "Dwroca", "Dwa", "LazyUnfolding"]


@pytest.mark.parametrize("value, key", VALUES, ids=VALUE_IDS)
class TestFrozenValue:
    def test_slots_cannot_be_set_or_deleted(self, value, key):
        before = key(value)
        for name in type(value).__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 0
        assert key(value) == before

    def test_copy_deepcopy_and_pickle_round_trips(self, value, key):
        for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(copied) is type(value)
            assert key(copied) == key(value)
            with pytest.raises(AttributeError):
                copied.extra = 0


def test_rational_spec_stays_the_shared_instance():
    # the search's ``spec is field`` fast paths need the one rational spec
    assert copy.copy(Q) is Q and copy.deepcopy(Q) is Q
    assert pickle.loads(pickle.dumps(rational())) is rational()
    assert pickle.loads(pickle.dumps(Q.element(3))).spec is Q
    assert copy.deepcopy(E1).field is Q


def test_gf_spec_stays_the_shared_instance():
    # prime_field keeps one spec per prime, and a restored spec comes back through it
    assert pickle.loads(pickle.dumps(GF7)) is GF7 and copy.deepcopy(GF7) is GF7
    assert pickle.loads(pickle.dumps(GF7.element(3))).spec is GF7


def test_restored_gf_machine_shares_one_spec():
    for restored in (copy.deepcopy(GF_DWA), pickle.loads(pickle.dumps(GF_DWA))):
        assert restored.field == GF7
        assert all(weight.spec is restored.field for weight in restored.final_weights)
        assert restored.initial[1].spec is restored.field


@pytest.mark.parametrize("restore", [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
                         ids=["copy", "deepcopy", "pickle"])
def test_every_restored_value_names_the_one_spec(restore, e1, e1p):
    assert restore(FieldSpec("gf", 7)) is GF7 and restore(FieldSpec("rational")) is Q
    assert restore(GF7.element(3)).spec is GF7 and restore(Q.element(3)).spec is Q
    assert restore(GF_DWA).field is GF7 and restore(e1).field is Q
    witness = restore(check_equivalence(e1, e1p)).witness
    assert witness.f1.spec is witness.f2.spec is Q


def test_verdict_with_a_witness_copies_and_pickles(e1, e1p):
    verdict = check_equivalence(e1, e1p)
    assert verdict.witness is not None
    for copied in (copy.deepcopy(verdict), pickle.loads(pickle.dumps(verdict))):
        assert copied == verdict and copied.to_json() == verdict.to_json()


@pytest.mark.parametrize("field", [Q, GF7], ids=["q", "gf7"])
def test_restored_machines_give_byte_identical_verdicts(field):
    witnesses = 0
    for seed in range(30):
        pair = tuple(generate(GeneratorConfig(seed=s, field=field)) for s in (seed, 500 + seed))
        expected = json.dumps(check_equivalence(*pair, 12).to_json(), indent=2)
        for restored in (pickle.loads(pickle.dumps(pair)), copy.deepcopy(pair)):
            assert json.dumps(check_equivalence(*restored, 12).to_json(), indent=2) == expected
        witnesses += '"witness"' in expected
    assert witnesses > 0


def test_no_frozen_value_has_an_instance_dict():
    values = [value for value, _ in VALUES] + [record for record, _, _ in RECORDS]
    frozen_types = {FieldSpec, FieldElement, Alphabet, PumpingIntervals, Run, Dwroca, Dwa, LazyUnfolding}
    assert frozen_types <= set(map(type, values))
    for value in values:
        assert isinstance(value, _Frozen) and not hasattr(value, "__dict__"), type(value).__name__


def test_one_immutability_idiom():
    # One base class refuses assignment and deletion, and every constructor
    # sets its slots through the one binding of object.__setattr__.
    package = Path(__file__).resolve().parents[1] / "src" / "wroca"
    setattr_defs, setattr_uses, freezes = [], [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "__setattr__":
                setattr_defs.append(path.name)
            elif isinstance(node, ast.Attribute) and node.attr == "__setattr__":
                setattr_uses.append(path.name)
            if "_freeze" in (getattr(node, "name", None), getattr(node, "id", None), getattr(node, "attr", None)):
                freezes.append(f"{path.name}:{node.lineno}")
    assert setattr_defs == ["fields.py"]
    assert setattr_uses == ["fields.py"]
    assert freezes == []
