"""What code can see of the immutable records on the decision path:
construction by position and keyword, field order, equality and hash,
repr, immutability, copying and pickling, and the two constructor checks."""

import copy
import pickle

import pytest

from wroca import (
    BoundReport,
    Configuration,
    CounterProfile,
    EquivalenceVerdict,
    RunStep,
    SearchStats,
    WaConfig,
    Witness,
    WitnessReplay,
    rational,
)

Q = rational()


class Scalar(int):
    """A weight that pickles: FieldSpec and FieldElement refuse
    ``copy.deepcopy`` and ``pickle`` themselves, so the round trips here
    carry these in the weight fields. Its repr is the int's, like a
    FieldElement's."""

    @property
    def is_zero(self):
        return self == 0


WITNESS = Witness(("a", "b"), Scalar(4), Scalar(6))
STATS = SearchStats(5, 3, 2)

# (record, field names in order, repr text); every field value is picklable
RECORDS = [
    (Configuration(1, 2, Scalar(8)), ("state", "counter", "weight"),
     "Configuration(state=1, counter=2, weight=8)"),
    (RunStep("a", 1, -1, Scalar(3)), ("symbol", "table", "counter_effect", "weight"),
     "RunStep(symbol='a', table=1, counter_effect=-1, weight=3)"),
    (CounterProfile((1, 0, -1), -1, 1, True), ("prefix_effects", "min_effect", "max_effect", "grounded"),
     "CounterProfile(prefix_effects=(1, 0, -1), min_effect=-1, max_effect=1, grounded=True)"),
    (WaConfig(2, Scalar(5)), ("state", "weight"), "WaConfig(state=2, weight=5)"),
    (WITNESS, ("word", "f1", "f2"), "Witness(word=('a', 'b'), f1=4, f2=6)"),
    (STATS, ("explored_words", "basis_size", "max_counter_row"),
     "SearchStats(explored_words=5, basis_size=3, max_counter_row=2)"),
    (EquivalenceVerdict(False, WITNESS, "bounded", 12, STATS), ("equivalent", "witness", "mode", "bound", "stats"),
     "EquivalenceVerdict(equivalent=False, witness=Witness(word=('a', 'b'), f1=4, f2=6), mode='bounded', "
     "bound=12, stats=SearchStats(explored_words=5, basis_size=3, max_counter_row=2))"),
    (WitnessReplay(Scalar(4), Scalar(6), "run1", "run2"), ("f1", "f2", "run1", "run2"),
     "WitnessReplay(f1=4, f2=6, run1='run1', run2='run2')"),
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
        for i in range(len(vals)):  # no sample field holds 99
            other = cls(*vals[:i], Scalar(99), *vals[i + 1:])
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
    assert SearchStats(1, 2, 3) != Configuration(1, 2, 3)
    assert Configuration(1, 2, 3) != SearchStats(1, 2, 3)


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
