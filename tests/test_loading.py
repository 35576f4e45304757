"""Loading machines from JSON: exact error messages on broken documents,
and the same machine as the constructor builds on valid ones."""

import copy
import hashlib
import json
import random
import sys
import threading

import pytest

from wroca import Dwa, Dwroca, prime_field, rational, underlying_wa
from wroca import core
from wroca.testkit import GeneratorConfig, generate

Q = rational()
GF7 = prime_field(7)
GF_BIG = prime_field(2**31 - 1)


def outcome(cls, doc) -> str:
    """``ok`` and the machine's JSON, or the error's type and message."""
    try:
        machine = cls.from_json(doc)
    except Exception as exc:  # the type is part of what is pinned
        return f"{type(exc).__name__}: {exc}"
    return "ok " + json.dumps(machine.to_json(), sort_keys=True)


def e1_doc():
    return {
        "field": {"kind": "rational"},
        "states": ["q0"],
        "alphabet": ["a"],
        "initial": {"state": "q0", "weight": "1"},
        "delta0": [{"from": "q0", "on": "a", "to": "q0", "ce": 1, "weight": "2"}],
        "delta1": [{"from": "q0", "on": "a", "to": "q0", "ce": 1, "weight": "2"}],
        "final": {"q0": "1"},
    }


def e2_doc():
    return {
        "field": {"kind": "rational"},
        "states": ["q0", "q1"],
        "alphabet": ["a"],
        "initial": {"state": "q0", "weight": "1"},
        "delta0": [
            {"from": "q0", "on": "a", "to": "q1", "ce": 1, "weight": "4"},
            {"from": "q1", "on": "a", "to": "q1", "ce": 1, "weight": "2"},
        ],
        "delta1": [{"from": "q1", "on": "a", "to": "q1", "ce": 1, "weight": "2"}],
        "final": {"q0": "1", "q1": "1/2"},
    }


def dwa_doc():
    return {
        "field": {"kind": "rational"},
        "states": ["q0"],
        "alphabet": ["a"],
        "initial": {"state": "q0", "weight": "1"},
        "delta": [{"from": "q0", "on": "a", "to": "q0", "weight": "2"}],
        "final": {"q0": "1"},
    }


def edited(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


# The malformed inputs of test_core.py, test_dwa.py and test_cli.py, with
# the message each gets. A message is part of the CLI's output, so a change
# to the loader leaves every one byte-identical.
PINNED = [
    (Dwroca, e1_doc, lambda d: d.update(comment="hello"), "ParseError: unknown key(s) in automaton: ['comment']"),
    (Dwroca, e1_doc, lambda d: d.pop("delta1"), "ParseError: missing key(s) in automaton: ['delta1']"),
    (
        Dwroca,
        e1_doc,
        lambda d: d.update(delta0=d["delta0"] * 2),
        "ParseError: duplicate delta0 transition for ('q0', 'a')",
    ),
    (
        Dwroca,
        e2_doc,
        lambda d: d["final"].pop("q1"),
        "ParseError: final must assign a weight to exactly the declared states",
    ),
    (
        Dwroca,
        e1_doc,
        lambda d: d["delta0"][0].update(ce=True),
        "ParseError: delta0 entry counter effect must be an integer",
    ),
    (
        Dwroca,
        e1_doc,
        lambda d: d["delta0"][0].update(to="nowhere"),
        "ParseError: delta0 entry names unknown state: "
        "{'from': 'q0', 'on': 'a', 'to': 'nowhere', 'ce': 1, 'weight': '2'}",
    ),
    (
        Dwroca,
        e1_doc,
        lambda d: d["delta1"][0].update({"from": ["q0"]}),
        "ParseError: delta1 entry from/on/to must be strings: "
        "{'from': ['q0'], 'on': 'a', 'to': 'q0', 'ce': 1, 'weight': '2'}",
    ),
    (
        Dwroca,
        e1_doc,
        lambda d: d["delta1"][0].update(on={"q0": "a"}),
        "ParseError: delta1 entry from/on/to must be strings: "
        "{'from': 'q0', 'on': {'q0': 'a'}, 'to': 'q0', 'ce': 1, 'weight': '2'}",
    ),
    (
        Dwroca,
        e1_doc,
        lambda d: d["delta0"][0].update(on=["a"]),
        "ParseError: delta0 entry from/on/to must be strings: "
        "{'from': 'q0', 'on': ['a'], 'to': 'q0', 'ce': 1, 'weight': '2'}",
    ),
    (Dwroca, e1_doc, lambda d: d["initial"].update(state=["q0"]), "ParseError: initial state ['q0'] is not a state"),
    (Dwroca, e1_doc, lambda d: d["delta0"][0].update(weight=3), "ParseError: element must be a string, got int"),
    (Dwroca, e1_doc, lambda d: d["delta0"][0].update(weight=[1]), "ParseError: element must be a string, got list"),
    (Dwroca, e1_doc, lambda d: d["delta0"][0].update(weight="1/0"), "ParseError: zero denominator in '1/0'"),
    # int() converts at most 4,300 digits (sys.get_int_max_str_digits())
    (
        Dwroca,
        e1_doc,
        lambda d: d["initial"].update(weight="1" * 5000),
        "ParseError: element of 5000 characters has more digits than the limit of 4300",
    ),
    (
        Dwroca,
        e1_doc,
        lambda d: d["final"].update(q0="1/" + "3" * 4301),
        "ParseError: element of 4303 characters has more digits than the limit of 4300",
    ),
    (
        Dwa,
        dwa_doc,
        lambda d: (d.update(field={"kind": "gf", "p": 7}), d["delta"][0].update(weight=" -" + "2" * 4400)),
        "ParseError: element of 4401 characters has more digits than the limit of 4300",
    ),
    (Dwa, dwa_doc, lambda d: d.update(ce=1), "ParseError: unknown key(s) in weighted automaton: ['ce']"),
    (
        Dwa,
        dwa_doc,
        lambda d: d.update(states=[], final={}),
        "ParseError: states must be a non-empty list of distinct names",
    ),
    (
        Dwa,
        dwa_doc,
        lambda d: d.update(states=["q0", "q0"], final={"q0": "1"}),
        "ParseError: states must be a non-empty list of distinct names",
    ),
    (Dwa, dwa_doc, lambda d: d["delta"][0].update(ce=1), "ParseError: unknown key(s) in delta entry: ['ce']"),
    (
        Dwa,
        dwa_doc,
        lambda d: d["delta"][0].update(to={"q0": "a"}),
        "ParseError: delta entry from/on/to must be strings: "
        "{'from': 'q0', 'on': 'a', 'to': {'q0': 'a'}, 'weight': '2'}",
    ),
    (Dwa, dwa_doc, lambda d: d.update(field={"kind": "gf", "p": 8}), "ParseError: GF modulus must be prime, got 8"),
]


@pytest.mark.parametrize("cls, base, edit, message", PINNED)
def test_pinned_parse_errors(cls, base, edit, message):
    assert outcome(cls, edited(base(), edit)) == message


# -- a seeded corpus of broken documents -----------------------------------

NAMES = ["q0", "zz", "", 3, None, ["q0"], {"q0": "a"}]  # names: known, unknown, non-string
TEXTS = ["1", "-2", "1/2", " 3 ", "", "x", "1/0", "0", "1.5", "2e3", "1//2", 3, [1], None, 1.5, True]
EFFECTS = [True, False, 1.0, "1", None, 2, -1, 0]
FIELDS = [
    {"kind": "gf", "p": 8},
    {"kind": "gf", "p": True},
    {"kind": "gf", "p": 7.0},
    {"kind": "gf"},
    {"kind": "real"},
    {"kind": "rational", "p": 7},
    "rational",
    {"kind": "gf", "p": 7},
]


def break_once(rng, doc, tables):
    """One fault, at a random place of ``doc``."""
    lists = [key for key in tables if isinstance(doc.get(key), list)]
    entries = [e for key in lists for e in doc[key] if isinstance(e, dict)]
    fault = rng.randrange(14)
    if fault == 0:  # a top-level key dropped or added
        if rng.random() < 0.5 and doc:
            doc.pop(rng.choice(sorted(doc)))
        else:
            doc[rng.choice(["comment", "initial", "delta", "delta0", "ce"])] = []
    elif fault == 1 and entries:  # an entry key dropped or added
        entry = rng.choice(entries)
        if rng.random() < 0.5:
            entry.pop(rng.choice(sorted(entry)))
        else:
            entry[rng.choice(["ce", "note", "weight"])] = "1"
    elif fault == 2 and entries:  # a name: unknown state or symbol, non-string, unhashable
        rng.choice(entries)[rng.choice(["from", "on", "to"])] = rng.choice(NAMES + ["b", "a"])
    elif fault == 3 and isinstance(doc.get("initial"), dict):
        doc["initial"][rng.choice(["state", "weight", "extra"])] = rng.choice(NAMES + TEXTS)
    elif fault == 4 and entries:  # a duplicate transition, possibly to elsewhere
        twin = dict(rng.choice(entries))
        twin["weight"] = rng.choice(TEXTS)
        table = doc[rng.choice(lists)]
        table.insert(rng.randrange(len(table) + 1), twin)
    elif fault == 5 and entries:  # a malformed or non-string weight
        rng.choice(entries)["weight"] = rng.choice(TEXTS)
    elif fault == 6 and entries:  # a bad counter effect
        rng.choice(entries)["ce"] = rng.choice(EFFECTS)
    elif fault == 7 and isinstance(doc.get("final"), dict):
        final = doc["final"]
        choice = rng.randrange(3)
        if choice == 0 and final:
            final.pop(rng.choice(sorted(final)))
        elif choice == 1:
            final[rng.choice(["zz", "q0", ""])] = rng.choice(TEXTS)
        elif final:
            final[rng.choice(sorted(final))] = rng.choice(TEXTS)
    elif fault == 8:
        doc["field"] = rng.choice(FIELDS)
    elif fault == 9:  # the state list: empty, repeated, non-string, not a list
        doc["states"] = rng.choice([[], ["q0", "q0"], ["q0", 1], "q0", ["q0", ["q1"]], doc.get("states", [])[::-1]])
    elif fault == 10:
        doc["alphabet"] = rng.choice([[], ["a", "a"], ["a", ""], "a", ["a", 2], ["b", "a"]])
    elif fault == 11 and tables[-1] in doc:
        doc[tables[-1]] = rng.choice([{}, "x", [1], [[]], None])
    elif fault == 12:
        doc["final"] = rng.choice([[], "1", None, {}])
    elif fault == 13:
        doc["initial"] = rng.choice([None, [], "q0", {"state": "q0"}, {"state": "q0", "weight": "1", "x": 1}])


def corpus():
    """``(cls, document)`` pairs: valid documents of both kinds over Q and
    GF(7), each with one to three faults."""
    rng = random.Random(4711)
    docs = []
    for i in range(600):
        field = (Q, GF7)[i % 2]
        machine = generate(GeneratorConfig(seed=rng.randrange(2**32), field=field))
        if i % 3 == 2:
            wa = underlying_wa(machine)
            if i % 2:
                wa = wa.with_initial(0, field.one())
            cls, doc, tables = Dwa, wa.to_json(), ("delta",)
        else:
            cls, doc, tables = Dwroca, machine.to_json(), ("delta0", "delta1")
        for _ in range(rng.choice([1, 1, 2, 3])):
            break_once(rng, doc, tables)
        docs.append((cls, doc))
    docs.append((Dwroca, edited(e1_doc(), lambda d: d.update(field={"kind": "gf", "p": 8}))))
    docs.append((Dwa, "not an object"))
    return docs


def test_seeded_corpus_of_broken_documents():
    lines = [outcome(cls, doc) for cls, doc in corpus()]
    kinds = {line.split(":")[0] if not line.startswith("ok ") else "ok" for line in lines}
    assert kinds == {"ok", "ParseError"}
    assert sum(line.startswith("ParseError") for line in lines) > 500
    assert len(lines) == 602
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "3d6dc5e552706e11e51aa68e17534a50422d0fffdde03c79b1e9f8f2a5c30cd2"


# -- valid documents -------------------------------------------------------


def same_machine(loaded, built, slots):
    for slot in slots:
        assert getattr(loaded, slot) == getattr(built, slot), slot
    assert loaded.to_json() == built.to_json()
    assert loaded.validate() == built.validate()


@pytest.mark.parametrize("field", [Q, GF7, GF_BIG], ids=["q", "gf7", "gf_big"])
def test_loaded_machine_matches_the_constructed_one(field):
    rng = random.Random(field.modulus or 0)
    for _ in range(170):
        cfg = GeneratorConfig(seed=rng.randrange(2**32), field=field, alphabet_size=(1, 3), num_states=(1, 5))
        machine = generate(cfg)
        same_machine(Dwroca.from_json(machine.to_json()), machine, Dwroca.__slots__)
        wa = underlying_wa(machine)
        for copy_ in (wa, wa.with_initial(rng.randrange(wa.size), field.element(rng.randrange(1, 5)))):
            same_machine(Dwa.from_json(copy_.to_json()), copy_, Dwa.__slots__)


def test_documents_that_break_validation_still_load():
    doc = e2_doc()
    doc["delta0"][0]["weight"] = "0"
    doc["delta0"][1]["ce"] = 2
    doc["delta1"][0]["ce"] = -2
    doc["initial"]["weight"] = "0"
    doc["delta0"].append({"from": "q1", "on": "b", "to": "q0", "ce": -1, "weight": "3"})
    doc["alphabet"] = ["a", "b"]
    machine = Dwroca.from_json(doc)
    assert machine.validate() == [
        "zero initial weight",
        "zero transition weight at delta0 (q0, a)",
        "counter effect 2 out of range at delta0 (q1, a)",
        "zero-test decrement at delta0 (q1, b)",
        "counter effect -2 out of range at delta1 (q1, a)",
    ]
    wa_doc = dwa_doc()
    wa_doc["delta"][0]["weight"] = "0"
    assert Dwa.from_json(wa_doc).validate() == ["zero transition weight at (q0, a)"]


# -- unknown keys of mixed types --------------------------------------------
# JSON text gives only string keys; a library caller's dict may mix types.

MIXED_KEYS = [
    (Dwroca, e1_doc, lambda d: d.update({1: "x", "zz": 1}), "ParseError: unknown key(s) in automaton: [1, 'zz']"),
    (Dwroca, e1_doc, lambda d: d["initial"].update({2: 0, "x": 1}), "ParseError: unknown key(s) in initial: [2, 'x']"),
    (
        Dwa,
        dwa_doc,
        lambda d: d["delta"][0].update({None: 1, "note": 2}),
        "ParseError: unknown key(s) in delta entry: [None, 'note']",
    ),
]


@pytest.mark.parametrize("cls, base, edit, message", MIXED_KEYS, ids=["top_level", "initial", "entry"])
def test_mixed_type_unknown_keys_are_a_parse_error(cls, base, edit, message):
    assert outcome(cls, edited(base(), edit)) == message


# -- weight texts -----------------------------------------------------------


def with_weight(text, field=None):
    """``e1_doc`` with ``text`` as the delta0 weight, over ``field`` if given."""
    def edit(doc):
        doc["delta0"][0]["weight"] = text
        if field is not None:
            doc["field"] = field.to_json()

    return edited(e1_doc(), edit)


@pytest.mark.parametrize("text", ["３", "١/٢"], ids=["fullwidth_3", "arabic_1_2"])
@pytest.mark.parametrize("field, what", [(Q, "rational"), (GF7, "GF(7) element")], ids=["q", "gf7"])
def test_non_ascii_digits_are_refused(text, field, what):
    assert outcome(Dwroca, with_weight(text, field)) == f"ParseError: malformed {what} {text!r}"


@pytest.mark.parametrize("text", ["3\u3000", "\u00a03", "3\x1c"], ids=["ideographic", "nbsp", "separator"])
@pytest.mark.parametrize("field, what", [(Q, "rational"), (GF7, "GF(7) element")], ids=["q", "gf7"])
def test_non_ascii_whitespace_is_refused(text, field, what):
    assert outcome(Dwroca, with_weight(text, field)) == f"ParseError: malformed {what} {text!r}"


def test_one_text_is_read_in_each_field():
    for field, value in ((Q, 3), (GF7, 3), (prime_field(11), 3), (Q, 3)):
        weight = Dwroca.from_json(with_weight("3", field)).delta0[0, 0][2]
        assert weight == field.element(value) and weight.spec == field


def test_a_text_read_in_one_field_is_still_refused_in_another():
    assert Dwroca.from_json(with_weight("1/2", Q)).delta0[0, 0][2] == Q.element("1/2")
    assert outcome(Dwroca, with_weight("1/2", GF7)) == "ParseError: malformed GF(7) element '1/2'"


def test_refused_weights_stay_refused():
    for _ in range(2):
        assert outcome(Dwroca, with_weight("1/0")) == "ParseError: zero denominator in '1/0'"
    Dwroca.from_json(with_weight("3"))
    assert outcome(Dwroca, with_weight(3)) == "ParseError: element must be a string, got int"


def test_documents_loaded_in_turn_share_elements_and_field():
    for field in (Q, GF7):
        first, second = (Dwroca.from_json(with_weight("5", field)) for _ in range(2))
        assert first.delta0[0, 0][2] is second.delta0[0, 0][2]
        assert first.field is second.field is first.initial_weight.spec


def test_memo_stays_within_its_caps():
    """Texts past the cap, in one document and over more fields than the
    memo keeps: the memo stays bounded and the machines still load right."""
    n = core._MEMO_TEXTS + 50
    states = [f"q{i}" for i in range(n)]
    finals = {name: Q.element(i + 1) for i, name in enumerate(states)}
    built = Dwroca(states, ["a"], "q0", Q.one(), {}, {}, finals)
    same_machine(Dwroca.from_json(built.to_json()), built, Dwroca.__slots__)
    assert len(core._memos[Q]) <= core._MEMO_TEXTS
    long_text = "0" * core._MEMO_TEXT_LEN + "7"
    assert Dwroca.from_json(with_weight(long_text)).delta0[0, 0][2] == Q.element(7)
    assert long_text not in core._memos[Q]
    primes = [p for p in range(3, 200) if all(p % d for d in range(2, p))][: core._MEMO_FIELDS + 3]
    for p in primes:
        field = prime_field(p)
        built = generate(GeneratorConfig(seed=p, field=field))
        same_machine(Dwroca.from_json(built.to_json()), built, Dwroca.__slots__)
        assert len(core._memos) <= core._MEMO_FIELDS


def test_threads_sharing_the_memo_load_right(monkeypatch):
    """Threads loading at once, with caps so small that the memos are
    emptied all the time, still read every weight in its own field."""
    monkeypatch.setattr(core, "_MEMO_TEXTS", 2)
    monkeypatch.setattr(core, "_MEMO_FIELDS", 1)
    fields = (Q, GF7, prime_field(11))
    texts = [str(i) for i in range(1, 8)]
    wrong = []

    def load(k):
        for i in range(150):
            field, text = fields[(i + k) % 3], texts[(i * k) % 7]
            weight = Dwroca.from_json(with_weight(text, field)).delta0[0, 0][2]
            if weight != field.element(text) or weight.spec != field:
                wrong.append((field, text, weight))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=load, args=(k,)) for k in range(1, 5)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert wrong == []
