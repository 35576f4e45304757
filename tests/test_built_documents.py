"""The documents of the machines the library builds from other machines.

``generate``, ``split_state``, ``underlying_wa`` (initialised by
``with_initial``) and ``unfold`` build their tables on state and symbol
indices and name only the states they add. Each digest below is the sha256
of 25 seeded machines' documents, ``json.dumps(m.to_json(),
sort_keys=True)`` one per line, so a change to how any builder names,
orders, weighs or draws its states shows up here as a diff. The verdict
digests pin only verdicts; these pin the machines.
"""

import hashlib
import json

import pytest

from wroca import prime_field, rational, underlying_wa, unfold
from wroca.testkit import GeneratorConfig, generate, split_state

FIELDS = {"q": rational(), "gf7": prime_field(7), "gf_big": prime_field(2**31 - 1)}

BUILDERS = {
    "generate": lambda machine, seed: machine,
    "split_state": lambda machine, seed: split_state(machine, seed),
    "underlying_wa": lambda machine, seed: underlying_wa(machine).with_initial(
        seed % machine.size, machine.initial_weight
    ),
    "unfold": lambda machine, seed: unfold(machine, 3),
}

DIGESTS = {
    ("generate", "q"): "b6f29a77d5afa2b028054405d414e51861b167918bb5abf8b9001f62f10b4e80",
    ("generate", "gf7"): "37a2a656fd714e334cea749f7a1690fb79b18fd443949401fa89385cf65b492c",
    ("generate", "gf_big"): "d1b757dc458b035db5f430a05a32a60ceccd844db964140d7f242fa9c29a0a0e",
    ("split_state", "q"): "aaa3fd1b6696d677d61b89fecf1429725ad70312e9beaa7d0f8a9bc5fd5ea575",
    ("split_state", "gf7"): "497d750541b7e722a3094a415cb230e0dac921a9a8966bc1dc181ab37ae2865e",
    ("split_state", "gf_big"): "2e97f9ff15244ce21bea8429fb0a302e95262fb289cd5a107e0ee1fa10172149",
    ("underlying_wa", "q"): "dfcc8da3156d7855df1896c450ee1c5615fbea73545f6208f893b38be3d7bafc",
    ("underlying_wa", "gf7"): "411b5847b7b29882df9d207af3c7a45c13c37ba461723683a6b5e84a31c4b9cf",
    ("underlying_wa", "gf_big"): "7d6e89f13a1759a4b0fed3c6ced316f3a73ce34c280ab712d65d8002b6d25d7a",
    ("unfold", "q"): "e948236d01f8d5846c58ec508bef33a227976681738586aef0f0584dcf447f14",
    ("unfold", "gf7"): "cb8dfbe7d2289b281ac8bc105ed99959d9b965e8244d029f86ddcaf360820e67",
    ("unfold", "gf_big"): "9fdc1bf142342fd6ee3622a2536db68062134f75dcf67ef579e404ef6a988c4e",
}


@pytest.mark.parametrize("field", FIELDS, ids=list(FIELDS))
@pytest.mark.parametrize("builder", BUILDERS, ids=list(BUILDERS))
def test_built_documents_are_pinned(builder, field):
    documents = []
    for seed in range(25):
        config = GeneratorConfig(seed=seed, field=FIELDS[field], num_states=(1, 4), alphabet_size=(1, 3))
        built = BUILDERS[builder](generate(config), seed)
        documents.append(json.dumps(built.to_json(), sort_keys=True))
    digest = hashlib.sha256("\n".join(documents).encode()).hexdigest()
    assert digest == DIGESTS[builder, field]
