"""Shared fixture machines.

E1: one state over {a}, both tables loop with counter +1 and weight 2,
initial weight 1, final weight 1; accepts a^n with weight 2^n.
E1P: same shape with loop weight 3.
E2: two states arranged so that the weight of a^n is still 2^n
(first step weighs 4, later steps 2, final weight 1/2 after the first).
E1_FLAT: E1 with counter effect 0: the same series, but its counter stays
put while E1's climbs, so the lockstep certificate cannot decide the pair
and a theoretical search of it runs out of budget.
"""

import pytest

from wroca import Dwroca, rational


@pytest.fixture(scope="session")
def Q():
    return rational()


@pytest.fixture(scope="session")
def e1(Q):
    two = Q.element(2)
    return Dwroca(
        ["q0"],
        ["a"],
        "q0",
        Q.one(),
        {("q0", "a"): ("q0", 1, two)},
        {("q0", "a"): ("q0", 1, two)},
        {"q0": Q.one()},
    )


@pytest.fixture(scope="session")
def e1p(Q):
    three = Q.element(3)
    return Dwroca(
        ["q0"],
        ["a"],
        "q0",
        Q.one(),
        {("q0", "a"): ("q0", 1, three)},
        {("q0", "a"): ("q0", 1, three)},
        {"q0": Q.one()},
    )


@pytest.fixture(scope="session")
def e2(Q):
    return Dwroca(
        ["q0", "q1"],
        ["a"],
        "q0",
        Q.one(),
        {("q0", "a"): ("q1", 1, Q.element(4)), ("q1", "a"): ("q1", 1, Q.element(2))},
        {("q1", "a"): ("q1", 1, Q.element(2))},
        {"q0": Q.one(), "q1": Q.element("1/2")},
    )


@pytest.fixture(scope="session")
def e1_flat(Q):
    two = Q.element(2)
    return Dwroca(
        ["q0"],
        ["a"],
        "q0",
        Q.one(),
        {("q0", "a"): ("q0", 0, two)},
        {("q0", "a"): ("q0", 0, two)},
        {"q0": Q.one()},
    )
