"""Fixed reference workloads that track how fast the machine runs right now.

On a shared host the speed available to one process drifts by a fifth or
more over minutes, with other tenants' load, so run-to-run spread of raw
times is wider than any useful regression bound. The timed loop runs a
block of reference calls after every pair, for a share of the pair's own
time, and scales the pair's latency by the reference's nominal time over
what one call took next to it. A reference uses only the standard library,
so a change to wroca never moves it, and does the same kind of work as its
workload, so a change in machine speed moves it the way it moves the
workload:

* ``INTERPRETER`` builds and runs an argparse parser, round-trips JSON and
  does ``Fraction`` and modular arithmetic on dicts and tuples, like the
  pair workloads' many small calls.
* ``WIDE_TABLE`` scans a table of 2,000 dict rows holding ints of 500 to
  2,000 bits with modular arithmetic, like the counting search's scan of a
  basis of up to 2,001 rows. The interpreter reference tracked that workload
  badly: over ten runs the scaled median spread by 7 % with it and by 2 %
  with this one.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter_ns
from typing import Callable

# Reference time run after each timed item (a pair, a build of the pool, a
# cold process), as a share of that item's first time.
SHARE = 0.3

_DOC = json.dumps({
    "states": ["s0", "s1", "s2"],
    "transitions": [[f"s{i % 3}", "a", f"s{(i + 1) % 3}", 1, "3/7"] for i in range(4)],
})
_WIDE = Fraction(2**300, 3**100)
_P = 2**31 - 1
_ROWS = [{j: 2 ** (500 + i % 1500) + j for j in range(i % 3 + 1)} for i in range(2000)]


def _interpreter():
    parser = argparse.ArgumentParser(prog="ref", add_help=False)
    parser.add_argument("x")
    parser.add_argument("--y", type=int, default=3)
    parser.parse_args(["foo", "--y", "7"])
    json.dumps(json.loads(_DOC))
    acc, table, residue = Fraction(0), {}, 1
    for i in range(1, 7):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
        residue = residue * (i + 5) % _P
        table[(i % 3, i)] = (acc, residue)
    return table, _WIDE * _WIDE


def _wide_table():
    acc = 0
    for i, row in enumerate(_ROWS):
        value = row.get(i % 3)
        if value is not None:
            acc = (acc + value * 3) % _P
    return acc


@dataclass(frozen=True)
class Reference:
    run: Callable[[], object]
    # About what one call takes at the fast end of the range measured on 2
    # shared vCPUs (Python 3.11.7). Scaled times read as milliseconds on a
    # machine that runs one call in this time.
    nominal_ms: float

    def per_call_ns(self, calls: int) -> float:
        """Time one block of ``calls`` calls: ns per call."""
        start = perf_counter_ns()
        for _ in range(calls):
            self.run()
        return (perf_counter_ns() - start) / calls

    def calls_for(self, ns: float) -> int:
        """How many calls take about ``SHARE`` of ``ns``, one at least."""
        return max(1, round(SHARE * ns / self.per_call_ns(1)))

    def scaled_ms(self, ns: float, ref_ns: float) -> float:
        """``ns`` measured next to calls of ``ref_ns`` each, as ms on a
        machine that runs one call in ``nominal_ms``."""
        return ns / ref_ns * self.nominal_ms


INTERPRETER = Reference(_interpreter, 0.15)
WIDE_TABLE = Reference(_wide_table, 2.0)
