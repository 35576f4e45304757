"""Microbenchmarks of single layers: field arithmetic, the CLI parser build
and the seeded generator.

Field operations are timed through ``FieldElement`` and on the raw value the
element wraps (``Fraction``, or an ``int`` reduced mod p), on operands drawn
like the workloads' own: products of the small generator pool weights over
Q, residues of GF(7) and GF(2^31-1), and +-2^k or 2^-k with k near 4000, the
width a counting search over Q reaches at bound 4000 (``counting-deep`` runs
at 2000). Every figure is ns per operation including one iteration of a
Python ``for`` loop, the median of ``REPEATS`` timings.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter_ns

from wroca import cli, prime_field, rational, testkit

REPEATS = 5
OPERANDS = 2000
WIDE_OPERANDS = 300


def _mul(xs, ys):
    for a, b in zip(xs, ys):
        a * b


def _add(xs, ys):
    for a, b in zip(xs, ys):
        a + b


def _inverse(xs, _ys):
    for a in xs:
        a.inverse()


def _raw_q_inverse(xs, _ys):
    for a in xs:
        1 / a


def _raw_gf(p):
    def mul(xs, ys):
        for a, b in zip(xs, ys):
            a * b % p

    def add(xs, ys):
        for a, b in zip(xs, ys):
            (a + b) % p

    def inverse(xs, _ys):
        for a in xs:
            pow(a, -1, p)

    return mul, add, inverse


def _ns_per_op(loop, xs, ys) -> float:
    times = []
    for _ in range(REPEATS):
        start = perf_counter_ns()
        loop(xs, ys)
        times.append(perf_counter_ns() - start)
    return statistics.median(times) / len(xs)


def field_ops(seed: int) -> dict:
    rng = random.Random(seed)
    Q = rational()
    pool = testkit.default_weight_pool(Q)

    def q_small():
        value = Q.one()
        for _ in range(rng.randint(1, 6)):
            value = value * rng.choice(pool)
        return value

    def q_wide():
        k = rng.randint(3900, 4100)
        value = Fraction(2**k) if rng.random() < 0.5 else Fraction(1, 2**k)
        return Q.element(-value if rng.random() < 0.5 else value)

    sets = {
        "q": [q_small() for _ in range(2 * OPERANDS)],
        "q_wide": [q_wide() for _ in range(2 * WIDE_OPERANDS)],
    }
    for name, p in (("gf7", 7), ("gf", 2**31 - 1)):
        spec = prime_field(p)
        sets[name] = [spec.element(rng.randrange(1, p)) for _ in range(2 * OPERANDS)]

    metrics = {}
    for name, elems in sets.items():
        half = len(elems) // 2
        xs, ys = elems[:half], elems[half:]
        raw_x, raw_y = [e.value for e in xs], [e.value for e in ys]
        if name.startswith("gf"):
            raw_mul, raw_add, raw_inverse = _raw_gf(xs[0].spec.modulus)
        else:
            raw_mul, raw_add, raw_inverse = _mul, _add, _raw_q_inverse
        metrics[f"fields.mul_ns.{name}"] = _ns_per_op(_mul, xs, ys)
        metrics[f"fields.raw_mul_ns.{name}"] = _ns_per_op(raw_mul, raw_x, raw_y)
        if name in ("q", "gf"):
            metrics[f"fields.add_ns.{name}"] = _ns_per_op(_add, xs, ys)
            metrics[f"fields.raw_add_ns.{name}"] = _ns_per_op(raw_add, raw_x, raw_y)
            metrics[f"fields.inverse_ns.{name}"] = _ns_per_op(_inverse, xs, ys)
            metrics[f"fields.raw_inverse_ns.{name}"] = _ns_per_op(raw_inverse, raw_x, raw_y)
    return metrics


def build_parser_ms() -> float:
    """One ``cli.build_parser()`` call, which ``cli.main`` makes per call."""
    calls = 20
    times = []
    for _ in range(REPEATS):
        start = perf_counter_ns()
        for _ in range(calls):
            cli.build_parser()
        times.append(perf_counter_ns() - start)
    return statistics.median(times) / calls / 1e6


def generate_us(seed: int) -> float:
    """One ``testkit.generate`` call on the pair workloads' configurations."""
    rng = random.Random(seed)
    fields = (rational(), prime_field(7))
    configs = [
        testkit.GeneratorConfig(
            seed=rng.randrange(2**32), field=fields[i % 2], alphabet_size=(2 + i % 2,) * 2
        )
        for i in range(200)
    ]
    times = []
    for _ in range(REPEATS):
        start = perf_counter_ns()
        for cfg in configs:
            testkit.generate(cfg)
        times.append(perf_counter_ns() - start)
    return statistics.median(times) / len(configs) / 1e3
