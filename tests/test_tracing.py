"""The benchmark's tracer wraps package attributes by name from outside the
package, so a change that renames or stops calling one of them breaks
``perfbench/run.py --trace 1``. These tests load the tracer and check that
everything it wraps is still there, and that the spans ``run.py`` reads
without a default are recorded by one equivalence check."""

import importlib.util
import sys
from pathlib import Path

import pytest

from wroca import equiv

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file beside the benchmark
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def test_every_wrapped_attribute_exists(tracing):
    bindings = [(owner, attr) for owner, attr, _ in tracing.LEAVES]
    bindings += [binding for _, owners in tracing.SPANS for binding in owners]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in bindings if attr not in owner.__dict__]
    assert missing == []


def test_check_equivalence_records_the_spans_run_reads(tracing, e1, e1p):
    with tracing.Tracer().installed() as tracer:
        verdict = equiv.check_equivalence(e1, e1p, 12)
    assert verdict.witness.word == ("a",)
    totals = tracer.totals()
    assert totals["equiv.check_equivalence"][0] == 1
    assert totals["core.validate"][0] == 2
    assert totals["unfold.compute_bounds"][0] == 1
