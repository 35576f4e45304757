"""Spans around the calls into each wroca module, installed from outside.

``Tracer.installed()`` replaces public entry points by wrappers for the
duration of a ``with`` block and restores them afterwards; no file of the
package changes. Calls that nest (parsing, validation, bounds, the search,
replay, the oracle, generation, ``cli.main``) each get a span with name,
start, end, parent and the id of the pair being processed. The two call
kinds that run once per explored word or per arithmetic step, ``FieldElement``
operators and ``LazyUnfolding.step_config``, are leaves: they are summed
into their parent span as a call count and a duration, so a run keeps a few
spans per pair instead of millions. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter_ns

from wroca import Dwroca, LazyUnfolding, cli, equiv, testkit
from wroca.fields import FieldElement

# The package re-exports the function ``unfold`` under the module's name.
unfold = importlib.import_module("wroca.unfold")

# Leaf wrappers: (owner, attribute, leaf name).
LEAVES = (
    (FieldElement, "__mul__", "fields.mul"),
    (FieldElement, "__add__", "fields.addsub"),
    (FieldElement, "__sub__", "fields.addsub"),
    (FieldElement, "__neg__", "fields.addsub"),
    (FieldElement, "inverse", "fields.inverse"),
    (FieldElement, "__eq__", "fields.eq"),
    (LazyUnfolding, "step_config", "unfold.step_config"),
)

# Span wrappers: (span name, [(owner, attribute), ...]). Every binding a
# caller may look the function up through gets the same wrapper.
SPANS = (
    ("cli.main", [(cli, "main")]),
    ("core.from_json", [(Dwroca, "from_json")]),
    ("core.validate", [(Dwroca, "validate")]),
    ("unfold.compute_bounds", [(unfold, "compute_bounds"), (equiv, "compute_bounds"), (cli, "compute_bounds")]),
    ("equiv.check_equivalence", [(equiv, "check_equivalence"), (cli, "check_equivalence")]),
    ("equiv.replay_witness", [(equiv, "replay_witness"), (cli, "replay_witness")]),
    ("testkit.brute_force_witness", [(testkit, "brute_force_witness")]),
    ("testkit.generate", [(testkit, "generate")]),
    ("testkit.split_state", [(testkit, "split_state")]),
)


class Span:
    __slots__ = ("name", "parent", "pair", "start", "end", "child_ns", "leaves", "note")

    def __init__(self, name, parent, pair):
        self.name = name
        self.parent = parent
        self.pair = pair
        self.child_ns = 0
        self.leaves = {}  # leaf name -> [calls, ns]
        self.note = None  # search outcome of a check_equivalence span


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.pair = None
        self.max_row = 0  # highest counter row step_config returned
        self._in_leaf = False

    def _span(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(name, parent, tracer.pair)
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.note = ("error", type(exc).__name__, getattr(exc, "explored", None))
                raise
            else:
                stats = getattr(result, "stats", None)
                if stats is not None:
                    span.note = ("verdict", stats.explored_words, stats.basis_size, stats.max_counter_row)
                return result
            finally:
                span.end = perf_counter_ns()
                tracer.stack.pop()
                if parent is not None:
                    tracer.spans[parent].child_ns += span.end - span.start

        return wrapper

    def _leaf(self, name, fn):
        tracer = self
        rows = name == "unfold.step_config"

        def wrapper(*args):
            # Operators called by benchmark code outside any span, or from
            # inside another leaf, are not the program's own work here.
            if tracer._in_leaf or not tracer.stack:
                return fn(*args)
            tracer._in_leaf = True
            start = perf_counter_ns()
            try:
                result = fn(*args)
            finally:
                ns = perf_counter_ns() - start
                tracer._in_leaf = False
                span = tracer.spans[tracer.stack[-1]]
                span.child_ns += ns
                agg = span.leaves.get(name)
                if agg is None:
                    span.leaves[name] = [1, ns]
                else:
                    agg[0] += 1
                    agg[1] += ns
            if rows and result is not None and result[0][1] > tracer.max_row:
                tracer.max_row = result[0][1]
            return result

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in LEAVES:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._leaf(name, original))
            for name, bindings in SPANS:
                original = bindings[0][0].__dict__[bindings[0][1]]
                wrapped = self._wrap_span(name, original)
                for owner, attr in bindings:
                    saved.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap_span(self, name, original):
        if isinstance(original, classmethod):
            return classmethod(self._span(name, original.__func__))
        return self._span(name, original)

    def totals(self) -> dict:
        """Per name: [calls, inclusive ns, self ns]; leaves count as self."""
        out = {}
        for span in self.spans:
            dur = span.end - span.start
            row = out.setdefault(span.name, [0, 0, 0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - span.child_ns
            for name, (calls, ns) in span.leaves.items():
                row = out.setdefault(name, [0, 0, 0])
                row[0] += calls
                row[1] += ns
                row[2] += ns
        return out

    def search_notes(self):
        return [s.note for s in self.spans if s.name == "equiv.check_equivalence" and s.note]

    def dump(self, handle, phase: str) -> None:
        for i, span in enumerate(self.spans):
            rec = {
                "phase": phase,
                "id": i,
                "name": span.name,
                "start_ns": span.start,
                "end_ns": span.end,
                "parent": span.parent,
                "pair": span.pair,
            }
            if span.leaves:
                rec["leaves"] = span.leaves
            if span.note:
                rec["note"] = span.note
            handle.write(json.dumps(rec) + "\n")


def exact_counts(tracer: Tracer, pairs: int, decided: int) -> dict:
    """Counts of one traced pass that must repeat exactly on the same seed."""
    totals = tracer.totals()
    notes = tracer.search_notes()
    verdicts = [n for n in notes if n[0] == "verdict"]

    def calls(name):
        return totals.get(name, [0])[0]

    return {
        "pairs": pairs,
        "decided": decided,
        "fields.mul_calls": calls("fields.mul"),
        "fields.addsub_calls": calls("fields.addsub"),
        "fields.inverse_calls": calls("fields.inverse"),
        "fields.eq_calls": calls("fields.eq"),
        "unfold.step_config_calls": calls("unfold.step_config"),
        "unfold.max_row": tracer.max_row,
        "core.validate_calls": calls("core.validate"),
        "dwa.explored_words": sum(n[1] if n[0] == "verdict" else (n[2] or 0) for n in notes),
        "dwa.verdict_explored_words": sum(n[1] for n in verdicts),
        "dwa.kept_vectors": sum(n[2] for n in verdicts),
        "dwa.max_counter_row": max((n[3] for n in verdicts), default=0),
    }
