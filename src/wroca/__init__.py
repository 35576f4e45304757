"""Weighted real-time one-counter automata over exact fields.

Simulation with zero-test semantics, row-bounded unfolding into weighted
automata, and polynomial-time equivalence checking that reports a minimal
distinguishing witness.
"""

from .core import Alphabet, Configuration, Dwroca
from .dwa import (
    Dwa,
    EquivalenceVerdict,
    SearchStats,
    WaConfig,
    Witness,
    dwa_equiv,
    render_word,
    underlying_wa,
)
from .equiv import check_equivalence, replay_witness
from .errors import (
    AlphabetMismatch,
    BoundTooLarge,
    DivisionByZero,
    FieldMismatch,
    IntervalOutOfBounds,
    InternalError,
    InvalidAutomaton,
    ParseError,
    PreconditionViolated,
    ResourceBudgetExceeded,
    UnknownSymbol,
    WrocaError,
)
from .fields import FieldElement, FieldSpec, parse_element, prime_field, rational
from .unfold import (
    BoundReport,
    LazyUnfolding,
    bounds_for_k,
    compute_bounds,
    unfold,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AlphabetMismatch",
    "BoundReport",
    "BoundTooLarge",
    "Configuration",
    "DivisionByZero",
    "Dwa",
    "Dwroca",
    "EquivalenceVerdict",
    "FieldElement",
    "FieldMismatch",
    "FieldSpec",
    "IntervalOutOfBounds",
    "InternalError",
    "InvalidAutomaton",
    "LazyUnfolding",
    "ParseError",
    "PreconditionViolated",
    "ResourceBudgetExceeded",
    "SearchStats",
    "UnknownSymbol",
    "WaConfig",
    "Witness",
    "WrocaError",
    "bounds_for_k",
    "check_equivalence",
    "compute_bounds",
    "dwa_equiv",
    "parse_element",
    "prime_field",
    "rational",
    "render_word",
    "replay_witness",
    "underlying_wa",
    "unfold",
]
