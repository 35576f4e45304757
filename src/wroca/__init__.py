"""Weighted real-time one-counter automata over exact fields.

Simulation with zero-test semantics, row-bounded unfolding into weighted
automata, and polynomial-time equivalence checking that reports a minimal
distinguishing witness.
"""

from .core import (
    Alphabet,
    Configuration,
    CounterProfile,
    Dwroca,
    PumpingIntervals,
    Run,
    RunStep,
    counter_effect_profile,
    remove_intervals,
)
from .dwa import (
    Dwa,
    EquivalenceVerdict,
    SearchStats,
    WaConfig,
    Witness,
    bounded_k_equiv,
    dwa_equiv,
    find_k_equiv_wa_config,
    render_word,
    underlying_wa,
)
from .equiv import (
    ConfigurationPair,
    SyncTrace,
    WitnessReplay,
    check_equivalence,
    replay_witness,
    synchronized_run,
)
from .errors import (
    AlphabetMismatch,
    BoundTooLarge,
    BudgetExceeded,
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
    "BudgetExceeded",
    "Configuration",
    "ConfigurationPair",
    "CounterProfile",
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
    "PumpingIntervals",
    "ResourceBudgetExceeded",
    "Run",
    "RunStep",
    "SearchStats",
    "SyncTrace",
    "UnknownSymbol",
    "WaConfig",
    "Witness",
    "WitnessReplay",
    "WrocaError",
    "bounded_k_equiv",
    "bounds_for_k",
    "check_equivalence",
    "compute_bounds",
    "counter_effect_profile",
    "dwa_equiv",
    "find_k_equiv_wa_config",
    "parse_element",
    "prime_field",
    "rational",
    "remove_intervals",
    "render_word",
    "replay_witness",
    "synchronized_run",
    "underlying_wa",
    "unfold",
]
