"""Exception types shared across the package."""

import sys


class WrocaError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatch(WrocaError):
    """Elements or automata over different fields were combined."""


class DivisionByZero(WrocaError, ZeroDivisionError):
    """Multiplicative inverse of the zero element was requested."""


class ParseError(WrocaError):
    """Malformed element text or JSON document."""


class UnknownSymbol(WrocaError):
    """A word contains a symbol that is not in the alphabet."""


class IntervalOutOfBounds(WrocaError):
    """A removal interval does not fit inside the word."""


class AlphabetMismatch(WrocaError):
    """Two automata that must share an alphabet do not."""


class InvalidAutomaton(WrocaError):
    """An operation required a valid automaton but validation failed."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid automaton: " + "; ".join(self.violations))


class BoundTooLarge(WrocaError):
    """Materializing an unfolding would exceed the state cap."""

    def __init__(self, required, cap):
        self.required = required
        self.cap = cap
        super().__init__(f"unfolding needs {_count(required)} states, cap is {_count(cap)}")


def _count(n: int) -> str:
    """``n`` in decimal, or, past the digits that ``str()`` converts, a
    lower bound that needs no conversion of ``n``."""
    try:
        return str(n)
    except ValueError:  # the interpreter's limit stays as it is
        return f"at least 10^{sys.get_int_max_str_digits()}"


class ResourceBudgetExceeded(WrocaError):
    """A search gave up after exploring more words than its budget allows.

    Raised by the equivalence search and by the brute-force oracle, whose
    tree nodes are words too. This is deliberately distinct from any
    verdict: nothing was decided. ``stats`` is the equivalence search's
    ``SearchStats`` at the point it gave up, the word over budget counted
    in ``explored_words`` but not yet tested; the oracle leaves it None.
    """

    def __init__(self, explored, budget, stats=None):
        self.explored = explored
        self.budget = budget
        self.stats = stats
        super().__init__(f"explored {explored} words, budget is {budget}")


class PreconditionViolated(WrocaError):
    """A property-trial precondition does not hold; carries the failed clause."""

    def __init__(self, clause):
        self.clause = clause
        super().__init__(f"precondition violated: {clause}")


class InternalError(WrocaError):
    """An internal consistency check failed: a fault in this package, not in the input."""
