"""Exact field arithmetic: rationals of arbitrary precision and GF(p).

All weights in this package are FieldElement values. Elements are immutable,
always canonical (fully reduced fraction with positive denominator, or
residue in [0, p)), and may only be combined with elements of the same
field; mixing fields is a hard error, never a coercion.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import DivisionByZero, FieldMismatch, ParseError

RATIONAL_KIND = "rational"
GF_KIND = "gf"

# Keep residue products inside 64-bit intermediates.
MAX_GF_MODULUS = 2**31

_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?\Z")
_INTEGER_RE = re.compile(r"[+-]?\d+\Z")


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3 * 10^24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# A frozen object's __setattr__ refuses every assignment, so its
# constructor sets its slots through object.__setattr__, bound once here to
# save a lookup, as object.__new__ is for a product built without __init__.
_setattr = object.__setattr__
_new = object.__new__


def _from_slots(cls, values: tuple):
    """A new ``cls`` whose slots, in ``cls.__slots__`` order, hold
    ``values``; ``__init__`` is not called."""
    obj = cls.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        _setattr(obj, name, value)
    return obj


class _Frozen:
    """Base of every immutable value in the package.

    A subclass lists its fields in ``__slots__`` and its constructor sets
    each once, through ``_setattr``; assigning or deleting an attribute
    afterwards raises AttributeError. Copies and pickles rebuild an object
    from its slot values (``_from_slots``), so they take no second pass
    through the constructor's checks.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return _from_slots, (type(self), self._values())


class FieldSpec(_Frozen):
    """Identifies a field: the rationals, or GF(p) for a prime modulus."""

    __slots__ = ("kind", "modulus")

    def __init__(self, kind: str, modulus: int | None = None):
        if kind == RATIONAL_KIND:
            if modulus is not None:
                raise ValueError("rational field takes no modulus")
        elif kind == GF_KIND:
            if not isinstance(modulus, int) or isinstance(modulus, bool):
                raise ValueError("GF modulus must be an integer")
            if modulus >= MAX_GF_MODULUS:
                raise ValueError(f"GF modulus must be below 2^31, got {modulus}")
            if not _is_prime(modulus):
                raise ValueError(f"GF modulus must be prime, got {modulus}")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        _setattr(self, "kind", kind)
        _setattr(self, "modulus", modulus)

    def __reduce__(self):
        # through the factories: the shared rational spec stays shared
        if self.kind == RATIONAL_KIND:
            return rational, ()
        return prime_field, (self.modulus,)

    def __eq__(self, other):
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return self.kind == other.kind and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        if self.kind == RATIONAL_KIND:
            return "FieldSpec(rational)"
        return f"FieldSpec(gf, p={self.modulus})"

    def zero(self) -> "FieldElement":
        return FieldElement(self, Fraction(0) if self.kind == RATIONAL_KIND else 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, Fraction(1) if self.kind == RATIONAL_KIND else 1)

    def element(self, value) -> "FieldElement":
        """Build a canonical element from an int, Fraction, string, or element."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise FieldMismatch(f"element of {value.spec} used in {self}")
            return value
        if isinstance(value, str):
            return parse_element(value, self)
        if isinstance(value, bool):
            raise TypeError("bool is not a field value")
        if self.kind == RATIONAL_KIND:
            if isinstance(value, (int, Fraction)):
                return FieldElement(self, Fraction(value))
            raise TypeError(f"cannot build rational from {type(value).__name__}")
        if isinstance(value, int):
            return FieldElement(self, value % self.modulus)
        raise TypeError(f"cannot build GF({self.modulus}) element from {type(value).__name__}")

    def to_json(self) -> dict:
        if self.kind == RATIONAL_KIND:
            return {"kind": "rational"}
        return {"kind": "gf", "p": self.modulus}

    @classmethod
    def from_json(cls, obj) -> "FieldSpec":
        if not isinstance(obj, dict):
            raise ParseError("field must be an object")
        kind = obj.get("kind")
        if kind == "rational":
            if set(obj) != {"kind"}:
                raise ParseError("rational field object takes only 'kind'")
            return rational()
        if kind == "gf":
            if set(obj) != {"kind", "p"}:
                raise ParseError("gf field object takes exactly 'kind' and 'p'")
            try:
                return prime_field(obj["p"])
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
        raise ParseError(f"unknown field kind {kind!r}")


_RATIONAL_SPEC = None


def rational() -> FieldSpec:
    """The field of rationals (shared spec instance)."""
    global _RATIONAL_SPEC
    if _RATIONAL_SPEC is None:
        _RATIONAL_SPEC = FieldSpec(RATIONAL_KIND)
    return _RATIONAL_SPEC


def prime_field(p: int) -> FieldSpec:
    """The field GF(p); p must be prime and below 2^31."""
    return FieldSpec(GF_KIND, p)


class FieldElement(_Frozen):
    """An immutable exact element of a FieldSpec, always in canonical form."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value):
        _setattr(self, "spec", spec)
        _setattr(self, "value", value)

    def _check(self, other) -> "FieldElement":
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise FieldMismatch(f"cannot combine {self.spec} with {other.spec}")
        return other

    @property
    def is_zero(self) -> bool:
        return not self.value

    def __bool__(self):
        return bool(self.value)

    def __add__(self, other):
        other = self._check(other)
        if self.spec.kind == RATIONAL_KIND:
            return FieldElement(self.spec, self.value + other.value)
        return FieldElement(self.spec, (self.value + other.value) % self.spec.modulus)

    def __sub__(self, other):
        other = self._check(other)
        if self.spec.kind == RATIONAL_KIND:
            return FieldElement(self.spec, self.value - other.value)
        return FieldElement(self.spec, (self.value - other.value) % self.spec.modulus)

    def __neg__(self):
        if self.spec.kind == RATIONAL_KIND:
            return FieldElement(self.spec, -self.value)
        return FieldElement(self.spec, -self.value % self.spec.modulus)

    def __mul__(self, other):
        spec = self.spec
        if other.__class__ is not FieldElement or other.spec is not spec:
            self._check(other)  # an element of an equal spec passes
        p = spec.modulus
        product = _new(FieldElement)  # no __init__ call: the product's slots are set here
        _setattr(product, "spec", spec)
        _setattr(product, "value", self.value * other.value if p is None else self.value * other.value % p)
        return product

    def inverse(self) -> "FieldElement":
        if not self.value:
            raise DivisionByZero("zero has no multiplicative inverse")
        if self.spec.kind == RATIONAL_KIND:
            return FieldElement(self.spec, 1 / self.value)
        return FieldElement(self.spec, pow(self.value, -1, self.spec.modulus))

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (self.spec is other.spec or self.spec == other.spec) and self.value == other.value

    def __hash__(self):
        return hash((self.spec, self.value))

    def render(self) -> str:
        """The exact decimal text: ``n`` or ``n/d``, of any length."""
        try:
            return str(self.value)
        except ValueError:  # more digits than str() converts; the limit stays as it is
            from decimal import Decimal  # exact, and not bound by that limit

            num, den = self.value.numerator, self.value.denominator
            text = str(Decimal(num))
            return text if den == 1 else f"{text}/{Decimal(den)}"

    __str__ = __repr__ = render


def parse_element(text: str, spec: FieldSpec) -> FieldElement:
    """Parse element text: "n" or "n/d" over the rationals, "n" over GF(p)."""
    if not isinstance(text, str):
        raise ParseError(f"element must be a string, got {type(text).__name__}")
    stripped = text.strip()
    if spec.kind == RATIONAL_KIND:
        match = _RATIONAL_RE.fullmatch(stripped)
        if not match:
            raise ParseError(f"malformed rational {text!r}")
        num, den = match.groups()
        try:
            # from the matched digits: Fraction(str) would parse the text again
            return FieldElement(spec, Fraction(int(num), int(den or 1)))
        except ZeroDivisionError as exc:
            raise DivisionByZero(f"zero denominator in {text!r}") from exc
        except ValueError as exc:
            raise _too_many_digits(stripped) from exc
    if not _INTEGER_RE.fullmatch(stripped):
        raise ParseError(f"malformed GF({spec.modulus}) element {text!r}")
    try:
        return FieldElement(spec, int(stripped) % spec.modulus)
    except ValueError as exc:
        raise _too_many_digits(stripped) from exc


def _too_many_digits(text: str) -> ParseError:
    """``int()`` refuses a decimal text over the interpreter's digit limit
    (``sys.get_int_max_str_digits()``); the limit stays as it is."""
    return ParseError(
        f"element of {len(text)} characters has more digits than the limit of {sys.get_int_max_str_digits()}"
    )
