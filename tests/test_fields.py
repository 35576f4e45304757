import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wroca import DivisionByZero, FieldMismatch, ParseError, parse_element, prime_field, rational
from wroca.fields import FieldSpec, _is_prime

Q = rational()
GF7 = prime_field(7)


def q(text):
    return Q.element(text)


def g7(value):
    return GF7.element(value)


class TestRationalOps:
    def test_add(self):
        assert q("1/2") + q("1/3") == q("5/6")

    def test_add_identity(self):
        x = q("7/3")
        assert x + Q.zero() == x

    def test_mul(self):
        assert q("2/3") * q("3/4") == q("1/2")

    def test_mul_identity(self):
        x = q("-9/7")
        assert x * Q.one() == x

    def test_inverse(self):
        assert q("3/4").inverse() == q("4/3")
        assert Q.one().inverse() == Q.one()

    def test_inverse_of_zero(self):
        with pytest.raises(DivisionByZero):
            Q.zero().inverse()

    def test_zero_inverse_is_zero_division_error_too(self):
        with pytest.raises(ZeroDivisionError):
            Q.zero().inverse()


class TestGfOps:
    def test_add(self):
        assert g7(5) + g7(4) == g7(2)

    def test_mul(self):
        assert g7(3) * g7(5) == g7(1)

    def test_inverse(self):
        assert g7(3).inverse() == g7(5)

    def test_inverse_of_zero(self):
        with pytest.raises(DivisionByZero):
            GF7.zero().inverse()

    def test_canonical_range(self):
        assert g7(10).value == 3
        assert g7(-1).value == 6


class TestFieldMismatch:
    def test_add(self):
        with pytest.raises(FieldMismatch):
            q(1) + g7(1)

    def test_mul(self):
        with pytest.raises(FieldMismatch):
            g7(2) * q(2)

    def test_element_conversion(self):
        with pytest.raises(FieldMismatch):
            Q.element(g7(3))

    def test_different_moduli(self):
        with pytest.raises(FieldMismatch):
            g7(1) + prime_field(11).element(1)


class TestMulOperands:
    """A product checks its operand unless it is an element of the very
    same spec object."""

    def test_separately_built_specs_multiply(self):
        first, second = prime_field(7), prime_field(7)
        assert first is not second
        product = first.element(3) * second.element(4)
        assert product == first.element(5) and product.spec is first

    def test_other_fields_are_a_mismatch(self):
        for left, right in ((q(2), g7(2)), (g7(2), q(2)), (g7(2), prime_field(11).element(2))):
            with pytest.raises(FieldMismatch):
                left * right

    @pytest.mark.parametrize("other", [2, Fraction(1, 2), "2", None])
    def test_a_non_element_is_a_type_error(self, other):
        for element in (q("1/2"), g7(3)):
            with pytest.raises(TypeError):
                element * other

    @given(st.fractions(), st.fractions())
    def test_rational_product_is_the_fraction_product(self, x, y):
        product = Q.element(x) * Q.element(y)
        assert product.spec is Q and product.value == x * y


class TestParse:
    def test_reduction(self):
        assert parse_element("-6/8", Q) == q("-3/4")

    def test_gf_reduction(self):
        assert parse_element("10", GF7) == g7(3)

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZero):
            parse_element("1/0", Q)

    @pytest.mark.parametrize("text", ["", "1.5", "a", "1/2/3", "1/-2", "--3", "1 / 2"])
    def test_malformed_rational(self, text):
        with pytest.raises(ParseError):
            parse_element(text, Q)

    @pytest.mark.parametrize("text", ["", "1/2", "x", "3.0"])
    def test_malformed_gf(self, text):
        with pytest.raises(ParseError):
            parse_element(text, GF7)

    @given(st.integers(), st.integers(min_value=1))
    def test_roundtrip_rational(self, num, den):
        element = Q.element(Fraction(num, den))
        assert parse_element(element.render(), Q) == element

    @given(
        st.sampled_from(["", "+", "-"]),
        st.text("0123456789", min_size=1, max_size=30),
        st.none() | st.text("0123456789", min_size=1, max_size=30),
        st.text(" \t\n", max_size=3),
        st.text(" \t\n", max_size=3),
    )
    def test_rational_parse_matches_fraction(self, sign, num, den, before, after):
        # signs, leading zeros and surrounding whitespace, as Fraction reads them
        text = before + sign + num + ("" if den is None else "/" + den) + after
        if den is not None and int(den) == 0:
            with pytest.raises(DivisionByZero):
                parse_element(text, Q)
        else:
            assert parse_element(text, Q) == Q.element(Fraction(text))

    @given(st.text("0123456789+-/.e_ \tx", max_size=12))
    def test_rational_parse_rejects_what_fraction_rejects(self, text):
        if "e" in text:
            # Fraction("1e999999999") would compute 10 ** 999999999, for hours;
            # elements read no exponent
            with pytest.raises(ParseError):
                parse_element(text, Q)
            return
        try:
            expected = Fraction(text)
        except ValueError:
            with pytest.raises(ParseError):
                parse_element(text, Q)
        except ZeroDivisionError:
            with pytest.raises(DivisionByZero):
                parse_element(text, Q)
        else:
            try:
                assert parse_element(text, Q).value == expected
            except ParseError:
                pass  # Fraction also reads decimals and exponents; elements do not

    @given(st.integers())
    def test_roundtrip_gf(self, value):
        element = g7(value)
        assert parse_element(element.render(), GF7) == element


def read_digits(text: str) -> int:
    """An int from decimal text of any length, read in chunks that stay
    under the interpreter's digit limit."""
    digits = text.lstrip("-")
    assert digits.isdigit() and (digits == "0" or not digits.startswith("0"))
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


class TestRender:
    @pytest.mark.parametrize(
        "value",
        [2**15000, -(3**9100), Fraction(1, 3**9100), Fraction(-(5**7000), 3**9100), Fraction(2**15000, 7)],
        ids=["int", "negative-int", "long-denominator", "both-long", "long-numerator"],
    )
    def test_exact_text_over_the_digit_limit(self, value):
        element = Q.element(value)
        text = element.render()
        assert len(text) > sys.get_int_max_str_digits()
        assert str(element) == repr(element) == text
        num, slash, den = text.partition("/")
        assert read_digits(num) == value.numerator
        assert (read_digits(den) if slash else 1) == value.denominator

    @pytest.mark.parametrize("value", [0, -7, Fraction(-3, 4), 10**4299])
    def test_short_values_render_as_str(self, value):
        assert Q.element(value).render() == str(Fraction(value)) == repr(Q.element(value))


class TestSpecValidation:
    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            prime_field(6)

    def test_one_rejected(self):
        with pytest.raises(ValueError):
            prime_field(1)

    def test_large_modulus_rejected(self):
        with pytest.raises(ValueError):
            prime_field(2**31 + 11)

    def test_largest_usable_moduli(self):
        prime_field(2**31 - 1)  # Mersenne prime, just under the cap

    def test_is_prime_sanity(self):
        primes = {2, 3, 5, 7, 11, 13, 97, 7919}
        for n in range(2, 100):
            assert _is_prime(n) == (n in primes or all(n % d for d in range(2, n)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FieldSpec("real")

    def test_rational_field_takes_no_modulus(self):
        with pytest.raises(ValueError, match="^rational field takes no modulus$"):
            FieldSpec("rational", 7)

    def test_field_json_roundtrip(self):
        for spec in (Q, GF7):
            assert FieldSpec.from_json(spec.to_json()) == spec

    def test_field_json_unknown_key(self):
        with pytest.raises(ParseError):
            FieldSpec.from_json({"kind": "rational", "p": 5})


class TestElementFromValue:
    """``FieldSpec.element`` refuses a value it cannot read exactly with a
    TypeError naming the value's type."""

    @pytest.mark.parametrize("spec", [Q, GF7], ids=["q", "gf7"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_is_refused(self, spec, value):
        with pytest.raises(TypeError, match="^bool is not a field value$"):
            spec.element(value)

    def test_float_over_the_rationals(self):
        with pytest.raises(TypeError, match="^cannot build rational from float$"):
            Q.element(1.5)

    def test_float_over_gf7(self):
        with pytest.raises(TypeError, match=r"^cannot build GF\(7\) element from float$"):
            GF7.element(1.5)


def _axiom_check(spec, sample, trials):
    rng = random.Random(20240517)
    zero, one = spec.zero(), spec.one()
    for _ in range(trials):
        a, b, c = sample(rng), sample(rng), sample(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if not a.is_zero:
            assert a * a.inverse() == one


def test_rational_axioms_hold_on_random_triples():
    def sample(rng):
        return Q.element(Fraction(rng.randint(-50, 50), rng.randint(1, 50)))

    _axiom_check(Q, sample, 10_000)


def test_gf7_axioms_hold_on_random_triples():
    def sample(rng):
        return g7(rng.randrange(7))

    _axiom_check(GF7, sample, 10_000)


def test_operations_keep_canonical_form():
    rng = random.Random(99)
    for _ in range(2000):
        a = Q.element(Fraction(rng.randint(-40, 40), rng.randint(1, 40)))
        b = Q.element(Fraction(rng.randint(-40, 40), rng.randint(1, 40)))
        for result in (a + b, a * b, a - b, -a):
            assert result.value.denominator > 0
            # Fraction keeps itself reduced; equality with a fresh parse checks it
            assert parse_element(result.render(), Q) == result
        x = g7(rng.randrange(1, 7))
        y = g7(rng.randrange(7))
        for result in (x + y, x * y, x - y, -x, x.inverse()):
            assert 0 <= result.value < 7
