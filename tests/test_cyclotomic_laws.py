"""Field laws and the canonical form of CycNumber, as hypothesis properties.

Operands of one example live at divisors of one conductor M <= 24, so mixed
conductors meet at M and never pass QTORUS_MAX_CONDUCTOR.
"""

from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qtorus.cyclotomic import CycNumber, totient  # noqa: E402

LAWS = settings(max_examples=80, deadline=None, derandomize=True)
COEFFS = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@st.composite
def operands(draw, count):
    M = draw(st.integers(1, 24))
    divisors = [m for m in range(1, M + 1) if M % m == 0]
    out = []
    for _ in range(count):
        m = draw(st.sampled_from(divisors))
        phi = totient(m)
        out.append(CycNumber(m, draw(st.lists(COEFFS, min_size=phi, max_size=phi))))
    return out


def assert_canonical(x):
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    rebuilt = CycNumber(x.M, x.coeffs)
    assert (rebuilt.num, rebuilt.den) == (x.num, x.den)


@LAWS
@given(operands(3))
def test_associativity(ops):
    a, b, c = ops
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@LAWS
@given(operands(3))
def test_distributivity(ops):
    a, b, c = ops
    assert (a + b) * c == a * c + b * c
    assert a * (b - c) == a * b - a * c


@LAWS
@given(operands(1))
def test_inverse(ops):
    (a,) = ops
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == 1
        assert a.inverse().inverse() == a


@LAWS
@given(operands(2))
def test_canonical_form(ops):
    a, b = ops
    results = [a, b, a + b, a - b, -a, a * b, a * 2, a.lift(2 * a.M)]
    if not b.is_zero():
        results.append(b.inverse())
    for x in results:
        assert_canonical(x)
    zero = a - a
    assert not any(zero.num) and zero.den == 1
