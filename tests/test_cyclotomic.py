import random
from fractions import Fraction

import pytest

from qtorus import cyclotomic
from qtorus.cyclotomic import CycNumber, root_of_unity, totient
from qtorus.errors import ConductorLimitExceeded, NotDivisible, NotRootOfUnity


def rand_cyc(rng, M):
    phi = totient(M)
    return CycNumber(
        M,
        tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(phi)),
    )


def test_third_roots_sum():
    # oracle: Phi_3 = x^2 + x + 1, so z^2 = -1 - z and z + z^2 = -1
    z = root_of_unity(3, 1)
    assert z + z * z == -1
    assert root_of_unity(3, 1) + root_of_unity(3, 2) == CycNumber.rational(-1)


def test_fourth_roots_cancel():
    assert root_of_unity(4, 1) + root_of_unity(4, 3) == CycNumber.zero()


def test_eighth_root_square():
    # zeta_8^2 * zeta_8^2 = zeta_8^4 = -1 since Phi_8 = x^4 + 1
    a = root_of_unity(8, 2)
    assert a * a == -1
    assert a * a == root_of_unity(8, 4)


def test_root_exponent_table():
    # -1 expressed at conductor 4 is zeta_4^2, and lifting finds it
    assert (-CycNumber.one()).lift(4).as_root_exponent() == 2
    assert root_of_unity(4, 2) == -1
    assert root_of_unity(4, 2).as_root_exponent() == 2
    assert root_of_unity(6, 5).as_root_exponent() == 5
    two_z3 = root_of_unity(3, 1) * 2
    assert two_z3.as_root_exponent() is None
    # -1 lives in Q(zeta_3) but is not a power of zeta_3
    minus_one = root_of_unity(3, 1) + root_of_unity(3, 2)
    assert minus_one.as_root_exponent() is None


def test_lift_compatibility():
    z3 = root_of_unity(3, 1)
    lifted = z3.lift(6)
    assert lifted == root_of_unity(6, 2)
    assert z3 == root_of_unity(6, 2)  # equality lifts to lcm by itself
    with pytest.raises(NotDivisible):
        z3.lift(4)


def test_sqrt_branch():
    assert root_of_unity(3, 1).sqrt_root() == root_of_unity(6, 1)
    s = root_of_unity(2, 1).sqrt_root()
    assert s == root_of_unity(4, 1)
    assert s * s == -1
    with pytest.raises(NotRootOfUnity):
        (root_of_unity(3, 1) * 2).sqrt_root()


@pytest.mark.parametrize("M", [1, 2, 3, 4, 6, 5, 8, 12])
def test_sqrt_squares_back(M):
    for k in range(M):
        a = root_of_unity(M, k)
        s = a.sqrt_root()
        assert s * s == a


def test_inverse_and_division():
    a = CycNumber(5, (1, 1, 0, 0))  # 1 + zeta_5
    assert a * a.inverse() == 1
    assert (a / a) == 1
    with pytest.raises(ZeroDivisionError):
        CycNumber.zero().inverse()


def test_field_axioms_seeded():
    rng = random.Random(20260819)
    for M in (1, 2, 3, 4, 6, 12):
        for _ in range(40):
            a, b, c = (rand_cyc(rng, M) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a + (-a) == CycNumber.zero()
            if not a.is_zero():
                assert a * a.inverse() == 1


def test_mixed_conductor_arithmetic():
    # lcm(4, 6) = 12
    v = root_of_unity(4, 1) * root_of_unity(6, 1)
    assert v == root_of_unity(12, 5)
    assert root_of_unity(4, 1) + 0 == root_of_unity(4, 1)
    assert 1 - root_of_unity(1, 0) == CycNumber.zero()


def test_powers():
    z = root_of_unity(12, 1)
    assert z**12 == 1
    assert z**-1 == root_of_unity(12, 11)
    assert z**0 == 1


def test_serialization_round_trip():
    vals = [
        CycNumber.rational(Fraction(-3, 7)),
        root_of_unity(12, 7),
        CycNumber(5, (1, Fraction(1, 2), 0, -2)),
    ]
    for v in vals:
        blob = v.to_json()
        assert CycNumber.from_json(blob) == v
    assert CycNumber.from_json({"zeta": [6, 5]}) == root_of_unity(6, 5)
    assert CycNumber.from_json("2/3") == CycNumber.rational(Fraction(2, 3))
    assert CycNumber.from_json(4) == CycNumber.rational(4)


def test_conductor_cap(monkeypatch):
    monkeypatch.setenv("QTORUS_MAX_CONDUCTOR", "10")
    with pytest.raises(ConductorLimitExceeded):
        root_of_unity(11, 1)
    with pytest.raises(ConductorLimitExceeded):
        root_of_unity(8, 1) * root_of_unity(3, 1)  # lcm 24 > 10
    monkeypatch.setenv("QTORUS_MAX_CONDUCTOR", "240")
    assert root_of_unity(8, 1) * root_of_unity(3, 1) == root_of_unity(24, 11)


def test_serialized_conductor_is_checked_before_its_field_is_built(monkeypatch):
    monkeypatch.delenv("QTORUS_MAX_CONDUCTOR", raising=False)
    blob = {"M": 241, "coeffs": ["1/1"] + ["0/1"] * 239}
    with pytest.raises(ConductorLimitExceeded, match="conductor 241 exceeds"):
        CycNumber.from_json(blob)
    assert 241 not in cyclotomic._FIELDS
    with pytest.raises(ValueError, match="conductor must be >= 1"):
        CycNumber.from_json({"M": 0, "coeffs": []})


@pytest.mark.parametrize("bad", [0.5, True, None, "x", "1/0", [1]])
def test_from_json_accepts_only_integers_and_fraction_strings(bad):
    with pytest.raises(ValueError):
        CycNumber.from_json({"M": 1, "coeffs": [bad]})


def test_totient_small():
    assert [totient(m) for m in (1, 2, 3, 4, 6, 8, 12, 240)] == [1, 1, 2, 2, 2, 4, 4, 64]
