import json
import random
from fractions import Fraction
from math import gcd, lcm

import _cyc_oracle as oracle
import pytest

from qtorus import cli, cyclotomic
from qtorus.cyclotomic import CycNumber, max_conductor, root_of_unity, totient
from qtorus.errors import ConductorLimitExceeded, ConfigError, NotDivisible, NotRootOfUnity


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
    monkeypatch.setattr(cyclotomic, "_FIELDS", {})
    monkeypatch.setenv("QTORUS_MAX_CONDUCTOR", "10")
    with pytest.raises(ConductorLimitExceeded):
        root_of_unity(11, 1)
    with pytest.raises(ConductorLimitExceeded):
        root_of_unity(8, 1) * root_of_unity(3, 1)  # lcm 24 > 10
    # root counts over Z/24 whose indices are all multiples of 3 lie in Q(zeta_8)
    counts = [0] * 24
    counts[3], counts[9] = 2, -1
    x = CycNumber.from_root_counts(24, counts, 5)
    assert x.M == 8
    assert x == (root_of_unity(8, 1) * 2 - root_of_unity(8, 3)) / 5
    counts[8] = 1
    with pytest.raises(ConductorLimitExceeded, match="conductor 24 exceeds"):
        CycNumber.from_root_counts(24, counts)
    monkeypatch.setenv("QTORUS_MAX_CONDUCTOR", "240")
    assert root_of_unity(8, 1) * root_of_unity(3, 1) == root_of_unity(24, 11)


def test_constructor_meets_the_conductor_cap(monkeypatch):
    monkeypatch.delenv("QTORUS_MAX_CONDUCTOR", raising=False)
    with pytest.raises(ConductorLimitExceeded, match="conductor 241 exceeds"):
        CycNumber(241, [1] + [0] * 239)
    assert 241 not in cyclotomic._FIELDS
    with pytest.raises(ValueError, match="conductor must be >= 1"):
        CycNumber(0, [])


def test_the_cap_is_read_when_a_field_is_first_built(monkeypatch):
    monkeypatch.setattr(cyclotomic, "_FIELDS", {})
    monkeypatch.setenv("QTORUS_MAX_CONDUCTOR", "10")
    x = root_of_unity(10, 3)
    monkeypatch.setenv("QTORUS_MAX_CONDUCTOR", "5")
    assert x * x == root_of_unity(10, 6)
    assert root_of_unity(10, 1) * x == root_of_unity(10, 4)
    with pytest.raises(ConductorLimitExceeded, match="conductor 7 exceeds QTORUS_MAX_CONDUCTOR=5"):
        root_of_unity(7, 1)


@pytest.mark.parametrize("raw", ["abc", "0", "-5", "2.5"])
def test_a_malformed_cap_is_a_config_error(monkeypatch, raw):
    monkeypatch.setenv("QTORUS_MAX_CONDUCTOR", raw)
    with pytest.raises(ConfigError, match="QTORUS_MAX_CONDUCTOR"):
        max_conductor()
    monkeypatch.setenv("QTORUS_MAX_CONDUCTOR", "")
    assert max_conductor() == cyclotomic.DEFAULT_MAX_CONDUCTOR


def test_a_verify_run_reads_the_cap_once_per_field_built(monkeypatch, tmp_path):
    # the module-iii benchmark workload at seed 1: a G_g module over (iii)
    cfg = {
        "torus": {"d": 3, "N": 4, "A": [[0, 1, 2], [3, 0, 0], [2, 0, 0]]},
        "box": [2, 2, 2],
        "seed": 1,
        "samples": 20,
        "module": {
            "V": "natural",
            "alpha": ["1/2", 0, "1/3"],
            "twist": {"modulus": 4, "exponents": [3, 0, 0]},
            "flavor": "G_g",
        },
    }
    path = tmp_path / "module-iii.json"
    path.write_text(json.dumps(cfg))
    cap, reads = cyclotomic.max_conductor, []

    def counted():
        reads.append(1)
        return cap()

    monkeypatch.setattr(cyclotomic, "_FIELDS", {})
    monkeypatch.setattr(cyclotomic, "max_conductor", counted)
    suites = "module,section3,section4,irreducibility"
    assert cli.main(["verify", "--config", str(path), "--suite", suites]) == 0
    assert cyclotomic._FIELDS and len(reads) == len(cyclotomic._FIELDS)


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


@pytest.mark.parametrize(
    "blob",
    [
        {"M": 2.5, "coeffs": ["1/1"]},
        {"M": True, "coeffs": ["1/1"]},
        {"M": "3", "coeffs": ["0/1", "1/1"]},
        {"zeta": [6.9, 5.5]},
        {"zeta": [6, 5.0]},
        {"zeta": [True, 0]},
        {"zeta": [6]},
        {"M": 3, "coeffs": "12"},
    ],
    ids=[
        "float-M", "bool-M", "string-M", "float-zeta", "float-zeta-k", "bool-zeta", "short-zeta",
        "string-coeffs",
    ],
)
def test_from_json_rejects_a_malformed_conductor_exponent_or_coefficient_list(blob):
    with pytest.raises(ValueError):
        CycNumber.from_json(blob)


def test_totient_small():
    assert [totient(m) for m in (1, 2, 3, 4, 6, 8, 12, 240)] == [1, 1, 2, 2, 2, 4, 4, 64]


# -- differential test against the Fraction-backed oracle -----------------------

ORACLE_CONDUCTORS = (1, 2, 3, 4, 5, 6, 8, 12, 24)


def _twin(rng, M):
    """One random value of Q(zeta_M), built by both implementations."""
    kind = rng.randrange(4)
    if kind == 0:
        k = rng.randrange(M)
        q = rng.choice((1, 1, -1, Fraction(1, 2), Fraction(-3, 4)))
        return root_of_unity(M, k) * q, oracle.root_of_unity(M, k) * q
    if kind == 1:
        coeffs = [0] * totient(M)
    else:
        coeffs = [
            Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6))) for _ in range(totient(M))
        ]
    return CycNumber(M, coeffs), oracle.CycNumber(M, coeffs)


def _same(new, old):
    assert new.M == old.M
    assert new.coeffs == old.coeffs
    assert new.as_root_exponent() == old.as_root_exponent()
    assert new.den > 0 and gcd(new.den, *new.num) == 1
    # the oracle serializes at the arithmetic conductor, qtorus at the minimal
    # one: each side parses the other's form back to the same value
    assert CycNumber.from_json(old.to_json()) == new
    assert _oracle_parse(new.to_json()) == old


def _oracle_parse(blob):
    return oracle.CycNumber(blob["M"], [Fraction(c) for c in blob["coeffs"]])


def _in_subfield(x0, m):
    """Galois test on an oracle value at conductor M, m | M: x0 lies in
    Q(zeta_m) exactly when every zeta -> zeta^a with a = 1 (mod m) fixes it."""
    M = x0.M
    for a in range(1, M, m):
        if gcd(a, M) == 1:
            image = oracle.CycNumber(1, [0])
            for j, c in enumerate(x0.coeffs):
                if c:
                    image = image + oracle.root_of_unity(M, a * j) * c
            if image != x0:
                return False
    return True


# descent through p^2 | M, and through p || M for an odd p, where the value
# must also pass the test that its groups G_1, ..., G_(p-1) agree
DESCENT_CONDUCTORS = (9, 25, 27, 15, 21, 35, 63)


def _held_values(rng):
    """(x, oracle twin, conductor held at): values held above their conductor."""
    for _ in range(300):
        x, x0 = _twin(rng, rng.choice(ORACLE_CONDUCTORS))
        if rng.randrange(2):
            y, y0 = _twin(rng, rng.choice(ORACLE_CONDUCTORS))
            x, x0 = x * y, x0 * y0
        yield x, x0, lcm(x.M, rng.choice(ORACLE_CONDUCTORS))
    for _ in range(120):
        M = rng.choice(DESCENT_CONDUCTORS)
        x, x0 = _twin(rng, M)
        if rng.randrange(2):
            m = rng.choice([m for m in range(1, M + 1) if M % m == 0])
            y, y0 = _twin(rng, m)
            x, x0 = x + y, x0 + y0
        yield x, x0, M * rng.randint(1, 240 // M)


def test_serialization_round_trips_at_the_minimal_conductor():
    for x, x0, big in _held_values(random.Random(20261019)):
        x, x0 = x.lift(big), x0.lift(big)  # one value, held above its conductor
        blob = x.to_json()
        m = blob["M"]
        assert big % m == 0
        assert _in_subfield(x0, m)
        assert not any(_in_subfield(x0, m // p) for p in (2, 3, 5, 7) if m % p == 0)
        assert _oracle_parse(blob) == x0
        assert CycNumber.from_json(blob) == x
        assert CycNumber.from_json(x0.to_json()) == x
        # bytes and repr depend on the value only
        low = CycNumber.from_json(blob)
        assert low.to_json() == blob and repr(low) == repr(x)


def test_matches_the_fraction_backed_oracle():
    rng = random.Random(20261018)
    for _ in range(400):
        ma, mb = rng.choice(ORACLE_CONDUCTORS), rng.choice(ORACLE_CONDUCTORS)
        (a, a0), (b, b0) = _twin(rng, ma), _twin(rng, mb)
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        n = rng.randint(-3, 3)
        _same(a, a0)
        _same(a + b, a0 + b0)
        _same(a - b, a0 - b0)
        _same(-a, -a0)
        _same(a * b, a0 * b0)
        _same(a * q, a0 * q)
        _same(n - a, n - a0)
        _same(a + n, a0 + n)
        _same(a.lift(lcm(ma, mb)), a0.lift(lcm(ma, mb)))
        _same(a.lift(2 * ma), a0.lift(2 * ma))
        assert (a == b) == (a0 == b0)
        assert (a == q) == (a0 == q)
        assert ((a + b) - b == a) and ((a0 + b0) - b0 == a0)
        if not b.is_zero():
            _same(b.inverse(), b0.inverse())
            back, back0 = (a * b) * b.inverse(), (a0 * b0) * b0.inverse()
            _same(back, back0)
            assert (back == a) and (back0 == a0)


def test_inverse_keeps_the_conductor_a_value_is_held_at():
    rng = random.Random(20261020)
    for _ in range(120):
        M = rng.choice(ORACLE_CONDUCTORS)
        a, a0 = _twin(rng, M)
        if a.is_zero():
            continue
        big = M * rng.choice((2, 3, 4, 5))
        x, x0 = a.lift(big), a0.lift(big)  # one value, held above its conductor
        inv, inv0 = x.inverse(), x0.inverse()
        assert inv.M == inv0.M == big
        assert inv.coeffs == inv0.coeffs
        assert inv.den > 0 and gcd(inv.den, *inv.num) == 1
        assert inv * x == 1 and inv == a.inverse()


def test_cyclotomic_polynomial_and_inverse_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(11)
    for M in (5, 7, 8, 9, 12, 15, 16, 24, 27, 60, 120):
        phi_poly = sympy.Poly(sympy.cyclotomic_poly(M, x), x, domain="QQ")
        assert [int(c) for c in reversed(phi_poly.all_coeffs())] == cyclotomic._field(M).poly
        for _ in range(4):
            a = rand_cyc(rng, M)
            if a.is_zero():
                continue
            inv = sympy.invert(sympy.Poly(list(reversed(a.coeffs)), x, domain="QQ"), phi_poly)
            expected = [Fraction(int(c.p), int(c.q)) for c in reversed(inv.all_coeffs())]
            expected += [Fraction(0)] * (totient(M) - len(expected))
            assert a.inverse().coeffs == tuple(expected)
