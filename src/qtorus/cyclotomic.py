"""Exact arithmetic in cyclotomic fields Q(zeta_M).

Every scalar in the package is a CycNumber: a vector of integer numerators
over one positive integer denominator, num / den, in the power basis
1, z, ..., z^(phi(M)-1) of Q[x]/Phi_M(x).  The form is canonical: den > 0,
the gcd of den and all numerators is 1, and zero is (0, ..., 0) / 1.  So
equality is a tuple comparison once both operands share a conductor, and
sums, products and lifts run on Python ints with one gcd per result.  Mixed
conductors lift to the lcm first.  No floating point is used anywhere.

Reduction mod Phi_M is written once (_fold): a sum of powers zeta^j is
folded onto the power basis by the table of zeta^j for j >= phi(M).  A
product of two non-rational operands is one convolution followed by that
fold, and so is the read-out of root counts.  Division uses the same fold:
1/x is den * R / N for x = num / den, where R is the product of the Galois
conjugates of num other than num itself (each one an index map on root
counts, then the fold) and N = num * R is the norm of num, an integer.  A
lift to M2 is an index map too: numerator j counts zeta_M2^(j M2/M), and
the counts are folded.

Arithmetic never lowers a conductor, so one value can be held at several
conductors; only the read-out of root counts (from_root_counts) picks the
conductor its indices need.  Serialization and repr write a value at its
minimal conductor (the least M' with the value in Q(zeta_M')), so their
bytes depend only on the value, not on the arithmetic that made it.  The
descent to that conductor (_descend) drops one prime at a time by integer
index maps and the fold.  No matrix is inverted, and of the package this
module imports only errors.

Conductor growth is capped by the environment variable QTORUS_MAX_CONDUCTOR
(default 240) so runaway lcm chains fail loudly instead of thrashing.  Its
one gate is _field: every value at a new conductor needs its field, which
is checked against the cap before its tables are built, and never again.
"""

from __future__ import annotations

import os
import threading
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

from .errors import ConductorLimitExceeded, ConfigError, NotDivisible, NotRootOfUnity

DEFAULT_MAX_CONDUCTOR = 240

def max_conductor() -> int:
    """QTORUS_MAX_CONDUCTOR (the default if unset or empty); ConfigError unless >= 1."""
    raw = os.environ.get("QTORUS_MAX_CONDUCTOR")
    if not raw:
        return DEFAULT_MAX_CONDUCTOR
    try:
        value = int(raw)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise ConfigError(f"QTORUS_MAX_CONDUCTOR must be an integer of at least 1, got {raw!r}")


def _check_conductor(m: int) -> None:
    """Raise unless 1 <= m <= the cap, read from the environment."""
    if m < 1:
        raise ValueError("conductor must be >= 1")
    cap = max_conductor()
    if m > cap:
        raise ConductorLimitExceeded(
            f"conductor {m} exceeds QTORUS_MAX_CONDUCTOR={cap}"
        )


def _prime_factors(m: int) -> list[int]:
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def totient(m: int) -> int:
    result = m
    for p in _prime_factors(m):
        result -= result // p
    return result


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # num and den are ascending-coefficient integer polynomials, den monic.
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        out[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("inexact polynomial division")
    return out


def _stretch(poly: list[int], k: int) -> list[int]:
    """poly(x^k)."""
    out = [0] * ((len(poly) - 1) * k + 1)
    out[::k] = poly
    return out


def _cyclotomic_poly(M: int) -> list[int]:
    """Phi_M, ascending coefficients.  Phi_mp(x) = Phi_m(x^p) / Phi_m(x) for
    a prime p not dividing m builds Phi of the radical r of M from
    Phi_1 = x - 1, and Phi_M(x) = Phi_r(x^(M/r))."""
    poly, rad = [-1, 1], 1
    for p in _prime_factors(M):
        poly = _poly_div_exact(_stretch(poly, p), poly)
        rad *= p
    return _stretch(poly, M // rad)


class _Field:
    """Cached per-conductor data: Phi_M, power table, exponent lookup."""

    __slots__ = ("M", "phi", "poly", "powers", "exp_of", "units")

    def __init__(self, M: int):
        self.M = M
        self.poly = _cyclotomic_poly(M)
        self.phi = len(self.poly) - 1
        phi = self.phi
        top = [-c for c in self.poly[:phi]]  # x^phi reduced
        powers: list[tuple[int, ...]] = []
        row = [0] * phi
        row[0] = 1
        powers.append(tuple(row))
        need = max(M, 2 * phi - 1)
        for _ in range(1, need):
            carry = row[phi - 1]
            row = [0] + row[: phi - 1]
            if carry:
                row = [a + carry * b for a, b in zip(row, top)]
            powers.append(tuple(row))
        self.powers = powers
        self.exp_of = {powers[k]: k for k in range(M)}
        self.units: list["CycNumber" | None] = [None] * M


_FIELDS: dict[int, _Field] = {}
_FIELDS_LOCK = threading.Lock()


def _field(M: int) -> _Field:
    """Q(zeta_M), checked against the conductor cap and built on first use."""
    f = _FIELDS.get(M)
    if f is None:
        with _FIELDS_LOCK:
            f = _FIELDS.get(M)
            if f is None:
                _check_conductor(M)
                f = _FIELDS[M] = _Field(M)
    return f


def _minimal(x: "CycNumber") -> "CycNumber":
    """x at its minimal conductor.

    Q(zeta_a) and Q(zeta_b) meet in Q(zeta_gcd(a, b)), so dropping one prime
    factor at a time while the value stays inside reaches the least conductor.
    """
    M, num = x.M, x.num
    while M > 1:
        for p in _prime_factors(M):
            low = _descend(M, p, num)
            if low is not None:
                M, num = M // p, low
                break
        else:
            break
    return x if M == x.M else _make(M, num, x.den)


def _descend(M: int, p: int, num):
    """The numerators in Q(zeta_m), m = M/p, of the value with numerators
    `num` at M, or None when the value does not lie in Q(zeta_m)."""
    m = M // p
    if m % p == 0:
        # zeta_M^p = zeta_m, and 1, zeta_M, ..., zeta_M^(p-1) is a basis of
        # Q(zeta_M) over Q(zeta_m): the value is inside when its numerators
        # vanish off the multiples of p
        return None if any(num[j] for j in range(len(num)) if j % p) else num[::p]
    # a p + b m = 1 splits zeta_M^j = zeta_m^(a j) zeta_p^(b j), so the value
    # is sum_g G_g zeta_p^g with G_g the fold at m of the terms with b j = g
    # (mod p); 1, zeta_p, ..., zeta_p^(p-2) is a basis over Q(zeta_m) and
    # zeta_p^(p-1) is minus their sum, so the value is inside exactly when
    # G_1 = ... = G_(p-1), and then it is G_0 - G_1
    a, b = pow(p, -1, m), pow(m, -1, p)
    groups = [[0] * m for _ in range(p)]
    for j, c in enumerate(num):
        if c:
            groups[b * j % p][a * j % m] += c
    f = _field(m)
    g0, g1, *rest = [_fold(f, g) for g in groups]
    if any(g != g1 for g in rest):
        return None
    return tuple([u - v for u, v in zip(g0, g1)])


def _fold(f: _Field, counts) -> tuple[int, ...]:
    """Power-basis numerators of sum_j counts[j] * zeta^j: each zeta^j with
    j >= phi(M) is replaced by its row of the power table.  This is the one
    reduction mod Phi_M."""
    phi = f.phi
    out = list(counts[:phi])
    powers = f.powers
    for j in range(phi, len(counts)):
        c = counts[j]
        if c:
            for i, r in enumerate(powers[j]):
                if r:
                    out[i] += c * r
    return tuple(out)


def _times(f: _Field, a, b) -> tuple[int, ...]:
    """Power-basis numerators of a * b, for numerator vectors a and b at f:
    one convolution, then the fold."""
    conv = [0] * (2 * f.phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    return _fold(f, conv)


_new = object.__new__


def _make(M: int, num: tuple[int, ...], den: int) -> "CycNumber":
    """A CycNumber from numerators and a denominator already in canonical form."""
    x = _new(CycNumber)
    x.M = M
    x.num = num
    x.den = den
    return x


def _reduced(M: int, num: tuple[int, ...], den: int) -> "CycNumber":
    """num / den (den > 0) in canonical form: one gcd, skipped when den is 1."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple([c // g for c in num])
            den //= g
    return _make(M, num, den)


def _from_root_counts(M: int, counts, den: int = 1) -> "CycNumber":
    """sum_j counts[j] * zeta_M^j / den, reduced mod Phi_M.

    `counts` is an element of the group ring Z[Z/M] (M integers) and den
    a positive integer.  This is the read-out of sums kept as root counts.
    When every nonzero index is a multiple of g = gcd(M, indices), the
    value lies in Q(zeta_(M/g)) and is read there, so the cap applies to
    M/g, not to M.
    """
    g = gcd(M, *[j for j, c in enumerate(counts) if c])
    if g > 1:
        M //= g
        counts = counts[::g]
    return _reduced(M, _fold(_field(M), counts), den)


class CycNumber:
    """An element of Q(zeta_M), reduced mod the M-th cyclotomic polynomial.

    `num` holds the integer numerators and `den` the positive common
    denominator, in the canonical form described in the module docstring.
    """

    __slots__ = ("M", "num", "den")

    def __init__(self, M: int, coeffs):
        fracs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        if len(fracs) != _field(M).phi:
            raise ValueError("coefficient vector has wrong length for conductor")
        # the lcm of reduced denominators leaves no common factor with the numerators
        den = lcm(*(c.denominator for c in fracs))
        self.M = M
        self.num = tuple(c.numerator * (den // c.denominator) for c in fracs)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(q) -> "CycNumber":
        if type(q) is int:
            return _make(1, (q,), 1)
        q = Fraction(q)
        return _make(1, (q.numerator,), q.denominator)

    from_root_counts = staticmethod(_from_root_counts)

    @staticmethod
    def zero() -> "CycNumber":
        return _make(1, (0,), 1)

    @staticmethod
    def one() -> "CycNumber":
        return _make(1, (1,), 1)

    # -- basics --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value")
        return Fraction(self.num[0], self.den)

    def lift(self, M2: int) -> "CycNumber":
        """Re-express in Q(zeta_M2); M must divide M2."""
        if M2 == self.M:
            return self
        if M2 % self.M:
            raise NotDivisible(f"conductor {self.M} does not divide {M2}")
        f, ratio = _field(M2), M2 // self.M
        counts = [0] * max(f.phi, (len(self.num) - 1) * ratio + 1)
        counts[: len(self.num) * ratio : ratio] = self.num
        # Z[zeta_M] is the ring of integers of Q(zeta_M) and its power basis
        # an integral basis, so a numerator vector with no common factor with
        # den keeps none at M2: the lifted form is already canonical.
        return _make(M2, _fold(f, counts), self.den)

    @staticmethod
    def _common(a: "CycNumber", b: "CycNumber"):
        if a.M == b.M:
            return a, b
        m = a.M * b.M // gcd(a.M, b.M)
        return a.lift(m), b.lift(m)

    def _coerce(self, other):
        if isinstance(other, CycNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return CycNumber.rational(other)
        return None

    # -- arithmetic ----------------------------------------------------

    def _plus(self, other, sign):
        """self + sign * other, over the lcm of the two denominators."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = CycNumber._common(self, o)
        da, db = a.den, b.den
        if da == db:
            return _reduced(a.M, tuple(map(add if sign == 1 else sub, a.num, b.num)), da)
        g = gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        return _reduced(
            a.M, tuple([x * fa + y * fb for x, y in zip(a.num, b.num)]), da * fa
        )

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _make(self.M, tuple([-x for x in self.num]), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # rational fast paths keep the hot loops cheap
        if self.M == 1:
            q, d = self.num[0], self.den
            if q == 1 and d == 1:
                return o
            return _reduced(o.M, tuple([q * c for c in o.num]), d * o.den)
        if o.M == 1:
            q, d = o.num[0], o.den
            if q == 1 and d == 1:
                return self
            return _reduced(self.M, tuple([q * c for c in self.num]), d * self.den)
        a, b = CycNumber._common(self, o)
        return _reduced(a.M, _times(_field(a.M), a.num, b.num), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        if self.M == 1:
            q = self.num[0]
            return _make(1, (self.den,), q) if q > 0 else _make(1, (-self.den,), -q)
        k = self.as_root_exponent()
        if k is not None:
            return root_of_unity(self.M, -k)
        # x = num / den: with R the product of the conjugates sigma_a(num),
        # zeta -> zeta^a for the units a != 1 mod M, num * R is the norm of
        # num, an integer N, so 1/x = den * R / N
        M, num = self.M, self.num
        f = _field(M)
        R = (1,) + (0,) * (f.phi - 1)
        for a in range(2, M):
            if gcd(a, M) == 1:
                counts = [0] * M
                for j, c in enumerate(num):
                    if c:
                        counts[a * j % M] += c
                R = _times(f, R, _fold(f, counts))
        norm, den = _times(f, num, R)[0], self.den
        if norm < 0:
            norm, den = -norm, -den
        return _reduced(M, tuple([den * r for r in R]), norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = CycNumber.one()
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.M == o.M:
            return self.den == o.den and self.num == o.num
        a, b = CycNumber._common(self, o)
        return a.den == b.den and a.num == b.num

    __hash__ = None  # mutable-free but conductor-sensitive; not a dict key

    # -- roots of unity -------------------------------------------------

    def as_root_exponent(self):
        """Return k with self = zeta_M^k, or None if self is no such power."""
        if self.den != 1:
            return None
        return _field(self.M).exp_of.get(self.num)

    def sqrt_root(self) -> "CycNumber":
        """Canonical square-root branch for roots of unity:
        zeta_M^k (k the canonical exponent in [0, M)) maps to zeta_{2M}^k."""
        k = self.as_root_exponent()
        if k is None:
            raise NotRootOfUnity(f"{self!r} is not a power of zeta_{self.M}")
        return root_of_unity(2 * self.M, k)

    # -- serialization ---------------------------------------------------

    def to_json(self):
        """The value at its minimal conductor, coefficients as "p/q" strings."""
        x = _minimal(self)
        return {
            "M": x.M,
            "coeffs": [f"{c.numerator}/{c.denominator}" for c in x.coeffs],
        }

    @staticmethod
    def from_json(obj) -> "CycNumber":
        if isinstance(obj, (int, str)):
            return CycNumber(1, (_parse_fraction(obj),))
        if not isinstance(obj, dict):
            raise ValueError(f"cannot parse CycNumber from {obj!r}")
        if "zeta" in obj:
            z = obj["zeta"]
            if not (
                isinstance(z, (list, tuple)) and len(z) == 2 and all(type(v) is int for v in z)
            ):
                raise ValueError(f"expected 'zeta' as two integers [M, k], got {z!r}")
            return root_of_unity(z[0], z[1])
        m = obj["M"]
        if type(m) is not int:
            raise ValueError(f"expected an integer conductor 'M', got {m!r}")
        coeffs = obj["coeffs"]
        if not isinstance(coeffs, (list, tuple)):
            raise ValueError(f"expected 'coeffs' as a list, got {coeffs!r}")
        return CycNumber(m, tuple(_parse_fraction(c) for c in coeffs))

    def __repr__(self):
        x = _minimal(self)
        coeffs = x.coeffs
        if x.is_rational():
            return str(coeffs[0])
        k = x.as_root_exponent()
        if k is not None:
            return f"zeta({x.M})^{k}"
        if x.M % 2:  # -zeta_M^k = zeta_2M^(2k+M), a root that Q(zeta_M) holds
            k = (-x).as_root_exponent()
            if k is not None:
                return f"zeta({2 * x.M})^{(2 * k + x.M) % (2 * x.M)}"
        terms = []
        for i, c in enumerate(coeffs):
            if c:
                terms.append(f"{c}*z^{i}" if i else str(c))
        return f"Cyc({x.M}: " + " + ".join(terms) + ")"


def _parse_fraction(x) -> Fraction:
    """An integer or a "p/q" string as a Fraction; ValueError otherwise."""
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"expected an integer or a 'p/q' string, got {x!r}")


def _as_coeff(c) -> CycNumber:
    """A CycNumber as is; an int, Fraction or other rational as a CycNumber."""
    if isinstance(c, CycNumber):
        return c
    return CycNumber.rational(c)


def root_of_unity(M: int, k: int) -> CycNumber:
    """zeta_M^k as a reduced CycNumber (k taken mod M)."""
    f = _field(M)
    k %= M
    unit = f.units[k]
    if unit is None:
        unit = _make(M, f.powers[k], 1)
        f.units[k] = unit
    return unit
