"""Test-only oracle: the Fraction-backed CycNumber that the integer-backed
qtorus.cyclotomic.CycNumber replaced, kept as the reference that the
differential tests compare against.  Every coefficient is a Fraction; the
field tables and the arithmetic are the former implementation's, cut down
to the operations the tests compare.  Nothing under src/ imports it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from qtorus.cyclotomic import _check_conductor
from qtorus.errors import NotDivisible

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _divisors(m: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


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


class _Field:
    """Cached per-conductor data: Phi_M, power table, exponent lookup."""

    __slots__ = ("M", "phi", "poly", "powers", "powers_frac", "exp_of", "embeds", "units")

    def __init__(self, M: int):
        self.M = M
        polys: dict[int, list[int]] = {}
        for d in _divisors(M):
            p = [-1] + [0] * (d - 1) + [1]  # x^d - 1
            for e in _divisors(d):
                if e != d:
                    p = _poly_div_exact(p, polys[e])
            polys[d] = p
        self.poly = polys[M]
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
        self.powers_frac = [tuple(Fraction(c) for c in p) for p in powers]
        self.exp_of = {powers[k]: k for k in range(M)}
        self.embeds: dict[int, list[tuple[int, ...]]] = {}
        self.units: list["CycNumber" | None] = [None] * M


_FIELDS: dict[int, _Field] = {}


def _field(M: int) -> _Field:
    f = _FIELDS.get(M)
    if f is None:
        f = _FIELDS[M] = _Field(M)
    return f


def _embed_rows(src: _Field, M2: int) -> list[tuple[int, ...]]:
    rows = src.embeds.get(M2)
    if rows is None:
        ratio = M2 // src.M
        tgt = _field(M2)
        rows = [tgt.powers[i * ratio] for i in range(src.phi)]
        src.embeds[M2] = rows
    return rows


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    db = len(b) - 1
    while db >= 0 and b[db] == 0:
        db -= 1
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = [_ZERO] * max(len(a) - db, 1)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db] / b[db]
        q[k] = c
        if c:
            for i in range(db + 1):
                a[k + i] -= c * b[i]
    da = len(a) - 1
    while da >= 0 and a[da] == 0:
        da -= 1
    return q, a[: da + 1]


class CycNumber:
    """An element of Q(zeta_M), reduced mod the M-th cyclotomic polynomial."""

    __slots__ = ("M", "coeffs")

    def __init__(self, M: int, coeffs):
        self.M = M
        self.coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if len(self.coeffs) != _field(M).phi:
            raise ValueError("coefficient vector has wrong length for conductor")

    # -- basics --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def lift(self, M2: int) -> "CycNumber":
        """Re-express in Q(zeta_M2); M must divide M2."""
        if M2 == self.M:
            return self
        if M2 % self.M:
            raise NotDivisible(f"conductor {self.M} does not divide {M2}")
        _check_conductor(M2)
        rows = _embed_rows(_field(self.M), M2)
        phi2 = _field(M2).phi
        out = [_ZERO] * phi2
        for c, row in zip(self.coeffs, rows):
            if c:
                for i, r in enumerate(row):
                    if r:
                        out[i] += c * r
        return CycNumber(M2, out)

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
            return CycNumber(1, (Fraction(other),))
        return None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = CycNumber._common(self, o)
        return CycNumber(a.M, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = CycNumber._common(self, o)
        return CycNumber(a.M, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycNumber(self.M, tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # rational fast paths keep the hot loops cheap
        if self.M == 1:
            q = self.coeffs[0]
            if q == 1:
                return o
            return CycNumber(o.M, tuple(q * c for c in o.coeffs))
        if o.M == 1:
            q = o.coeffs[0]
            if q == 1:
                return self
            return CycNumber(self.M, tuple(q * c for c in self.coeffs))
        a, b = CycNumber._common(self, o)
        f = _field(a.M)
        phi = f.phi
        conv = [_ZERO] * (2 * phi - 1)
        bc = b.coeffs
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(bc):
                    if y:
                        conv[i + j] += x * y
        out = list(conv[:phi])
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                row = f.powers[k]
                for i, r in enumerate(row):
                    if r:
                        out[i] += c * r
        return CycNumber(a.M, out)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        if self.M == 1:
            return CycNumber(1, (1 / self.coeffs[0],))
        k = self.as_root_exponent()
        if k is not None:
            return root_of_unity(self.M, -k)
        f = _field(self.M)
        modulus = [Fraction(c) for c in f.poly]
        # extended Euclid for s with a*s = 1 mod Phi_M
        r0, r1 = modulus, list(self.coeffs)
        s0, s1 = [_ZERO], [_ONE]
        while True:
            d1 = len(r1) - 1
            while d1 >= 0 and r1[d1] == 0:
                d1 -= 1
            if d1 < 0:
                raise ZeroDivisionError("cyclotomic division by zero")
            if d1 == 0:
                inv = 1 / r1[0]
                out = [c * inv for c in s1]
                while len(out) > f.phi:
                    if out[-1] != 0:
                        raise ArithmeticError("inverse exceeds power-basis degree")
                    out.pop()
                out += [_ZERO] * (f.phi - len(out))
                return CycNumber(self.M, out)
            q, r = _poly_divmod(r0, r1[: d1 + 1])
            s_new = list(s0)
            s_new += [_ZERO] * (len(q) + len(s1) - 1 - len(s_new))
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        if sc:
                            s_new[i + j] -= qc * sc
            r0, r1 = r1, r
            s0, s1 = s1, s_new

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.M == o.M:
            return self.coeffs == o.coeffs
        a, b = CycNumber._common(self, o)
        return a.coeffs == b.coeffs

    __hash__ = None  # mutable-free but conductor-sensitive; not a dict key

    # -- roots of unity -------------------------------------------------

    def as_root_exponent(self):
        """Return k with self = zeta_M^k, or None if self is no such power."""
        return _field(self.M).exp_of.get(self.coeffs)

    # -- serialization ---------------------------------------------------

    def to_json(self):
        return {
            "M": self.M,
            "coeffs": [f"{c.numerator}/{c.denominator}" for c in self.coeffs],
        }

    def __repr__(self):
        k = self.as_root_exponent()
        if k is not None:
            if k == 0:
                return "1"
            return f"zeta({self.M})^{k}"
        if self.is_rational():
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*z^{i}" if i else str(c))
        return f"Cyc({self.M}: " + " + ".join(terms) + ")"


def root_of_unity(M: int, k: int) -> CycNumber:
    """zeta_M^k as a reduced CycNumber (k taken mod M)."""
    _check_conductor(M)
    f = _field(M)
    k %= M
    unit = f.units[k]
    if unit is None:
        unit = CycNumber(M, f.powers_frac[k])
        f.units[k] = unit
    return unit
