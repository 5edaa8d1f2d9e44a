"""Rational quantum torus specifications and their commutation data.

A TorusSpec pins down the rank d, the order N of the root of unity, and a
skew-symmetric (mod N) exponent matrix A.  Monomial commutation is governed
by the cocycle

    sigma(n, m) = zeta_N ** sum_{i<j} A[j][i] * n[j] * m[i]

and the commutation form f(n, m) = sigma(n, m) / sigma(m, n), whose exponent
collapses to n^T A m mod N.  The radical of f is the congruence lattice
{n : A n == 0 (mod N)}; monomials supported there are exactly the central
ones.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple, Optional

from .cyclotomic import CycNumber, root_of_unity
from .errors import ConfigError
from .lattice import det_of_hnf, hnf_contains, kernel_mod

# The largest rank accepted.  Work at every layer grows with d (V's bracket
# law alone walks d^4 quadruples), and natural(d) already stops at 32 through
# glmodules.MAX_DIM, so a larger d is refused before any field is built.
MAX_RANK = 32


class RadicalBasis(NamedTuple):
    """Canonical description of rad(f) as a sublattice of Z^d."""

    basis: tuple[tuple[int, ...], ...]
    axis_orders: tuple[int, ...]
    diagonal: bool
    diagonal_orders: Optional[tuple[int, ...]]
    index: int

    def contains(self, n) -> bool:
        return hnf_contains(self.basis, n)

    def to_json(self):
        return {
            "basis": [list(r) for r in self.basis],
            "axis_orders": list(self.axis_orders),
            "diagonal": self.diagonal,
            "diagonal_orders": list(self.diagonal_orders) if self.diagonal_orders else None,
            "index": self.index,
        }


class TorusSpec:
    """Validated (d, N, A) triple; immutable once constructed."""

    __slots__ = ("d", "N", "A", "corrupt_sigma", "_radical", "_roots", "_lower", "_rows")

    def __init__(self, d: int, N: int, A, corrupt_sigma: bool = False):
        if d < 1:
            raise ConfigError("rank d must be >= 1")
        if d > MAX_RANK:
            raise ConfigError(f"rank d = {d} is above the ceiling of {MAX_RANK}")
        if N < 1:
            raise ConfigError("order N must be >= 1")
        rows = [list(int(x) % N for x in row) for row in A]
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ConfigError("exponent matrix A must be d x d")
        for i in range(d):
            if rows[i][i] % N:
                raise ConfigError("diagonal of A must vanish mod N")
            for j in range(d):
                if (rows[i][j] + rows[j][i]) % N:
                    raise ConfigError("A must be skew-symmetric mod N")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "A", tuple(tuple(r) for r in rows))
        object.__setattr__(self, "corrupt_sigma", bool(corrupt_sigma))
        object.__setattr__(self, "_radical", None)
        object.__setattr__(self, "_roots", [root_of_unity(N, k) for k in range(N)])
        # the nonzero terms of the cocycle exponent and of A n, found once
        lower = tuple((j, i, rows[j][i]) for j in range(d) for i in range(j) if rows[j][i])
        nonzero = tuple(tuple((j, a) for j, a in enumerate(r) if a) for r in rows if any(r))
        object.__setattr__(self, "_lower", lower)
        object.__setattr__(self, "_rows", nonzero)

    def __setattr__(self, *a):
        raise AttributeError("TorusSpec is immutable")

    @classmethod
    def from_upper(cls, d: int, N: int, upper: dict) -> "TorusSpec":
        """Build from the strictly upper-triangular entries {(i, j): a}, 0-based."""
        rows = [[0] * d for _ in range(d)]
        for (i, j), a in upper.items():
            if not 0 <= i < j < d:
                raise ConfigError("upper entries need 0 <= i < j < d")
            rows[i][j] = a % N
            rows[j][i] = (-a) % N
        return cls(d, N, rows)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, TorusSpec)
            and self.d == other.d
            and self.N == other.N
            and self.A == other.A
            and self.corrupt_sigma == other.corrupt_sigma
        )

    def __hash__(self):
        return hash((self.d, self.N, self.A, self.corrupt_sigma))

    def __repr__(self):
        return f"TorusSpec(d={self.d}, N={self.N}, A={[list(r) for r in self.A]})"

    # -- cocycle and commutation form -----------------------------------

    def _point(self, n) -> tuple[int, ...]:
        t = tuple(n)
        if len(t) != self.d:
            raise ConfigError(f"lattice point {n!r} has wrong length for rank {self.d}")
        if any(type(x) is not int for x in t):
            raise ConfigError(f"lattice point {n!r} must have integer coordinates")
        return t

    def sigma_exp(self, n, m) -> int:
        e = 0
        for j, i, a in self._lower:
            e += a * n[j] * m[i]
        if self.corrupt_sigma and any(n) and any(m):
            e += 1  # deliberate cocycle-law breakage for harness fixtures
        return e % self.N

    def _sigma_forms(self, k):
        """sigma(k, .) and sigma(., k) as linear forms mod N: sigma_exp(k, n)
        and sigma_exp(n, k) are their dot products with n."""
        left, right = [0] * self.d, [0] * self.d
        for j, i, a in self._lower:
            left[i] += a * k[j]
            right[j] += a * k[i]
        return tuple([x % self.N for x in left]), tuple([x % self.N for x in right])

    def sigma(self, n, m) -> CycNumber:
        return self._roots[self.sigma_exp(n, m)]

    def comm_factor(self, n, m) -> CycNumber:
        """f(n, m) = sigma(n, m) / sigma(m, n) = zeta_N^(n^T A m)."""
        return self.root(self.sigma_exp(n, m) - self.sigma_exp(m, n))

    def root(self, k: int) -> CycNumber:
        return self._roots[k % self.N]

    # -- radical ---------------------------------------------------------

    def in_radical(self, n) -> bool:
        return self._radical_point(self._point(n))

    def _radical_point(self, n) -> bool:
        """A n == 0 (mod N) for a validated lattice point n."""
        N = self.N
        for row in self._rows:
            e = 0
            for j, a in row:
                e += a * n[j]
            if e % N:
                return False
        return True

    def radical(self) -> RadicalBasis:
        cached = self._radical
        if cached is not None:
            return cached
        d, N = self.d, self.N
        basis = tuple(kernel_mod([list(r) for r in self.A], N))
        index = det_of_hnf(basis)
        axis = []
        for i in range(d):
            m = 1
            for j in range(d):
                a = self.A[j][i]
                m = lcm(m, N // gcd(N, a) if a else 1)
            axis.append(m)
        axis_orders = tuple(axis)
        diag = 1
        for m in axis_orders:
            diag *= m
        diagonal = diag == index
        result = RadicalBasis(
            basis=basis,
            axis_orders=axis_orders,
            diagonal=diagonal,
            diagonal_orders=axis_orders if diagonal else None,
            index=index,
        )
        object.__setattr__(self, "_radical", result)
        return result

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {"d": self.d, "N": self.N, "A": [list(r) for r in self.A]}

    @classmethod
    def from_json(cls, obj) -> "TorusSpec":
        try:
            d, n_ord, a = obj["d"], obj["N"], obj["A"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad torus spec: {exc}") from exc
        if not (
            type(d) is int
            and type(n_ord) is int
            and isinstance(a, list)
            and all(isinstance(row, list) and all(type(x) is int for x in row) for row in a)
        ):
            raise ConfigError("bad torus spec: d and N must be integers, A a list of integer rows")
        return cls(d, n_ord, a, corrupt_sigma=bool(obj.get("_corrupt_sigma", False)))


# the most residues N^d that enumerate_radical_residues walks by default
_RESIDUE_LIMIT = 100_000


def enumerate_radical_residues(spec: TorusSpec, limit: int = _RESIDUE_LIMIT):
    """All residues n mod N with A n == 0 (mod N); guard against blowup."""
    if spec.N**spec.d > limit:
        raise ValueError("residue enumeration too large")
    from itertools import product

    out = []
    for n in product(range(spec.N), repeat=spec.d):
        if spec.in_radical(n):
            out.append(n)
    return out
