"""Finite-dimensional representations of the general linear Lie algebra.

A GlModule packages, for each pair (i, j), the matrix by which the (i, j)
matrix unit acts on a chosen basis.  Construction verifies the commutation
law of matrix units,

    [E_ij, E_kl] = delta_jk E_il - delta_li E_kj,

so an object that builds successfully really is a representation.  The law
is checked on the nonzero entries of the images: each product E_ij E_kl is
formed once as a sparse dict and compared, entry by entry, with the sparse
right-hand side.  All entries are normalized to exact cyclotomic numbers, and
no constructor builds a module of dimension above MAX_DIM.

Provided constructions: natural column vectors, their dual, symmetric and
exterior powers of the natural module, a scalar trace twist of any module,
and the one-dimensional trivial module.  matrix_of() assembles the image of
an arbitrary coefficient matrix, which is how the weight-module layer uses
these objects.  algebra_dim() is the one span closure of the package: the
dimension of the unital algebra a set of matrices generates, which by
Burnside's theorem is dim**2 exactly when the space is irreducible under
them.  It decides irreducibility for the gl probe on the matrix-unit images
and for the weight-module irreducibility probe.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

from .cyclotomic import CycNumber, _as_coeff, _parse_fraction
from .errors import BadPower, ConfigError, SpecMismatch

# The largest V a constructor builds.  Its d * d images are held as dense
# dim x dim matrices (natural(32) holds a million entries and builds in about
# 3 s), so a larger module is refused before any matrix is made.
MAX_DIM = 32


# -- small exact-matrix toolkit -------------------------------------------


def zero_matrix(rows: int, cols: int):
    z = CycNumber.zero()
    return [[z] * cols for _ in range(rows)]


def identity_matrix(n: int):
    z, o = CycNumber.zero(), CycNumber.one()
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    c = _as_coeff(c)
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = zero_matrix(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x.is_zero():
                continue
            bt = b[t]
            for j in range(m):
                y = bt[j]
                if not y.is_zero():
                    oi[j] = oi[j] + x * y
    return out


def mat_vec(a, v):
    out = []
    for row in a:
        acc = CycNumber.zero()
        for x, y in zip(row, v):
            if not (x.is_zero() or y.is_zero()):
                acc = acc + x * y
        out.append(acc)
    return out


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def matrix_as_scalar(M):
    """The scalar c with M = c*Id, or None."""
    c = M[0][0]
    for i, row in enumerate(M):
        for j, x in enumerate(row):
            if not (x == c if i == j else x.is_zero()):
                return None
    return c


def _sparse(M):
    """The nonzero entries of M as a dict (row, column) -> value."""
    return {
        (r, c): x for r, row in enumerate(M) for c, x in enumerate(row) if not x.is_zero()
    }


def _by_row(entries, n: int):
    """A sparse dict regrouped as n lists of (column, value), one per row."""
    rows = [[] for _ in range(n)]
    for (r, c), x in entries.items():
        rows[r].append((c, x))
    return rows


def _sparse_mul(a, b_rows):
    """The product of a sparse dict a with a matrix given by b_rows, sparse."""
    out = {}
    for (r, t), x in a.items():
        for c, y in b_rows[t]:
            z = x * y
            w = out.get((r, c))
            out[(r, c)] = z if w is None else w + z
    return out


class Span:
    """Row space in reduced echelon form over the cyclotomic field.  Vectors
    and rows are sparse: dicts from ordered coordinates to their nonzero
    entries, each row 1 at its pivot, its least coordinate."""

    def __init__(self):
        self.rows = {}  # pivot coordinate -> row

    def _reduce(self, vec):
        """The nonzero entries of vec less its parts along the rows.  A row is
        zero at every other pivot, so the pivots to clear are read once."""
        out = {j: _as_coeff(x) for j, x in vec.items()}
        out = {j: x for j, x in out.items() if not x.is_zero()}
        for piv in [j for j in out if j in self.rows]:
            _axpy(out, -out[piv], self.rows[piv])
        return out

    def insert(self, vec) -> bool:
        """Add a vector; True if it enlarged the span."""
        vec = self._reduce(vec)
        if not vec:
            return False
        piv = min(vec)
        inv = vec[piv].inverse()
        vec = {j: inv * x for j, x in vec.items()}
        for row in self.rows.values():
            c = row.get(piv)
            if c is not None:
                _axpy(row, -c, vec)
        self.rows[piv] = vec
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def _axpy(y, a, x):
    """y += a*x in place on sparse vectors, keeping only nonzero entries."""
    for j, v in x.items():
        w = y.get(j)
        w = a * v if w is None else w + a * v
        if w.is_zero():
            del y[j]
        else:
            y[j] = w


# -- representations -------------------------------------------------------


def _check_dim(dim: int, name: str) -> None:
    if dim > MAX_DIM:
        raise ConfigError(f"module {name} has dimension {dim}, above the ceiling of {MAX_DIM}")


class GlModule:
    __slots__ = ("d", "dim", "name", "E", "basis_labels", "_outer")

    def __init__(self, d: int, dim: int, E, name: str, basis_labels=None):
        self.d = d
        self.dim = dim
        self.name = name
        self.E = [
            [[[_as_coeff(x) for x in row] for row in E[i][j]] for j in range(d)]
            for i in range(d)
        ]
        self.basis_labels = list(basis_labels) if basis_labels is not None else list(range(dim))
        self._outer = {}
        self._verify_bracket_law()

    def _verify_bracket_law(self):
        """[E_ij, E_kl] = delta_jk E_il - delta_li E_kj on the nonzero entries
        of the images: each product E_ij E_kl is formed once, sparse, and
        read by the two quadruples whose commutators use it.  Quadruples go
        in lexicographic order, so the first failing one is reported."""
        d = self.d
        units = [_sparse(M) for Ei in self.E for M in Ei]  # E_ij at i * d + j
        rows = {p: _by_row(u, self.dim) for p, u in enumerate(units) if u}
        # only the nonzero products are held: d**4 empty dicts would not fit
        # for a large rank and a small V
        prods = {}
        for p in rows:
            for q, b in rows.items():
                ab = _sparse_mul(units[p], b)
                if ab:
                    prods[p, q] = ab
        empty, zero = {}, CycNumber.zero()
        for i in range(d):
            for j in range(d):
                p = i * d + j
                for k in range(d):
                    for l in range(d):
                        q = k * d + l
                        ab, ba = prods.get((p, q), empty), prods.get((q, p), empty)
                        rhs = dict(units[i * d + l]) if j == k else {}
                        if l == i:
                            for key, x in units[k * d + j].items():
                                y = rhs.get(key)
                                rhs[key] = -x if y is None else y - x
                        for key in ab.keys() | ba.keys() | rhs.keys():
                            if ab.get(key, zero) - ba.get(key, zero) != rhs.get(key, zero):
                                raise SpecMismatch(
                                    f"matrix-unit bracket law fails at ({i},{j},{k},{l})"
                                )

    def matrix_of(self, coeffs):
        """Image of the coefficient matrix sum_ij coeffs[i][j] E_ij."""
        out = zero_matrix(self.dim, self.dim)
        for i in range(self.d):
            for j in range(self.d):
                c = _as_coeff(coeffs[i][j])
                if not c.is_zero():
                    out = mat_add(out, mat_scale(self.E[i][j], c))
        return out

    def outer_image(self, r, u):
        """The image of r u^T = sum_ij r_i u_j E_ij for an integer vector r
        and a coefficient vector u, split as (c, W): the scalar matrix c*Id
        when W is None, else W itself, which is then not a scalar matrix.
        Built once per (r, u) and held here, so every caller shares one W."""
        key = (tuple(r), tuple((x.M, x.num, x.den) for x in u))
        hit = self._outer.get(key)
        if hit is None:
            W = self.matrix_of([[uj * ri for uj in u] for ri in r])
            c = matrix_as_scalar(W)
            hit = self._outer[key] = (c, None) if c is not None else (CycNumber.zero(), W)
        return hit

    def __repr__(self):
        return f"GlModule({self.name}, d={self.d}, dim={self.dim})"


def natural(d: int) -> GlModule:
    _check_dim(d, "natural")
    E = [
        [
            [[1 if (r == i and c == j) else 0 for c in range(d)] for r in range(d)]
            for j in range(d)
        ]
        for i in range(d)
    ]
    return GlModule(d, d, E, "natural")


def dual(d: int) -> GlModule:
    _check_dim(d, "dual")
    # E_ij acts by minus the transposed matrix unit
    E = [
        [
            [[-1 if (r == j and c == i) else 0 for c in range(d)] for r in range(d)]
            for j in range(d)
        ]
        for i in range(d)
    ]
    return GlModule(d, d, E, "dual")


def trivial(d: int) -> GlModule:
    E = [[[[0]] for _ in range(d)] for _ in range(d)]
    return GlModule(d, 1, E, "trivial")


def sym_power(d: int, k: int) -> GlModule:
    """Degree-k polynomials in the natural variables, derivation action."""
    if k < 1:
        raise BadPower("symmetric power degree must be at least 1")
    _check_dim(comb(d + k - 1, k), f"sym:{k}")
    basis = list(combinations_with_replacement(range(d), k))
    index = {b: t for t, b in enumerate(basis)}
    dim = len(basis)
    E = [[zero_matrix(dim, dim) for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            M = [[Fraction(0)] * dim for _ in range(dim)]
            for col, mono in enumerate(basis):
                mult = mono.count(j)
                if not mult:
                    continue
                pos = mono.index(j)
                target = tuple(sorted(mono[:pos] + mono[pos + 1 :] + (i,)))
                M[index[target]][col] += mult
            E[i][j] = M
    return GlModule(d, dim, E, f"sym:{k}", basis_labels=basis)


def ext_power(d: int, k: int) -> GlModule:
    """k-th exterior power of the natural module, with resorting signs."""
    if k < 1 or k > d:
        raise BadPower(f"exterior power degree {k} is outside 1..{d}")
    _check_dim(comb(d, k), f"ext:{k}")
    basis = list(combinations(range(d), k))
    index = {b: t for t, b in enumerate(basis)}
    dim = len(basis)
    E = [[zero_matrix(dim, dim) for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            M = [[Fraction(0)] * dim for _ in range(dim)]
            for col, wedge in enumerate(basis):
                if j not in wedge:
                    continue
                if i in wedge and i != j:
                    continue
                pos = wedge.index(j)
                replaced = wedge[:pos] + (i,) + wedge[pos + 1 :]
                unsorted = list(replaced)
                target = tuple(sorted(unsorted))
                # parity of the permutation sorting `replaced`
                inversions = sum(
                    1
                    for a in range(k)
                    for b in range(a + 1, k)
                    if unsorted[a] > unsorted[b]
                )
                sign = -1 if inversions % 2 else 1
                M[index[target]][col] += sign
            E[i][j] = M
    return GlModule(d, dim, E, f"ext:{k}", basis_labels=basis)


def trace_twist(base: GlModule, c) -> GlModule:
    """Shift every diagonal action E_ii by c * Id; off-diagonal unchanged."""
    c = _as_coeff(c)
    ident = identity_matrix(base.dim)
    E = [
        [
            mat_add(base.E[i][j], mat_scale(ident, c)) if i == j else base.E[i][j]
            for j in range(base.d)
        ]
        for i in range(base.d)
    ]
    return GlModule(base.d, base.dim, E, f"twist[{base.name}]", basis_labels=base.basis_labels)


def direct_sum(a: GlModule, b: GlModule) -> GlModule:
    """Block-diagonal sum; handy as a reducible specimen."""
    if a.d != b.d:
        raise SpecMismatch("summands represent different gl ranks")
    dim = a.dim + b.dim
    E = []
    for i in range(a.d):
        row = []
        for j in range(a.d):
            M = zero_matrix(dim, dim)
            for r in range(a.dim):
                for c in range(a.dim):
                    M[r][c] = a.E[i][j][r][c]
            for r in range(b.dim):
                for c in range(b.dim):
                    M[a.dim + r][a.dim + c] = b.E[i][j][r][c]
            row.append(M)
        E.append(row)
    return GlModule(a.d, dim, E, f"({a.name})+({b.name})")


def algebra_dim(mats, dim: int) -> int:
    """The dimension of the unital algebra that the dim x dim matrices
    generate.  By Burnside's theorem the space is irreducible under them,
    over the complex numbers, exactly when this is dim**2.  The algebra is
    the span of the identity and every word in the matrices, each held as
    its nonzero entries at (row, column); each round multiplies every
    element that enlarged the span in the round before by each matrix on the
    left, and the closure stops at dim**2 or after a round that adds
    nothing."""
    gens = [_sparse(M) for M in mats]
    span = Span()
    frontier = [{(i, i): CycNumber.one() for i in range(dim)}]
    span.insert(frontier[0])
    while frontier and span.dim < dim * dim:
        new = []
        for A in frontier:
            rows = _by_row(A, dim)
            for M in gens:
                P = _sparse_mul(M, rows)
                if span.insert(P):
                    new.append(P)
        frontier = new
    return span.dim


def parse_module(d: int, selector: str) -> GlModule:
    """Build a module from a compact selector string.

    Grammar: natural | trivial | dual | sym:k | ext:k | twist:c:SELECTOR
    where c is an integer or fraction like 1/2.
    """
    sel = selector.strip()
    if sel == "natural":
        return natural(d)
    if sel == "trivial":
        return trivial(d)
    if sel == "dual":
        return dual(d)
    if sel.startswith("sym:"):
        return sym_power(d, _parse_power(sel[4:]))
    if sel.startswith("ext:"):
        return ext_power(d, _parse_power(sel[4:]))
    if sel.startswith("twist:"):
        rest = sel[6:]
        head, _, tail = rest.partition(":")
        if not tail:
            raise BadPower(f"twist selector needs a scalar and a base: {selector!r}")
        try:
            scalar = _parse_fraction(head)
        except ValueError:
            raise BadPower(f"twist scalar must be rational, got {head!r}") from None
        return trace_twist(parse_module(d, tail), scalar)
    raise BadPower(f"unknown module selector: {selector!r}")


def _parse_power(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise BadPower(f"power degree must be an integer, got {text!r}") from None
