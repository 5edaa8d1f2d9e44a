"""Weight modules over the semidirect algebra, on every weight space of Z^d.

A module is V ⊗ (Laurent lattice), where V is a finite-dimensional gl
module.  The vector v ⊗ t^n is written v(n); the weight of v(n) under the
degree derivations is n + alpha for a fixed shift vector alpha.  Three
action flavors are supported, differing only in how the inner derivations
act (g is a multiplicative twist character, trivial on rad(f)):

    t^m      v(n) = sigma(m,n) v(m+n)                      (all flavors)
    D(u,r)   v(n) = sigma(r,n)((u,n+alpha) Id + r u^T) v(r+n)   (all flavors)
    ad t^s   v(n) = (sigma(s,n)        - sigma(n,s)) v(s+n)     flavor F
                    (sigma(s,n) g(s)   - sigma(n,s)) v(s+n)     flavor F_g
                    (sigma(s,n) - g(s) sigma(n,s))   v(s+n)     flavor G_g

Every weight space is a copy of V, so a homogeneous element x of degree k
maps the weight space at n to the one at n+k by one dim x dim matrix, its
symbol(x, n, ms).  That matrix is a*Id + b*W: the torus and inner terms and
the weight pairing give the scalar a, and the Witt term D(u, k) gives
b = sigma(k,n) and W, the image of k u^T on V, which V builds once per
(k, u) and holds (GlModule.outer_image); a scalar W, 0 included, is folded
into a.  So a symbol is a function of e1, e2 and u.n alone, where
sigma(k,n) = zeta_N^e1, sigma(n,k) = zeta_N^e2 and u.n = sum u_i n_i, and
each helper that walks weight points evaluates it once per operator and
distinct (e1, e2, u.n): a private record (_Operator) memoizes it for that
one call.  Two symbols sharing one W are equal exactly when their (a, b)
are, and the module code scales, adds, composes and compares symbols on
these parts.  A dense matrix is built only where two Witt parts meet, or
where a result is read: symbol(), weight_op_matrix(), a comparison with an
expected matrix, the irreducibility probe's algebra closure, and the
witness of a nonzero defect.

An operator expression sum_t c_t * (x_1 ... x_k) is built from one-term
compositions expr_of(x_1, ..., x_k), empty when a factor is zero, and acts
by the sum of c_t times the products of its factors' symbols at the shifted
points.  Every identity that qtorus.checks verifies on a module is written
once as an expression, lhs - rhs, and read by one evaluator: expr_defect_at
gives its first defect on the weight space at n against c Id, or against an
expected dim x dim matrix; expr_defects_at gives it at several (n, c) from
one compilation of the expression, so its operator records serve them all;
and expr_defects gives it at every point of the finite set that decides
the expression on all of Z^d (_points): one representative per coset of the
lattice on which every factor's sigma is constant, each read at a simplex
grid as deep as the most Witt factors in one term, or at a seeded sample of
those points; expr_first_defect gives the first.  A degree-zero expression,
such as T'(u, r) or the zero mode t^(-s) ad t^s, maps each weight space to
itself; _weight_symbol returns its symbol at n, and weight_op_matrix and
zero_mode_scalar read through it.  The irreducibility probe reads the weight
operators and the torus transports at the points that decide them, and
decides whether V is irreducible under the weight-operator matrices of every
radical row by Burnside's theorem: they must generate an algebra of
dimension dim**2 (glmodules.algebra_dim).  The box bounds only BoxVector, a
box-truncated vector to which act() applies one element, dropping (and
flagging) images pushed outside; nothing else reads one.

Two comparisons between modules are one diagonal-map test (_comparisons):
for a character c, v(n) |-> c(n) v(n + delta) carries x of degree k from one
action to the other exactly when c(k) symbol_a(x, n) = symbol_b(x, n + delta).
Each generator is one Witt or one inner term, so its defect is a sigma
factor times an affine or a commutator-character term, and the d + 1 points
0, e_1, ..., e_d decide it on all of Z^d; one all-pairs test
(_comparison_defect) reads them for a given c.  intertwiner_check (iso,
diagonal_intertwiner) takes G_g to F_(g^-1) with delta = 0 and c = g^-1;
search_twist_equivalence (search-beta) takes F_g to the plain module at
beta, delta = alpha - beta, and solves for c (_solve_character).
"""

from __future__ import annotations

from itertools import product as _iproduct
from math import gcd, lcm, prod

from .algebra import TorusElement
from .cyclotomic import CycNumber, _as_coeff, root_of_unity
from .derivations import DerElement
from .errors import ConfigError, NotCharacter, NotScalar, SpecMismatch
from .glmodules import GlModule, algebra_dim, mat_add, mat_eq, mat_mul
from .glmodules import mat_sub, mat_vec, matrix_as_scalar
from .lattice import hnf_rows, in_box, kernel_mod, neg, rand_point, rand_nonzero_point
from .lattice import rand_radical_point, shift, units
from .semidirect import GElement
from .torus import TorusSpec

_ZERO = CycNumber.zero()
_ONE = CycNumber.one()


# -- characters of the degree lattice ---------------------------------------


class DiagonalCharacter:
    """Multiplicative map Z^d -> roots of unity: n |-> zeta_M^<k, n>."""

    __slots__ = ("modulus", "exponents")

    def __init__(self, modulus: int, exponents):
        if modulus < 1:
            raise ConfigError("character modulus must be positive")
        self.modulus = modulus
        self.exponents = tuple(int(k) % modulus for k in exponents)

    def value(self, n) -> CycNumber:
        e = sum(k * x for k, x in zip(self.exponents, n))
        return root_of_unity(self.modulus, e)

    def inverse(self) -> "DiagonalCharacter":
        return DiagonalCharacter(self.modulus, tuple(-k for k in self.exponents))

    @property
    def is_trivial(self) -> bool:
        return all(k == 0 for k in self.exponents)

    def __eq__(self, other):
        if not isinstance(other, DiagonalCharacter):
            return NotImplemented
        d = len(self.exponents)
        return d == len(other.exponents) and all(self.value(e) == other.value(e) for e in units(d))

    __hash__ = None

    def __repr__(self):
        return f"DiagonalCharacter(M={self.modulus}, k={list(self.exponents)})"

    def to_json(self):
        return {"modulus": self.modulus, "exponents": list(self.exponents)}


class TwistCharacter(DiagonalCharacter):
    """Diagonal character additionally required to be trivial on rad(f)."""

    __slots__ = ("spec",)

    def __init__(self, spec: TorusSpec, modulus: int, exponents):
        super().__init__(modulus, exponents)
        if len(self.exponents) != spec.d:
            raise ConfigError("character exponent vector length must equal the rank")
        self.spec = spec
        for row in spec.radical().basis:
            if self.value(row) != _ONE:
                raise NotCharacter(f"twist character is not trivial on radical vector {list(row)}")

    @classmethod
    def trivial(cls, spec: TorusSpec) -> "TwistCharacter":
        return cls(spec, 1, (0,) * spec.d)

    def inverse(self) -> "TwistCharacter":
        return TwistCharacter(self.spec, self.modulus, tuple(-k for k in self.exponents))

    @classmethod
    def from_values(cls, spec: TorusSpec, values) -> "TwistCharacter":
        """Fit a character from its values on the unit vectors e_i.

        Values must be roots of unity; the conductor is the lcm of their
        orders.  Raises NotCharacter otherwise or if the result is not
        trivial on the radical.
        """
        orders, residues = [], []
        for v in values:
            k = v.as_root_exponent()
            if k is None:
                raise NotCharacter("sampled twist value is not a root of unity")
            g = gcd(k, v.M) if k else v.M
            orders.append(v.M // g)
            residues.append((k // g) % (v.M // g) if v.M // g > 1 else 0)
        m = lcm(*orders)
        exps = [r * (m // o) for r, o in zip(residues, orders)]
        return cls(spec, m, exps)

    @classmethod
    def from_json(cls, spec: TorusSpec, obj) -> "TwistCharacter":
        if obj is None:
            return cls.trivial(spec)
        if not (
            isinstance(obj, dict)
            and type(obj.get("modulus")) is int
            and isinstance(obj.get("exponents"), list)
            and all(type(k) is int for k in obj["exponents"])
        ):
            raise ConfigError('a twist needs an integer "modulus" and integer "exponents"')
        return cls(spec, obj["modulus"], obj["exponents"])


FLAVORS = ("F", "F_g", "G_g")


class ModuleSpec:
    """All the data selecting one weight module: torus, gl module V,
    weight shift alpha, twist character, and action flavor."""

    __slots__ = ("spec", "V", "alpha", "twist", "flavor")

    def __init__(self, spec: TorusSpec, V: GlModule, alpha, twist: TwistCharacter, flavor: str):
        if V.d != spec.d:
            raise ConfigError("gl rank of V must equal the torus rank")
        if flavor not in FLAVORS:
            raise ConfigError(f"flavor must be one of {FLAVORS}, got {flavor!r}")
        alpha = tuple(_as_coeff(a) for a in alpha)
        if len(alpha) != spec.d:
            raise ConfigError("alpha must have one entry per rank")
        if twist.spec != spec:
            raise ConfigError("twist character was validated against a different spec")
        if flavor == "F" and not twist.is_trivial:
            raise ConfigError("flavor F requires the constant-1 twist")
        self.spec, self.V, self.alpha, self.twist, self.flavor = spec, V, alpha, twist, flavor

    def label(self) -> str:
        a = ",".join(str(x.as_rational()) if x.is_rational() else repr(x) for x in self.alpha)
        return f"d={self.spec.d},N={self.spec.N};V={self.V.name};alpha=({a});flavor={self.flavor}"

    def __repr__(self):
        return f"ModuleSpec({self.label()})"


# -- box-truncated vectors ---------------------------------------------------


class BoxVector:
    __slots__ = ("box", "dim", "entries", "truncated")

    def __init__(self, box, dim: int, entries=None, truncated: bool = False):
        self.box = tuple(box)
        if any(type(r) is not int or r < 0 for r in self.box):
            raise ConfigError("box radii must be nonnegative integers")
        if type(dim) is not int:
            raise ConfigError("a box vector's dim must be an integer")
        self.dim, self.entries, self.truncated = dim, {}, truncated
        if entries:
            for n, w in entries.items():
                self._add(tuple(n), tuple(_as_coeff(x) for x in w))

    def _add(self, n, w):
        if len(w) != self.dim:
            raise SpecMismatch("weight-space vector has the wrong dimension")
        if not in_box(self.box, n):
            self.truncated = True
            return
        cur = self.entries.get(n)
        v = w if cur is None else tuple(a + b for a, b in zip(cur, w))
        if any(not x.is_zero() for x in v):
            self.entries[n] = v
        else:
            self.entries.pop(n, None)

    @classmethod
    def basis_vector(cls, box, dim, n, t) -> "BoxVector":
        w = [CycNumber.zero()] * dim
        w[t] = CycNumber.one()
        return cls(box, dim, {tuple(n): w})

    def get(self, n):
        return self.entries.get(tuple(n), (CycNumber.zero(),) * self.dim)

    def is_zero(self) -> bool:
        return not self.entries

    def support(self):
        return sorted(self.entries)

    def __add__(self, other):
        if not isinstance(other, BoxVector):
            return NotImplemented
        if self.box != other.box or self.dim != other.dim:
            raise SpecMismatch("box vectors live in different truncations")
        out = BoxVector(self.box, self.dim, truncated=self.truncated or other.truncated)
        out.entries = dict(self.entries)
        for n, w in other.entries.items():
            out._add(n, w)
        return out

    def __neg__(self):
        out = BoxVector(self.box, self.dim, truncated=self.truncated)
        out.entries = {n: tuple(-x for x in w) for n, w in self.entries.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, BoxVector):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "BoxVector":
        c = _as_coeff(c)
        out = BoxVector(self.box, self.dim, truncated=self.truncated)
        if not c.is_zero():
            out.entries = {n: tuple(c * x for x in w) for n, w in self.entries.items()}
        return out

    def __eq__(self, other):
        if not isinstance(other, BoxVector):
            return NotImplemented
        if self.box != other.box or set(self.entries) != set(other.entries):
            return False
        return all(
            all(a == b for a, b in zip(w, other.entries[n]))
            for n, w in self.entries.items()
        )

    __hash__ = None

    def __repr__(self):
        bits = [f"v{list(n)}:{[repr(x) for x in w]}" for n, w in sorted(self.entries.items())]
        flag = " (truncated)" if self.truncated else ""
        return ("0" if not bits else " + ".join(bits)) + flag

    def to_json(self):
        return {
            "box": list(self.box),
            "dim": self.dim,
            "truncated": self.truncated,
            "entries": [
                {"n": list(n), "w": [x.to_json() for x in w]}
                for n, w in sorted(self.entries.items())
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "BoxVector":
        truncated = obj.get("truncated", False)
        if type(truncated) is not bool:
            raise ConfigError('vector "truncated" must be true or false')
        out = cls(obj["box"], obj["dim"], truncated=truncated)
        for row in obj.get("entries", ()):
            n = tuple(row["n"])
            if len(n) != len(out.box) or any(type(x) is not int for x in n):
                raise ConfigError(f"vector point {row['n']!r} must have one integer per box axis")
            out._add(n, tuple(CycNumber.from_json(x) for x in row["w"]))
        return out


# -- the action ---------------------------------------------------------------


def _as_gelement(x) -> GElement:
    if isinstance(x, GElement):
        return x
    if isinstance(x, DerElement):
        return GElement.from_der(x)
    if isinstance(x, TorusElement):
        return GElement.from_torus(x)
    raise SpecMismatch(f"cannot act by {type(x).__name__}")


def _inner_phase(ms: ModuleSpec, s, n, sig, g) -> CycNumber:
    """The scalar by which ad t^s maps v(n) to v(s+n), per flavor, given
    sig = sigma(s,n) and g = g(s)."""
    rev = ms.spec.sigma(n, s)
    if ms.flavor == "F":
        return sig - rev
    if ms.flavor == "F_g":
        return sig * g - rev
    return sig - g * rev  # G_g


def _weight_pairing(ms: ModuleSpec, u, n) -> CycNumber:
    """(u, n + alpha): the scalar part of D(u, r) on v(n)."""
    out = CycNumber.zero()
    for ui, ni, ai in zip(u, n, ms.alpha):
        if not ui.is_zero():
            out = out + ui * (ai + ni)
    return out


class _Symbol:
    """The matrix a*Id + b*W by which an operator maps one weight space to
    another.  W is None for a scalar matrix (b is then 0); otherwise W is
    never a scalar matrix and b is nonzero, so two symbols sharing one W are
    equal exactly when their (a, b) are.  W is the image of k u^T that V
    holds (GlModule.outer_image), or the dense matrix made where two Witt
    parts meet."""

    __slots__ = ("a", "b", "W")

    def __init__(self, a, b=_ZERO, W=None):
        if W is None or b.is_zero():
            b, W = _ZERO, None
        self.a, self.b, self.W = a, b, W

    @classmethod
    def of_matrix(cls, M) -> "_Symbol":
        c = matrix_as_scalar(M)
        return cls(c) if c is not None else cls(_ZERO, _ONE, M)

    def is_zero(self) -> bool:
        return self.W is None and self.a.is_zero()

    def matrix(self, dim: int):
        """The dense dim x dim matrix."""
        a, b, W = self.a, self.b, self.W
        if W is None:
            return [[a if i == j else _ZERO for j in range(dim)] for i in range(dim)]
        return [
            [a + b * x if i == j else b * x for j, x in enumerate(row)]
            for i, row in enumerate(W)
        ]

    def scale(self, c) -> "_Symbol":
        if self.W is None:
            return _Symbol(c * self.a)
        return _Symbol(c * self.a, c * self.b, self.W)

    def __neg__(self):
        return _Symbol(-self.a, -self.b, self.W)

    def __add__(self, o):
        if o.W is None:
            return _Symbol(self.a + o.a, self.b, self.W)
        if self.W is None:
            return _Symbol(self.a + o.a, o.b, o.W)
        if self.W is o.W:
            return _Symbol(self.a + o.a, self.b + o.b, self.W)
        dim = len(self.W)
        return _Symbol.of_matrix(mat_add(self.matrix(dim), o.matrix(dim)))

    def __sub__(self, o):
        return self + -o

    def __mul__(self, o):
        """Composition: self applied after o."""
        if self.W is None:
            return o.scale(self.a)
        if o.W is None:
            return self.scale(o.a)
        dim = len(self.W)
        return _Symbol.of_matrix(mat_mul(self.matrix(dim), o.matrix(dim)))

    def __eq__(self, o):
        if self.W is o.W:
            return self.a == o.a and self.b == o.b
        if self.W is None or o.W is None:
            return False
        dim = len(self.W)
        return mat_eq(self.matrix(dim), o.matrix(dim))

    __hash__ = None


_ZERO_SYMBOL = _Symbol(_ZERO)


def _part_symbol(x: GElement, k, n, ms: ModuleSpec, g=None) -> _Symbol:
    """Symbol of the degree-k part of x at n: its torus and inner terms give
    a scalar, its Witt term sigma(k,n)((u, n+alpha) Id + W).  g is the twist
    at k, read here when x has an inner term and no g is given."""
    sig = ms.spec.sigma(k, n)
    a, b, W = _ZERO, _ZERO, None
    c = x.torus.terms.get(k)
    if c is not None:
        a = c * sig
    c = x.der.inner.get(k)
    if c is not None:
        a = a + c * _inner_phase(ms, k, n, sig, ms.twist.value(k) if g is None else g)
    u = x.der.witt.get(k)
    if u is not None:
        w, W = ms.V.outer_image(k, u)
        a = a + sig * (_weight_pairing(ms, u, n) + w)
        b = sig
    return _Symbol(a, b, W)


class _Operator:
    """The degree-k part of x acting on one module, for the span of the
    helper call that builds it.  Its symbol depends on n only through
    sigma(k,n) = zeta_N^e1, sigma(n,k) = zeta_N^e2 (read by an inner term)
    and u.n = sum u_i n_i (read by a Witt term's pairing), so at(n) calls
    _part_symbol once per distinct key of n: e1, e2 when x has an inner term,
    and u.n, exactly, when it has a Witt term.  The twist g(k) of an inner
    term does not depend on n, and is read once."""

    __slots__ = ("x", "k", "ms", "inner", "g", "rows", "memo")

    def __init__(self, x: GElement, k, ms: ModuleSpec):
        self.x, self.k, self.ms, self.memo = x, k, ms, {}
        self.inner, u, self.rows = k in x.der.inner, x.der.witt.get(k), None
        self.g = ms.twist.value(k) if self.inner else None
        if u is not None:  # u.n = (R n) . (1, zeta_M, zeta_M^2, ...) / D, R an integer matrix
            M, D = lcm(*(c.M for c in u)), lcm(*(c.den for c in u))
            u = [c if c.M == M else c.lift(M) for c in u]
            self.rows = tuple(zip(*([a * (D // c.den) for a in c.num] for c in u)))

    def at(self, n) -> _Symbol:
        e, k, rows = self.ms.spec.sigma_exp, self.k, self.rows
        un = rows and tuple([sum([a * x for a, x in zip(row, n)]) for row in rows])
        key = e(k, n), e(n, k) if self.inner else None, un
        S = self.memo.get(key)
        if S is None:
            S = self.memo[key] = _part_symbol(self.x, self.k, n, self.ms, self.g)
        return S


def act(x, w: BoxVector, ms: ModuleSpec) -> BoxVector:
    """Apply one algebra element to a box vector: each homogeneous part x_k
    of x maps w(n) to symbol(x_k, n) w(n) at n + k.  An image outside the box
    is dropped and marks the result truncated, unless it comes from a lone
    inner term that vanishes at n (that term does not act there)."""
    x = _as_gelement(x)
    if x.spec != ms.spec:
        raise SpecMismatch("element and module live over different torus specs")
    if w.dim != ms.V.dim:
        raise SpecMismatch("vector dimension does not match V")
    out = BoxVector(w.box, w.dim, truncated=w.truncated)
    acting = set(x.torus.terms) | set(x.der.witt)
    ops = [_Operator(x, k, ms) for k in acting | set(x.der.inner)]
    for n, coords in w.entries.items():
        for op in ops:
            S = op.at(n)
            if op.k in acting or not S.is_zero():
                out._add(shift(op.k, n), tuple(mat_vec(S.matrix(w.dim), coords)))
    return out


def symbol(x, n, ms: ModuleSpec):
    """Matrix by which the homogeneous element x maps the weight space at n
    to the one at n + deg x (the zero element gives the zero matrix).

    A homogeneous x has at most one torus, one inner and one Witt term, all
    of degree k, so the matrix is a scalar times Id plus sigma(k,n) times the
    image W of k u^T on V; column t is act(x, v_t(n)) read at n + k."""
    if x.spec != ms.spec:
        raise SpecMismatch("element and module live over different torus specs")
    S = _ZERO_SYMBOL if x.is_zero() else _part_symbol(x, _degree_of(x), n, ms)
    return S.matrix(ms.V.dim)


# -- formal operator expressions ----------------------------------------------
#
# An OpExpr is a list of (coefficient, [factors]) terms; factors are
# homogeneous algebra elements applied right to left.  Homogeneity makes each
# factor one symbol per weight space, and so a finite set of points decides an
# expression on all of Z^d (_points).


def _degree_of(x: GElement):
    degs = set(x.der.inner) | set(x.der.witt) | set(x.torus.terms)
    if len(degs) != 1:
        raise SpecMismatch("operator factors must be homogeneous of a single degree")
    return next(iter(degs))


def expr_of(*factors) -> list:
    """The one-term composition of the factors (applied right to left), or
    the empty expression when any factor is the zero element."""
    factors = [_as_gelement(x) for x in factors]
    if any(x.is_zero() for x in factors):
        return []
    return [(CycNumber.one(), factors)]


def expr_scale(e, c) -> list:
    c = _as_coeff(c)
    return [(c * ce, fs) for ce, fs in e]


def expr_sum(*exprs) -> list:
    return [term for e in exprs for term in e]


def expr_neg(e) -> list:
    return [(-c, fs) for c, fs in e]


def expr_mul(a, b) -> list:
    """Composition: every term of `a` applied after every term of `b`."""
    return [(ca * cb, fa + fb) for ca, fa in a for cb, fb in b]


def expr_commutator(a, b) -> list:
    return expr_sum(expr_mul(a, b), expr_neg(expr_mul(b, a)))


def _compile(expr, ms: ModuleSpec):
    """The expression's terms as (c, operators in the order they act), with
    one operator record (_Operator) per distinct factor, shared by the
    terms that hold it."""
    ops = []
    for f in (f for _, fs in expr for f in fs):
        if not any(o.x is f for o in ops):
            ops.append(_Operator(f, _degree_of(f), ms))
    return [(c, [next(o for o in ops if o.x is f) for f in reversed(fs)]) for c, fs in expr]


def _points(terms, ms: ModuleSpec):
    """The points that decide a compiled expression on all of Z^d, as
    (count, point): point(i) is the i-th of count points, one coset
    representative after another in lexicographic order, each read at its
    grid.

    A factor of degree k reads n through sigma(k, n) = zeta_N^e1 and, with
    an inner term, sigma(n, k) = zeta_N^e2: e1 and e2 are linear forms in n
    mod N (at a shifted point they move by a constant).  A Witt term reads n
    through (u, n + alpha), of degree 1.  So on each coset of
    K = {n : every such form vanishes mod N} the expression's defect is one
    polynomial in n, of degree at most T, the most Witt factors in one term.
    K holds N Z^d, so the coset of c holds the simplex grid c + N j, j >= 0
    with |j| <= T, and a polynomial of degree at most T that vanishes on it
    is zero.  The representatives are the points of prod [0, p_i), p_i the
    pivots of K's Hermite basis (lattice.kernel_mod of the forms stacked on
    N Id).  This holds for sigma from A; a corrupted sigma is not periodic,
    and there the points are probes."""
    d, N = ms.spec.d, ms.spec.N
    forms = set()
    for op in (op for _, term in terms for op in term):
        left, right = ms.spec._sigma_forms(op.k)
        forms.add(left)
        if op.inner:
            forms.add(right)
    forms.discard((0,) * d)
    pivots = [1] * d
    if forms:
        basis = kernel_mod(hnf_rows([*forms, *(tuple(N * x for x in e) for e in units(d))]), N)
        pivots = [row[i] for i, row in enumerate(basis)]
    # op.rows is set exactly for a factor with a Witt term
    T = max((sum(op.rows is not None for op in term) for _, term in terms), default=0)
    grid = [j for j in _iproduct(range(T + 1), repeat=d) if sum(j) <= T]

    def point(i):
        c, g = divmod(i, len(grid))
        n = [0] * d
        for a in reversed(range(d)):
            c, n[a] = divmod(c, pivots[a])
        return tuple([x + N * j for x, j in zip(n, grid[g])])

    return prod(pivots) * len(grid), point


def _expr_symbols(terms, n):
    """{target point: symbol} of a compiled expression on the weight space
    at n: each term is c times the product of its factors' symbols at the
    points it passes through; terms with the same target add up."""
    out = {}
    for c, ops in terms:
        p, S = n, None
        for op in ops:
            T = op.at(p)
            S = T if S is None else T * S
            p = shift(p, op.k)
        if c.M != 1 or c != _ONE:  # a rational c is compared without a lift
            S = S.scale(c)
        out[p] = out[p] + S if p in out else S
    return out


def _first_nonzero(*mats):
    """Deterministic witness: the first nonzero entry scanning column by
    column, through the matrices in order, then down the rows; None if all
    vanish."""
    for t in range(len(mats[0]) if mats else 0):
        for M in mats:
            for row in M:
                if not row[t].is_zero():
                    return row[t]
    return None


def expr_defect_at(expr, ms: ModuleSpec, n, c=0):
    """The first defect of the expression on the weight space at n against
    c, or None when they agree.  c is a scalar, standing for c Id, or a
    dim x dim matrix.  Every weight space is a copy of V, so a nonzero c
    needs one net degree k, and c is the expected map from v(n) to v(n + k).
    A scalar is compared on the symbol's parts, a matrix densely.  The
    defect is the first nonzero entry of the difference, by source basis
    vector, target point and coordinate."""
    return _defect_at(_compile(expr, ms), ms, tuple(n), c)


def expr_defects_at(expr, ms: ModuleSpec, points):
    """The defect (expr_defect_at) of the expression at each (n, c) of
    `points`, in their order, each as the caller asks for it.  The
    expression is compiled once, so every point reads the same operator
    records (_Operator)."""
    terms = _compile(expr, ms)
    for n, c in points:
        yield _defect_at(terms, ms, tuple(n), c)


def _defect_at(terms, ms: ModuleSpec, n, c=0):
    """expr_defect_at on a compiled expression."""
    images = _expr_symbols(terms, n)
    dense = isinstance(c, list)
    if not dense:
        c = _as_coeff(c)
    if dense or not c.is_zero():
        if len(images) > 1:
            raise SpecMismatch("an expression compared with c needs one net degree")
        p = next(iter(images), n)
        S = images.get(p, _ZERO_SYMBOL)
        images[p] = _Symbol.of_matrix(mat_sub(S.matrix(ms.V.dim), c)) if dense else S - _Symbol(c)
    return _first_nonzero(
        *(S.matrix(ms.V.dim) for _, S in sorted(images.items()) if not S.is_zero())
    )


def expr_defects(expr, ms: ModuleSpec, expect=None, rng=None, limit=None):
    """The defect (expr_defect_at) of the expression against expect(n), or
    against 0 when expect is None, at each point of the set that decides it
    on all of Z^d (_points), in order: with sigma from A, the identity holds
    everywhere exactly when every defect is None.  With rng and limit set, a
    seeded sample of limit points is read instead, drawn by index."""
    terms = _compile(expr, ms)
    count, point = _points(terms, ms)
    picked = range(count)
    if rng is not None and limit is not None and count > limit:
        picked = sorted(rng.sample(picked, limit))
    for i in picked:
        n = point(i)
        yield _defect_at(terms, ms, n, 0 if expect is None else expect(n))


def expr_first_defect(expr, ms: ModuleSpec, rng=None, limit=None):
    """The first defect of expr_defects against 0, or None when the
    expression vanishes at every point it reads."""
    return next((d for d in expr_defects(expr, ms, rng=rng, limit=limit) if d is not None), None)


def _weight_symbol(expr, ms: ModuleSpec, n) -> _Symbol:
    """Symbol of a degree-zero expression on the weight space at n: the zero
    symbol for the empty expression."""
    n = tuple(n)
    return _expr_symbols(_compile(expr, ms), n)[n] if expr else _ZERO_SYMBOL


# -- named operators -----------------------------------------------------------


def op_torus(spec, m) -> GElement:
    return GElement.from_torus(TorusElement.monomial(spec, m))


def op_inner(spec, s) -> GElement:
    return GElement.from_der(DerElement.ad(spec, s))


def op_witt(spec, u, r) -> GElement:
    return GElement.from_der(DerElement.witt_term(spec, u, r))


def weight_op_expr(ms: ModuleSpec, u, r) -> list:
    """T'(u,r) = t^(-r) D(u,r) - sigma(-r,r) D(u,0): degree zero on weights."""
    spec = ms.spec
    r = spec._point(r)
    u = [_as_coeff(x) for x in u]
    if all(x.is_zero() for x in u):
        return []
    zero = (0,) * spec.d
    head = expr_of(op_torus(spec, neg(r)), op_witt(spec, u, r))
    tail = expr_scale(expr_of(op_witt(spec, u, zero)), spec.sigma(neg(r), r))
    return expr_sum(head, expr_neg(tail))


def weight_op_matrix(ms: ModuleSpec, u, r, n):
    """Matrix of the degree-zero weight operator on the weight space at n."""
    return _weight_symbol(weight_op_expr(ms, u, r), ms, n).matrix(ms.V.dim)


def zero_mode_expr(ms: ModuleSpec, s) -> list:
    """t^(-s) ad t^s; the empty expression (zero operator) for radical s."""
    spec = ms.spec
    s = spec._point(s)
    return expr_of(op_torus(spec, neg(s)), op_inner(spec, s))


def zero_mode_scalar(ms: ModuleSpec, s, n) -> CycNumber:
    """The scalar by which t^(-s) ad t^s acts on the weight space at n.

    Raises NotScalar if the restricted operator is not a scalar matrix."""
    S = _weight_symbol(zero_mode_expr(ms, s), ms, n)
    if S.W is not None:
        raise NotScalar(f"zero-mode operator at degree {list(s)} is not scalar")
    return S.a


# -- relations of the ideal ----------------------------------------------------


def torus_product_relation_expr(ms: ModuleSpec, m, n) -> list:
    """t^m t^n - sigma(m,n) t^(m+n), as an operator expression."""
    spec = ms.spec
    m, n = spec._point(m), spec._point(n)
    mn = shift(m, n)
    return expr_sum(
        expr_of(op_torus(spec, m), op_torus(spec, n)),
        expr_scale(expr_of(op_torus(spec, mn)), -spec.sigma(m, n)),
    )


def _inner_minus_torus_expr(ms: ModuleSpec, k) -> list:
    spec = ms.spec
    k = spec._point(k)
    return expr_sum(expr_of(op_inner(spec, k)), expr_neg(expr_of(op_torus(spec, k))))


def c2_product_expr(ms: ModuleSpec, n, m) -> list:
    """(ad t^n - t^n)(ad t^m - t^m) + sigma(m,n)(ad t^(m+n) - t^(m+n))."""
    spec = ms.spec
    n, m = spec._point(n), spec._point(m)
    nm = shift(n, m)
    return expr_sum(
        expr_mul(_inner_minus_torus_expr(ms, n), _inner_minus_torus_expr(ms, m)),
        expr_scale(_inner_minus_torus_expr(ms, nm), spec.sigma(m, n)),
    )


def extract_twist(ms: ModuleSpec, rng) -> TwistCharacter:
    """Recover the twist character from zero-mode scalars at the origin.

    For flavors F and G_g: g(s) = 1 - sigma(s,s) lambda(s,0); flavor F_g
    carries the opposite sign: g(s) = 1 + sigma(s,s) lambda(s,0).  Values
    are taken on the unit vectors, fitted to a character, then verified
    multiplicatively at 8 points of radius 1 drawn from rng (none needed on
    the radical: ad t^s = 0 there, so g reads 1, as a TwistCharacter does)."""
    spec = ms.spec
    zero = (0,) * spec.d

    def g_at(s):
        val = spec.sigma(s, s) * zero_mode_scalar(ms, s, zero)
        out = _ONE + val if ms.flavor == "F_g" else _ONE - val
        if out.as_root_exponent() is None:
            raise NotCharacter(f"recovered twist value at {list(s)} is not a root of unity")
        return out

    char = TwistCharacter.from_values(spec, [g_at(e) for e in units(spec.d)])
    for _ in range(8):
        p = rand_point(rng, spec.d, 1)
        if g_at(p) != char.value(p):
            raise NotCharacter(f"twist values are not multiplicative: mismatch at {list(p)}")
    return char


def _generators(spec):
    """The derivation generators that a diagonal map is tested on: for each
    unit vector e, D(e, 0), then D(e, r) for each radical row r, then ad t^e
    unless it is zero."""
    zero = (0,) * spec.d
    gens = []
    for e in units(spec.d):
        gens.append(op_witt(spec, e, zero))
        gens += [op_witt(spec, e, r) for r in spec.radical().basis]
        x = op_inner(spec, e)
        if not x.is_zero():
            gens.append(x)
    return gens


def _comparisons(gens, ms_a, ms_b, delta):
    """(k, pairs) for each generator x, of degree k: the symbol pairs
    (S_a(x, n), S_b(x, n + delta)) at n = 0, e_1, ..., e_d.  v(n) |-> c(n)
    v(n + delta), for a character c, carries x from module a to module b
    exactly when D(n) = c(k) S_a(x, n) - S_b(x, n + delta) vanishes on Z^d.
    sigma from A is a bicharacter, so for a Witt generator D(n) = sigma(k, n)
    P(n), P affine, and for an inner one D(n) = sigma(n, k)(A f(k, n) - B),
    A, B constant, f(k, .) = sigma(k, .)/sigma(., k) a character that is not
    1 at some e_j (else ad t^k = 0): these d + 1 points decide either."""
    d = len(delta)
    points = [(0,) * d, *units(d)]
    for x in gens:
        k = _degree_of(x)
        op_a, op_b = _Operator(x, k, ms_a), _Operator(x, k, ms_b)
        yield k, [(op_a.at(n), op_b.at(shift(n, delta))) for n in points]


def _comparison_defect(c, comparisons, dim):
    """The first nonzero entry of c(k) S_a - S_b over every pair of every
    generator (_comparisons), or None when c carries them all."""
    for k, pairs in comparisons:
        c_k = c.value(k)
        for S_a, S_b in pairs:
            S = S_a.scale(c_k)
            if S != S_b:
                return _first_nonzero((S - S_b).matrix(dim))
    return None


def intertwiner_check(ms_G: ModuleSpec, rng=None):
    """Diagonal comparison of a G_g module with the matching F_(g^-1) module.

    The map v(n) |-> g(n)^(-1) v(n) must commute with the derivation action
    (Witt operators and inner operators; the torus action is deliberately
    not part of the contract), given an rng also on six seeded generators.
    Returns {'pass', 'defect'}, the defect being the first nonzero entry of
    g^-1(k) symbol_G(x, n) - symbol_F(x, n) (_comparison_defect)."""
    spec = ms_G.spec
    if ms_G.flavor != "G_g":
        raise ConfigError("intertwiner check starts from a G_g module")
    ginv = ms_G.twist.inverse()
    ms_F = ModuleSpec(spec, ms_G.V, ms_G.alpha, ginv, "F_g")
    gens = _generators(spec)
    if rng is not None:
        for _ in range(6):
            u = rand_nonzero_point(rng, spec.d, 2)
            gens.append(op_witt(spec, u, rand_radical_point(rng, spec)))
            x = op_inner(spec, rand_point(rng, spec.d, 2))
            if not x.is_zero():
                gens.append(x)
    defect = _comparison_defect(ginv, _comparisons(gens, ms_G, ms_F, (0,) * spec.d), ms_G.V.dim)
    return {"pass": defect is None, "defect": defect}


def irreducibility_evidence(ms: ModuleSpec):
    """Is every weight space an irreducible module under the weight operators?

    The answer factors through three facts, each checked per run: (1) the
    weight operators' matrices are constant in n; (2) the torus transports
    between weight spaces are bijective scalings; (3) V is irreducible under
    the weight-operator matrices, decided exactly by Burnside's theorem: they
    generate an algebra of dimension dim**2 (glmodules.algebra_dim).  (1)
    and (2) are read at every point that decides them (_points), so for
    sigma from A the answer is a decision on all of Z^d.  T'(u, rr) is read
    for every Hermite row rr of the radical.  Returns {'pass',
    'weight_ops_constant', 'transports_bijective', 'algebra_dim',
    'end_dim'}, the last two the dimension of that algebra and dim**2."""
    spec, d, dim = ms.spec, ms.spec.d, ms.V.dim
    # (1) each weight operator is one matrix on every weight space
    mats, constant = [], True
    for rr in spec.radical().basis:
        for u in units(d):
            terms = _compile(weight_op_expr(ms, u, rr), ms)
            count, point = _points(terms, ms)
            symbols = (_expr_symbols(terms, n)[n] for n in map(point, range(count)))
            S0 = next(symbols)
            mats.append(S0.matrix(dim))
            constant = constant and all(S == S0 for S in symbols)
    # (2) the transports are nonzero scalars: sigma(e, n) is a root of unity
    transports_ok = all(
        x is None
        for e in units(d)
        for x in expr_defects(expr_of(op_torus(spec, e)), ms, lambda n: spec.sigma(e, n))
    )
    # (3) Burnside: the matrices generate End(V) exactly when V is irreducible
    alg, end = algebra_dim(mats, dim), dim * dim
    return {
        "pass": alg == end and constant and transports_ok,
        "weight_ops_constant": constant,
        "transports_bijective": transports_ok,
        "algebra_dim": alg,
        "end_dim": end,
    }


def _solve_character(probes, conductor, d):
    """The character c = zeta_L^<e, .> (L the conductor) with c(k) S_a = S_b
    at each generator's first pair with S_a != 0, or None.  That pair fixes
    c(k) = zeta_L^x_k: at most one rotation of S_a matches S_b, and none is
    a division.  The degrees span Z^d (radical rows, unit vectors outside
    the radical), so the Hermite form of the rows (k | x_k) over (0 | L) is
    [Id | e; 0 | L] when e.k = x_k mod L is solvable (Cohen, GTM 138, 2.4)."""
    roots = [root_of_unity(conductor, x) for x in range(conductor)]
    rows = [(0,) * d + (conductor,)]
    for k, pairs in probes:
        S_a, S_b = next(((S_a, S_b) for S_a, S_b in pairs if not S_a.is_zero()), (None, None))
        if S_a is not None:
            x = next((x for x, z in enumerate(roots) if S_a.scale(z) == S_b), None)
            if x is None:
                return None
            rows.append((*k, x))
    H = hnf_rows(rows)
    if [row[i] for i, row in enumerate(H)] != [1] * d + [conductor]:
        return None
    return DiagonalCharacter(conductor, [row[d] for row in H[:d]])


def search_twist_equivalence(ms_source: ModuleSpec, beta_candidates):
    """Search for a re-labelled plain-flavor module matching an F_g module.

    Every candidate beta is checked for its length first.  For each with
    integral delta = alpha - beta, solve for the character c of conductor
    lcm(N, twist conductor) (_solve_character) and test whether
    v(n) |-> c(n) v(n + delta) carries every generator to the flavor-F
    module at weight shift beta (_comparison_defect).  Returns the first
    match as {'found': True, 'beta': ..., 'delta': ..., 'c': ...} or
    {'found': False}."""
    if ms_source.flavor != "F_g":
        raise ConfigError("twist-equivalence search starts from an F_g module")
    spec, d, dim = ms_source.spec, ms_source.spec.d, ms_source.V.dim
    betas = [[_as_coeff(b) for b in beta] for beta in beta_candidates]
    if any(len(beta) != d for beta in betas):
        raise ConfigError("beta candidates must have one entry per rank")
    conductor = lcm(spec.N, ms_source.twist.modulus)
    gens = _generators(spec)
    mixed = (1,) * d
    if not spec.in_radical(mixed):
        gens.append(op_inner(spec, mixed))
    for beta in betas:
        diffs = [a - b for a, b in zip(ms_source.alpha, beta)]
        if not all(x.is_rational() and x.as_rational().denominator == 1 for x in diffs):
            continue
        delta = tuple(int(x.as_rational()) for x in diffs)
        ms_target = ModuleSpec(spec, ms_source.V, beta, TwistCharacter.trivial(spec), "F")
        probes = list(_comparisons(gens, ms_source, ms_target, delta))
        c = _solve_character(probes, conductor, d)
        if c is not None and _comparison_defect(c, probes, dim) is None:
            return {"found": True, "beta": beta, "delta": list(delta), "c": c}
    return {"found": False}
