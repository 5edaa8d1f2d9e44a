"""Elements of the quantum torus, and the one bracket kernel of the pair algebra.

A TorusElement is a finite sum  sum_n  c_n * t^n  with cyclotomic
coefficients, stored sparsely as {lattice point: coefficient}.  The product
twists by the cocycle:  t^n * t^m = sigma(n, m) * t^(n+m).

Every product, bracket and sum of the pair algebra Der(C_q) + C_q is computed
here, on its basis: t^n, ad t^s (s outside rad(f)) and t^r d_i (r in
rad(f)), the basis kinds TORUS, INNER and WITT + i.  The bracket of two
basis terms is a short list of (kind, integer factor, root exponent k): the
constant is the factor times sigma = zeta_N^k, at degree a + b (_constants).
tmul and tcomm below, dact and dbracket in derivations and gbracket in
semidirect are its bilinear extension (_extend).

The kernel reads each operand in its ring form (_flatten): its basis terms
(kind, degree, coefficient), each coefficient as (index, count) pairs of the
group ring Z[Z/L] over one common denominator, with L the lcm of N and the
conductors of the coefficients.  A coefficient enters as its power-basis
numerators at the multiples of L/M, and multiplying by zeta_N^k rotates the
counts by k L/N.  When the two operands' L differ, _extend lifts one or both
to the lcm by multiplying the indices.

TorusElement, DerElement (qtorus.derivations) and GElement
(qtorus.semidirect) are views on this one form and share one base, _Element.
Each class lists its basis terms (_terms) and opens a store into its fields
(_open); the base holds the store and the form, checks specs, and defines
zero, + and -, the sum of a list of terms (_sum) and the one kernel entry,
_bracket.  An element is never changed once built, so the form cannot go
stale.

All sums go into one graded store (_Graded): (kind, degree) -> counts over
Z/L at one denominator.  Every element made by the kernel holds its store
until one of its fields is first read, and a component is reduced only
then, by the fold of CycNumber.from_root_counts, in the least Q(zeta_(L/g))
its indices need, against a conductor cap read once per read-out; zero
components and inner terms at radical degrees are dropped there, and each
value folded is kept with the store, so no component is folded twice.  The
ring form of an element that holds its store comes straight off the
store's counts (_Graded.form), with no fold: Z[Z/L] -> Q(zeta_L) is a ring
map and _lift commutes with it, so sums, differences and nested brackets
stay in the group ring.  The zero test and the first nonzero coefficient in
witness order (_witness_key: inner, then Witt, then torus terms) fold
components in that order up to the first nonzero one (_Graded.first), so a
bracket that is zero is never read out.
"""

from __future__ import annotations

from math import lcm
from operator import add

from .cyclotomic import CycNumber, _as_coeff, _from_root_counts, max_conductor
from .errors import SpecMismatch
from .torus import TorusSpec

TORUS, INNER, WITT = 0, 1, 2  # basis kinds; WITT + i is the term t^r d_i

_new = object.__new__
_ZERO = CycNumber.zero()


def _witness_key(term):
    """The witness order of basis terms, on the (kind, degree) that a store
    key or a basis term (kind, degree, coefficient) starts with: inner terms,
    then Witt terms, then torus terms, by degree within each and Witt terms
    of one degree by index."""
    kind = term[0]
    return (kind == TORUS, kind != INNER, term[1], kind)


def _constants(spec: TorusSpec, kx, a, ky, b, product):
    """[x, y] for basis terms x of kind kx at degree a and y of kind ky at
    degree b (x * y for two torus terms when `product`), as (kind, factor,
    root exponent) triples at degree a + b:

        [t^a, t^b] = [ad t^a, t^b] = [t^a, ad t^b]
                                   = (sigma(a,b) - sigma(b,a)) t^(a+b)
        [ad t^a, ad t^b]           = (sigma(a,b) - sigma(b,a)) ad t^(a+b)
        [t^a d_i, t^b]             =  b_i sigma(a,b) t^(a+b)
        [t^a d_i, ad t^b]          =  b_i sigma(a,b) ad t^(a+b)
        [t^a d_i, t^b d_j]         =  sigma(a,b) (b_i t^(a+b) d_j - a_j t^(a+b) d_i)

    and a torus or inner term times t^b d_j on the right is minus the
    mirrored rule.
    """
    sigma_exp = spec.sigma_exp
    if kx < WITT and ky < WITT:
        if product:
            return ((TORUS, 1, sigma_exp(a, b)),)
        kind = INNER if kx == ky == INNER else TORUS
        return ((kind, 1, sigma_exp(a, b)), (kind, -1, sigma_exp(b, a)))
    if ky < WITT:
        return ((ky, b[kx - WITT], sigma_exp(a, b)),)
    if kx < WITT:
        return ((kx, -a[ky - WITT], sigma_exp(b, a)),)
    k = sigma_exp(a, b)
    return ((ky, b[kx - WITT], k), (kx, -a[ky - WITT], k))


class _Graded:
    """The graded store: (kind, degree) -> counts over Z/L, over one
    denominator, and the values of the components folded so far (folded)."""

    __slots__ = ("spec", "L", "den", "sums", "folded")

    def __init__(self, spec: TorusSpec, L: int, den: int, sums: dict):
        self.spec = spec
        self.L = L
        self.den = den
        self.sums = sums
        self.folded = {}

    def _values(self, keys):
        """((kind, degree), value) for each of `keys` whose component reads
        nonzero, folded one at a time as the caller asks for the next; the
        conductor cap is read once, at the first component folded."""
        spec, L, den, sums, folded = self.spec, self.L, self.den, self.sums, self.folded
        cap = None
        for key in keys:
            c = folded.get(key)
            if c is None:
                counts = sums[key]
                if not any(counts) or (key[0] == INNER and spec._radical_point(key[1])):
                    continue
                if cap is None:
                    cap = max_conductor()
                c = folded[key] = _from_root_counts(L, counts, den, cap)
            if not c.is_zero():
                yield key, c

    def first(self):
        """The first nonzero value in witness order (_witness_key), None when
        every component reads zero; the walk stops there."""
        keys = [key for key, counts in self.sums.items() if any(counts)]
        keys.sort(key=_witness_key)
        for _, c in self._values(keys):
            return c
        return None

    def read(self):
        """(torus terms, inner terms, witt vectors) of the nonzero components."""
        spec = self.spec
        torus, inner, witt = {}, {}, {}
        for (kind, deg), c in self._values(self.sums):
            if kind == TORUS:
                torus[deg] = c
            elif kind == INNER:
                inner[deg] = c
            else:
                witt.setdefault(deg, [_ZERO] * spec.d)[kind - WITT] = c
        return torus, inner, {r: tuple(u) for r, u in witt.items()}

    def form(self):
        """The ring form of the stored sum (see _flatten), read off the counts
        without a fold: each component whose counts are not all zero, less
        inner terms at radical degrees, as its nonzero (index, count) pairs."""
        radical = self.spec._radical_point
        ring = [
            (kind, n, [(j, a) for j, a in enumerate(counts) if a])
            for (kind, n), counts in self.sums.items()
            if any(counts) and not (kind == INNER and radical(n))
        ]
        return self.L, self.den, ring


def _flatten(spec: TorusSpec, terms):
    """The ring form of a sum of basis terms (kind, degree, coefficient):
    (L, den, ring terms), with L the lcm of N and the coefficients'
    conductors, den the lcm of their denominators, and each coefficient as
    (index, count) pairs of Z[Z/L] over den."""
    L, den = spec.N, 1
    for _, _, c in terms:
        if L % c.M:
            L = lcm(L, c.M)
        if den % c.den:
            den = lcm(den, c.den)
    ring = [
        (kind, n, [(j * (L // c.M), a * (den // c.den)) for j, a in enumerate(c.num) if a])
        for kind, n, c in terms
    ]
    return L, den, ring


def _lift(ring, s: int, t: int = 1):
    """Ring terms with every index multiplied by s and every count by t."""
    return [(kind, n, [(j * s, a * t) for j, a in pairs]) for kind, n, pairs in ring]


def _combine(spec: TorusSpec, *forms) -> _Graded:
    """The graded store of the sum of the terms of the given ring forms, at
    the lcm of their L and of their denominators."""
    L = lcm(*(f[0] for f in forms))
    den = lcm(*(f[1] for f in forms))
    sums = {}
    for lx, dx, ring in forms:
        if lx != L or dx != den:
            ring = _lift(ring, L // lx, den // dx)
        for kind, n, pairs in ring:
            key = (kind, n)
            counts = sums.get(key)
            if counts is None:
                counts = sums[key] = [0] * L
            for j, a in pairs:
                counts[j] += a
    return _Graded(spec, L, den, sums)


def _extend(spec: TorusSpec, fx, fy, product=False) -> _Graded:
    """The graded store of [x, y] (x * y when `product`) for x and y given by
    their ring forms; an operand is lifted only when the two L differ."""
    (lx, dx, gx), (ly, dy, gy) = fx, fy
    L = lx
    if lx != ly:
        L = lcm(lx, ly)
        if L != lx:
            gx = _lift(gx, L // lx)
        if L != ly:
            gy = _lift(gy, L // ly)
    shift = L // spec.N
    sums = {}
    for kx, a, cx in gx:
        for ky, b, cy in gy:
            deg = None
            for kind, p, k in _constants(spec, kx, a, ky, b, product):
                if not p:
                    continue
                if deg is None:
                    deg = tuple(map(add, a, b))
                key = (kind, deg)
                counts = sums.get(key)
                if counts is None:
                    counts = sums[key] = [0] * L
                k *= shift
                for i, u in cx:
                    pu = p * u
                    for j, v in cy:
                        counts[(i + j + k) % L] += pu * v
    return _Graded(spec, L, dx * dy, sums)


class _Element:
    """What TorusElement, DerElement and GElement share: a spec, a sum of basis
    terms (_terms, per class), its held ring form and store, and the sums and
    brackets that go through the graded store.  An element made by the
    kernel holds its store (_read) with its fields unset, until the first
    read of one of them opens the store into all of them (_open) and drops
    it."""

    __slots__ = ("spec", "_ring_form", "_store")

    @classmethod
    def _read(cls, store):
        """The element summed in a graded store, holding it; its spec is the
        store's, so the constructor's checks are not rerun."""
        res = _new(cls)
        res.spec = store.spec
        res._store = store
        res._ring_form = None
        return res

    def __getattr__(self, name):
        # only reached for an unset slot, so a built element reads its fields
        # at slot speed; a held store is opened into them once and dropped
        if name not in type(self).__slots__ or self._store is None:
            raise AttributeError(name)
        self._open(*self._store.read())
        self._store = None
        return getattr(self, name)

    @classmethod
    def _sum(cls, spec, terms):
        """The element summing basis terms (kind, degree, coefficient)."""
        return cls._read(_combine(spec, _flatten(spec, terms)))

    @classmethod
    def zero(cls, spec):
        return cls(spec)

    def _form(self):
        """The ring form of the element (see _flatten), built on first use:
        off the held store's counts, or from the basis terms."""
        form = self._ring_form
        if form is None:
            store = self._store
            form = store.form() if store is not None else _flatten(self.spec, self._terms())
            self._ring_form = form
        return form

    def is_zero(self) -> bool:
        """True for the zero element.  A held store is walked in witness
        order up to its first nonzero component; a built pair is zero when
        both its parts are (TorusElement and DerElement test their dicts)."""
        if self._store is not None:
            return self._store.first() is None
        return self.der.is_zero() and self.torus.is_zero()

    def _first(self):
        """The first nonzero coefficient in witness order (_witness_key), None
        when the element is zero; a held store is walked in that order
        without being read out."""
        if self._store is not None:
            return self._store.first()
        term = min(self._terms(), key=_witness_key, default=None)
        return None if term is None else term[2]

    def _check(self, other):
        if self.spec != other.spec:
            raise SpecMismatch("operands live over different torus specs")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self._read(_combine(self.spec, self._form(), other._form()))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        L, den, ring = other._form()
        return self._read(_combine(self.spec, self._form(), (L, den, _lift(ring, 1, -1))))


def _bracket(x: _Element, y: _Element, out, product=False):
    """[x, y] (x * y when `product`) as an element of class `out` holding its
    store."""
    x._check(y)
    return out._read(_extend(x.spec, x._form(), y._form(), product))


class TorusElement(_Element):
    __slots__ = ("terms",)

    def __init__(self, spec: TorusSpec, terms=None):
        self.spec = spec
        data = {}
        if terms:
            for n, c in terms.items():
                c = _as_coeff(c)
                if not c.is_zero():
                    data[spec._point(n)] = c
        self.terms = data
        self._ring_form = None
        self._store = None

    @classmethod
    def monomial(cls, spec, n, coeff=1) -> "TorusElement":
        return cls(spec, {tuple(n): coeff})

    @classmethod
    def one(cls, spec) -> "TorusElement":
        return cls.monomial(spec, (0,) * spec.d)

    @classmethod
    def _of(cls, spec, terms) -> "TorusElement":
        """An element from terms already validated and nonzero."""
        res = _new(cls)
        res.spec = spec
        res.terms = terms
        res._ring_form = None
        res._store = None
        return res

    def _open(self, torus, inner, witt):
        self.terms = torus

    def _terms(self):
        return [(TORUS, n, c) for n, c in self.terms.items()]

    def is_zero(self) -> bool:
        if self._store is not None:
            return self._store.first() is None
        return not self.terms

    def support(self):
        return sorted(self.terms)

    def __neg__(self):
        return TorusElement._of(self.spec, {n: -c for n, c in self.terms.items()})

    def scale(self, c) -> "TorusElement":
        c = _as_coeff(c)
        terms = {n: c * v for n, v in self.terms.items()} if not c.is_zero() else {}
        return TorusElement._of(self.spec, terms)

    def __mul__(self, other):
        """Twisted product; scalars also accepted."""
        if isinstance(other, TorusElement):
            return tmul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self.spec == other.spec and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = [f"({c!r})*t{list(n)}" for n, c in sorted(self.terms.items())]
        return " + ".join(bits)

    def to_json(self):
        return [
            {"n": list(n), "c": c.to_json()} for n, c in sorted(self.terms.items())
        ]

    @classmethod
    def from_json(cls, spec, obj) -> "TorusElement":
        terms = [(TORUS, spec._point(row["n"]), CycNumber.from_json(row["c"])) for row in obj]
        return cls._sum(spec, terms)


def tmul(a: TorusElement, b: TorusElement) -> TorusElement:
    return _bracket(a, b, TorusElement, product=True)


def tcomm(a: TorusElement, b: TorusElement) -> TorusElement:
    """Commutator bracket [a, b] = a*b - b*a."""
    return _bracket(a, b, TorusElement)


def is_central(a: TorusElement) -> bool:
    """True iff the support sits inside rad(f); cross-checked against the
    generator monomials actually commuting with the element."""
    by_support = all(a.spec.in_radical(n) for n in a.terms)
    by_comm = True
    for i in range(a.spec.d):
        for sign in (1, -1):
            g = TorusElement.monomial(a.spec, tuple(sign if j == i else 0 for j in range(a.spec.d)))
            if not tcomm(a, g).is_zero():
                by_comm = False
                break
        if not by_comm:
            break
    if by_support != by_comm:
        raise AssertionError("centrality criteria disagree; spec data corrupt?")
    return by_support
