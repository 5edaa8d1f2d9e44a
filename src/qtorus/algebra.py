"""Elements of the quantum torus, and the one bracket kernel of the pair algebra.

A TorusElement is a finite sum  sum_n  c_n * t^n  with cyclotomic
coefficients, read as {lattice point: coefficient} (its terms).  The product
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
counts by k L/N.  When the two operands' L differ, each is taken from its
components' folded values (_Graded.folded_form), and _extend lifts one or
both to the lcm by multiplying the indices.

TorusElement, DerElement (qtorus.derivations) and GElement
(qtorus.semidirect) share one base, _Element, and one representation: the
graded store (_Graded) of the element's basis terms, (kind, degree) ->
counts over Z/L at one denominator.  A constructor validates its terms and
stores them with their coefficients as the components' values (_init); the
kernel and every sum return an element holding the store they filled
(_read).  The class's fields (terms; inner and witt; der and torus) are
views, opened from the store when one is first read (_open); the store is
kept.  The base defines zero, is_zero, +, -, unary -, scale and == once, on
the store and its ring form.  Elements are never changed once built, and
neither is a count list once its store is filled, so stores may share them.

Sums add stores (_add): x + y, x - y and -x (the empty store minus x) take
one path.  When the two stores have one L, their counts are added key by
key over the lcm of the two denominators, with no ring form and no fold; a
key held by one store alone keeps its count list when its scale is 1, and
neither operand's counts or folded values change.  Counts that cancel, or
that only fold to zero (zeta_4^0 + zeta_4^2), stay in the sum until a value
is asked for, as inner keys at radical degrees do.  When the two L differ,
the sum is taken from folded values, as below.

A component is folded only when a value is asked for, by the fold of
CycNumber.from_root_counts, in the least Q(zeta_(L/g)) its indices need
(the conductor cap is met there, when that field is first built); zero
components and inner terms at radical degrees are dropped there, and each
value folded is kept with the store.  The ring form comes off the store's
counts (_Graded.form), with no fold: Z[Z/L] -> Q(zeta_L) is a ring map that
_lift commutes with, so scalings and nested brackets stay in the group
ring; a component already folded gives its value instead.  Where two L
differ, in a sum or in the kernel, both forms come off folded values
(_Graded.folded_form, which keeps none of them): unreduced counts lifted to
the lcm could need a larger field than their value, and a result would then
raise ConductorLimitExceeded or not by whether an operand had been read or
zero-tested before.  The zero test and the first nonzero coefficient in
witness order (_witness_key: inner, then Witt, then torus terms) fold
components in that order up to the first nonzero one (_Graded.first), once
per store, so a zero bracket is never read out.
"""

from __future__ import annotations

from math import lcm
from operator import add, sub

from .cyclotomic import CycNumber, _as_coeff, _from_root_counts
from .errors import SpecMismatch
from .torus import TorusSpec

TORUS, INNER, WITT = 0, 1, 2  # basis kinds; WITT + i is the term t^r d_i

_new = object.__new__
_ZERO = CycNumber.zero()
_UNSET = object()


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
    denominator, the values of the components folded so far (folded), the
    first nonzero value in witness order once it is known (lead) and, for a
    pair's store, the read-out its two parts share once it is made (out)."""

    __slots__ = ("spec", "L", "den", "sums", "folded", "lead", "out")

    def __init__(self, spec: TorusSpec, L: int, den: int, sums: dict, folded=None):
        self.spec = spec
        self.L = L
        self.den = den
        self.sums = sums
        self.folded = {} if folded is None else folded
        self.lead = _UNSET
        self.out = None

    def parts(self):
        """The stores of the derivation and of the torus components, split in
        one pass, sharing this store's counts, folded values and read-out
        (_Part)."""
        der, torus = {}, {}
        for key, counts in self.sums.items():
            (torus if key[0] == TORUS else der)[key] = counts
        return _Part(self, der, False), _Part(self, torus, True)

    def _values(self, keys, keep=True):
        """((kind, degree), value) for each of `keys` whose component reads
        nonzero, folded one at a time as the caller asks for the next; each
        value folded is kept with the store when `keep`."""
        spec, L, den, sums, folded = self.spec, self.L, self.den, self.sums, self.folded
        for key in keys:
            c = folded.get(key)
            if c is None:
                counts = sums[key]
                if not any(counts) or (key[0] == INNER and spec._radical_point(key[1])):
                    continue
                c = _from_root_counts(L, counts, den)
                if keep:
                    folded[key] = c
            if not c.is_zero():
                yield key, c

    def first(self):
        """The first nonzero value in witness order (_witness_key), None when
        every component reads zero; the walk stops there, and is made once."""
        lead = self.lead
        if lead is _UNSET:
            lead = None
            keys = [key for key, counts in self.sums.items() if any(counts)]
            if keys:
                keys.sort(key=_witness_key)
                for _, lead in self._values(keys):
                    break
            self.lead = lead
        return lead

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
        """The ring form of the stored sum (see _flatten), less inner terms at
        radical degrees: each component's nonzero counts, with no fold, or
        its value, as _flatten gives a coefficient, once it is folded."""
        L, den, folded, radical = self.L, self.den, self.folded, self.spec._radical_point
        ring = []
        for (kind, n), counts in self.sums.items():
            if any(counts) and not (kind == INNER and radical(n)):
                c = folded.get((kind, n))
                s, t, num = (1, 1, counts) if c is None else (L // c.M, den // c.den, c.num)
                pairs = [(j * s, a * t) for j, a in enumerate(num) if a]
                if pairs:
                    ring.append((kind, n, pairs))
        return L, den, ring

    def folded_form(self):
        """The ring form of the components' folded values (see _flatten), at
        the lcm of N and their conductors: what a lift to a larger L is taken
        from, so it carries no counts that only a larger field can fold.  The
        values are not kept: an operand's store is left as it was."""
        return _flatten(self.spec, [key + (c,) for key, c in self._values(self.sums, False)])


class _Part(_Graded):
    """The derivation part of a pair's store (the torus part when `torus`),
    the store of one of the pair's two views (_Graded.parts).  It is read
    off its whole's read-out, which is made once for both parts, so the
    pair's two views are opened from one read of the pair's store."""

    __slots__ = ("whole", "torus")

    def __init__(self, whole: _Graded, sums: dict, torus: bool):
        _Graded.__init__(self, whole.spec, whole.L, whole.den, sums, whole.folded)
        self.whole, self.torus = whole, torus

    def read(self):
        whole = self.whole
        out = whole.out
        if out is None:
            out = whole.out = whole.read()
        torus, inner, witt = out
        return (torus, {}, {}) if self.torus else ({}, inner, witt)


def _bounds(spec: TorusSpec, terms):
    """(L, den) of a sum of basis terms (kind, degree, coefficient): the lcm
    of N and the coefficients' conductors, and of their denominators."""
    L, den = spec.N, 1
    for _, _, c in terms:
        if L % c.M:
            L = lcm(L, c.M)
        if den % c.den:
            den = lcm(den, c.den)
    return L, den


def _flatten(spec: TorusSpec, terms):
    """The ring form of a sum of basis terms (kind, degree, coefficient):
    (L, den, ring terms), at the sum's _bounds, with each coefficient as
    (index, count) pairs of Z[Z/L] over den."""
    L, den = _bounds(spec, terms)
    ring = [
        (kind, n, [(j * (L // c.M), a * (den // c.den)) for j, a in enumerate(c.num) if a])
        for kind, n, c in terms
    ]
    return L, den, ring


def _store_of(spec: TorusSpec, terms) -> _Graded:
    """The graded store of a sum of basis terms (kind, degree, coefficient),
    in one pass: each coefficient's numerators are counted at the multiples
    of L/M, over den (_bounds)."""
    L, den = _bounds(spec, terms)
    sums = {}
    for kind, n, c in terms:
        counts = sums.get((kind, n))
        if counts is None:
            counts = sums[kind, n] = [0] * L
        s, t = L // c.M, den // c.den
        for j, a in enumerate(c.num):
            if a:
                counts[j * s] += a * t
    return _Graded(spec, L, den, sums)


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


def _add(spec: TorusSpec, x: _Graded, y: _Graded, sign: int) -> _Graded:
    """The store of x + sign * y, neither store changed.  At one L the counts
    are added key by key over the lcm of the two denominators, and a key
    held by one store alone keeps its count list when its scale is 1.  When
    the L differ, both are taken from their folded values
    (_Graded.folded_form) and lifted to the lcm, so that a value does not
    depend on whether an operand was read or zero-tested before."""
    if x.L != y.L:
        L, den, ring = y.folded_form()
        return _combine(spec, x.folded_form(), (L, den, _lift(ring, 1, sign)))
    den = x.den if x.den == y.den else lcm(x.den, y.den)
    s, t = den // x.den, sign * (den // y.den)
    sums = x.sums.copy() if s == 1 else {key: [a * s for a in c] for key, c in x.sums.items()}
    for key, counts in y.sums.items():
        mine = sums.get(key)
        if mine is None:
            sums[key] = counts if t == 1 else [b * t for b in counts]
        elif t == 1 or t == -1:
            sums[key] = list(map(add if t == 1 else sub, mine, counts))
        else:
            sums[key] = [a + b * t for a, b in zip(mine, counts)]
    return _Graded(spec, x.L, den, sums)


def _join(spec: TorusSpec, stores) -> _Graded:
    """The store of the sum of stores over disjoint (kind, degree) keys: one
    store is its own; counts are shared when L and den agree, else lifted,
    and the values folded for each store's own keys are kept (a part shares
    its whole's folded values, other keys' included: see _Graded.parts)."""
    if len(stores) == 1:
        return stores[0]
    if len({(s.L, s.den) for s in stores}) == 1:
        joined = _Graded(spec, stores[0].L, stores[0].den, {})
        for s in stores:
            joined.sums.update(s.sums)
    else:
        joined = _combine(spec, (spec.N, 1, []), *(s.form() for s in stores))
    for s in stores:
        joined.folded.update((key, s.folded[key]) for key in s.sums if key in s.folded)
    return joined


def _extend(spec: TorusSpec, x, y, product=False) -> _Graded:
    """The graded store of [x, y] (x * y when `product`) from the ring forms
    of the elements x and y; only when the two L differ are both forms taken
    from folded values (_Graded.folded_form) and lifted to the lcm."""
    (lx, dx, gx), (ly, dy, gy) = x._form(), y._form()
    L = lx
    if lx != ly:
        (lx, dx, gx), (ly, dy, gy) = x._store.folded_form(), y._store.folded_form()
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
    """What TorusElement, DerElement and GElement share: a spec, the graded
    store of the basis terms, its ring form, and the vector-space structure
    on them.  The class's fields (terms; inner and witt; der and torus) are
    views: the first read of one opens the store into them (_open)."""

    __slots__ = ("spec", "_ring_form", "_store")

    def _init(self, spec, terms):
        """Set a built element up: the store of its validated basis terms
        (kind, degree, coefficient), each (kind, degree) once, with their
        coefficients kept as the values of their components."""
        self.spec = spec
        self._ring_form = None
        self._store = store = _store_of(spec, terms)
        for kind, n, c in terms:
            store.folded[kind, n] = c

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
        # only reached for an unset slot, so an opened view reads at slot speed
        if name not in type(self).__slots__:
            raise AttributeError(name)
        self._open(self._store)
        return getattr(self, name)

    @classmethod
    def _sum(cls, spec, terms):
        """The element summing basis terms (kind, degree, coefficient)."""
        return cls._read(_store_of(spec, terms))

    @classmethod
    def zero(cls, spec):
        return cls(spec)

    def _form(self):
        """The ring form of the element (see _flatten), taken off its store
        on first use."""
        form = self._ring_form
        if form is None:
            form = self._ring_form = self._store.form()
        return form

    def is_zero(self) -> bool:
        """True for the zero element: the store is walked in witness order up
        to its first nonzero component."""
        return self._store.first() is None

    def _first(self):
        """The first nonzero coefficient in witness order (_witness_key), None
        when the element is zero, walked off the store without a read-out."""
        return self._store.first()

    def _check(self, other):
        if self.spec != other.spec:
            raise SpecMismatch("operands live over different torus specs")

    def _plus(self, other, sign):
        """self + sign * other, summed on the two stores (_add)."""
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self._read(_add(self.spec, self._store, other._store, sign))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        store = self._store
        return self._read(_add(self.spec, _Graded(self.spec, store.L, 1, {}), store, -1))

    def scale(self, c):
        """c times the element: its counts times c's numerators, over den * c.den."""
        c = _as_coeff(c)
        L, den, ring = self._form()
        if L % c.M:  # a lift to lcm(L, c.M), taken from the folded values (see _add)
            L, den, ring = self._store.folded_form()
        M = lcm(L, c.M)
        s, t = M // L, M // c.M
        cs = [(i * t, b) for i, b in enumerate(c.num) if b]
        ring = [
            (kind, n, [((j * s + i) % M, a * b) for j, a in pairs for i, b in cs])
            for kind, n, pairs in ring
        ]
        return self._read(_combine(self.spec, (M, den * c.den, ring)))

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.spec == other.spec and (self - other).is_zero()


def _bracket(x: _Element, y: _Element, out, product=False):
    """[x, y] (x * y when `product`) as an element of class `out` holding its
    store."""
    x._check(y)
    return out._read(_extend(x.spec, x, y, product))


class TorusElement(_Element):
    __slots__ = ("terms",)

    def __init__(self, spec: TorusSpec, terms=None):
        coeffs = ((n, _as_coeff(c)) for n, c in (terms or {}).items())
        self._init(spec, [(TORUS, spec._point(n), c) for n, c in coeffs if not c.is_zero()])

    @classmethod
    def monomial(cls, spec, n, coeff=1) -> "TorusElement":
        return cls(spec, {tuple(n): coeff})

    @classmethod
    def one(cls, spec) -> "TorusElement":
        return cls.monomial(spec, (0,) * spec.d)

    def _open(self, store):
        self.terms = store.read()[0]

    def support(self):
        return sorted(self.terms)

    def __mul__(self, other):
        """Twisted product; scalars also accepted."""
        if isinstance(other, TorusElement):
            return tmul(self, other)
        return self.scale(other)

    __rmul__ = _Element.scale

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
    spec, d, N = a.spec, a.spec.d, a.spec.N
    store = a._store
    by_support = all(spec._radical_point(n) for (_, n), _ in store._values(store.sums))
    gens = (tuple(s if j == i else 0 for j in range(d)) for i in range(d) for s in (1, -1))
    one = [1] + [0] * (N - 1)
    units = [TorusElement._read(_Graded(spec, N, 1, {(TORUS, g): one})) for g in gens]
    by_comm = all(tcomm(a, g).is_zero() for g in units)
    if by_support != by_comm:
        raise AssertionError("centrality criteria disagree; spec data corrupt?")
    return by_support
