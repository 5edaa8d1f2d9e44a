"""Semidirect sum of the derivation algebra with the torus.

Elements are pairs (T, a): a derivation T and a torus element a, with the
torus carrying its commutator bracket.  The bracket is

    [(T, a), (S, b)] = ([T, S],  T.b - S.a + (ab - ba)).

gbracket computes it in one pass, as the bilinear extension of the
basis-bracket table of the pair algebra (qtorus.algebra._constants) over the
basis t^n, ad t^s and t^r d_i.  A pair is its graded store, as every
element is (qtorus.algebra._Element): a built pair joins the stores of its
two components (_join), and der and torus are views that hold the store's
two parts (_Graded.part), which share its counts and folded values, so no
component is folded twice.  is_zero and the first nonzero coefficient walk
the store without reading it out.

Two embeddings of the torus lattice are provided:

    plain_torus(n)   = (0, t^n)
    inner_minus(n)   = (ad t^n, -t^n)

Both are Lie homomorphisms from the torus-with-commutator, their images
commute with each other, and together with the Witt-type part they span the
whole algebra; decompose()/recompose() convert between the pair picture and
that three-part picture.

map_untwisted() compares against the untwisted model: the same construction
over the trivial cocycle (N = 1, zero exponent matrix).  A degree-r term on
the untwisted side maps to the corresponding twisted term scaled by the
canonical square root of sigma(r, r); degrees must lie in rad(f).
"""

from __future__ import annotations

from .algebra import TORUS, WITT, TorusElement, _bracket, _Element, _join
from .derivations import DerElement
from .errors import NotInRadical, SpecMismatch
from .torus import TorusSpec


class GElement(_Element):
    __slots__ = ("der", "torus")

    def __init__(self, spec: TorusSpec, der: DerElement = None, torus: TorusElement = None):
        stores = [x._store for x in (der, torus) if x is not None]
        for store in stores:
            if store.spec != spec:
                raise SpecMismatch("component specs differ from the pair spec")
        self.spec = spec
        self._ring_form = None
        self._store = _join(spec, stores)

    @classmethod
    def from_der(cls, x: DerElement) -> "GElement":
        return cls(x.spec, der=x)

    @classmethod
    def from_torus(cls, a: TorusElement) -> "GElement":
        return cls(a.spec, torus=a)

    def _open(self, store):
        self.der = DerElement._read(store.part(False))
        self.torus = TorusElement._read(store.part(True))

    def __repr__(self):
        return f"({self.der!r} ; {self.torus!r})"

    def to_json(self):
        return {"der": self.der.to_json(), "torus": self.torus.to_json()}

    @classmethod
    def from_json(cls, spec, obj) -> "GElement":
        return cls(
            spec,
            DerElement.from_json(spec, obj.get("der", {})),
            TorusElement.from_json(spec, obj.get("torus", [])),
        )


def gbracket(x: GElement, y: GElement) -> GElement:
    return _bracket(x, y, GElement)


def plain_torus(spec: TorusSpec, a) -> GElement:
    """First torus copy: a |-> (0, a).  Accepts an element or a lattice point."""
    if not isinstance(a, TorusElement):
        a = TorusElement.monomial(spec, a)
    return GElement.from_torus(a)


def inner_minus(spec: TorusSpec, a) -> GElement:
    """Second torus copy: t^n |-> (ad t^n, -t^n), extended linearly."""
    if not isinstance(a, TorusElement):
        a = TorusElement.monomial(spec, a)
    return GElement(spec, DerElement(spec, inner=a.terms), -a)


def decompose(x: GElement):
    """Split (T, a) into Witt part + the two commuting torus copies.

    Returns {"witt": DerElement, "c1": TorusElement, "c2": TorusElement}
    with  x == from_der(witt) + plain_torus(c1) + inner_minus(c2).
    """
    spec = x.spec
    witt = DerElement(spec, witt=x.der.witt)
    c2 = TorusElement(spec, x.der.inner)
    c1 = x.torus + c2
    return {"witt": witt, "c1": c1, "c2": c2}


def recompose(spec: TorusSpec, witt: DerElement, c1: TorusElement, c2: TorusElement) -> GElement:
    if witt.inner:
        raise SpecMismatch("witt part must have no inner terms")
    return GElement.from_der(witt) + plain_torus(spec, c1) + inner_minus(spec, c2)


def cartan(spec: TorusSpec):
    """Abelian degree-zero frame: the degree derivations and the identity."""
    out = [GElement.from_der(DerElement.degree_derivation(spec, i)) for i in range(spec.d)]
    out.append(plain_torus(spec, (0,) * spec.d))
    return out


def untwisted_spec(d: int) -> TorusSpec:
    """The trivial-cocycle model of the same rank (N = 1, zero matrix)."""
    return TorusSpec(d, 1, [[0] * d for _ in range(d)])


def _scaled_terms(spec: TorusSpec, points_and_data):
    for r, data in points_and_data:
        if not spec.in_radical(r):
            raise NotInRadical(f"degree {r} is outside rad(f); no untwisted image")
        yield r, spec.sigma(r, r).sqrt_root(), data


def map_untwisted(spec: TorusSpec, x0: GElement) -> GElement:
    """Carry an untwisted pair into the twisted algebra.

    Witt terms d(u, r) pick up the canonical square root of sigma(r, r), and
    torus terms t^s pick up the square root of sigma(s, s).  Every degree
    must lie in rad(f) of the target spec.
    """
    model = untwisted_spec(spec.d)
    if x0.spec != model:
        raise SpecMismatch("source element must live over the untwisted model")
    if x0.der.inner:
        raise SpecMismatch("untwisted elements have no inner terms")
    der = [
        (WITT + i, r, scale * ui)
        for r, scale, u in _scaled_terms(spec, x0.der.witt.items())
        for i, ui in enumerate(u)
    ]
    torus = [(TORUS, s, scale * c) for s, scale, c in _scaled_terms(spec, x0.torus.terms.items())]
    return GElement._sum(spec, der + torus)


def untwisted_homomorphism_defect(spec: TorusSpec, x0: GElement, y0: GElement) -> GElement:
    """map(bracket) - bracket(map): zero exactly when the comparison map is a
    Lie homomorphism on these arguments."""
    lhs = map_untwisted(spec, gbracket(x0, y0))
    rhs = gbracket(map_untwisted(spec, x0), map_untwisted(spec, y0))
    return lhs - rhs
