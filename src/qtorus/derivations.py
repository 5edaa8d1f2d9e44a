"""The derivation Lie algebra of a rational quantum torus.

Homogeneous derivations come in two kinds, and a DerElement is a finite sum
of both:

* inner terms  c * ad(t^s)  for s outside rad(f); ad(t^s) with s in the
  radical is zero and is normalized away at construction;
* twisted Witt terms  witt(u, r) = t^r * sum_i u_i d_i  with r in rad(f)
  and u a cyclotomic coefficient vector (d_i the degree derivations).

Brackets, evaluated on monomials:

    [ad t^s, ad t^r]    = (sigma(s,r) - sigma(r,s)) ad t^(s+r)
    [witt(u,r), ad t^s] = <u,s> sigma(r,s) ad t^(r+s)
    [witt(u,r), witt(v,r')] = witt(w, r+r'),
        w = sigma(r,r') * (<u,r'> v - <v,r> u)

and the action on the torus:

    ad t^s . t^n     = (sigma(s,n) - sigma(n,s)) t^(s+n)
    witt(u,r) . t^n  = <u,n> sigma(r,n) t^(r+n)

dbracket and dact do not loop over these rules themselves.  A DerElement is
the sum of the basis terms ad t^s and t^r d_i (witt(u, r) is the sum of
u_i t^r d_i), and both are the bilinear extension of the one basis-bracket
table of the pair algebra, qtorus.algebra._constants.  Like TorusElement and
GElement, a DerElement is its graded store (qtorus.algebra._Element): inner
and witt are views opened from the store when first read, and its sums,
negation, scaling, equality and kernel entry are the base class's.
"""

from __future__ import annotations

from .algebra import INNER, WITT, TorusElement, _bracket, _Element
from .cyclotomic import CycNumber, _as_coeff
from .errors import NotInRadical, SpecMismatch
from .torus import TorusSpec


def pairing(u, n) -> CycNumber:
    """<u, n> = sum_i u_i * n_i for a coefficient vector against a lattice point."""
    out = CycNumber.zero()
    for ui, ni in zip(u, n):
        if ni:
            out = out + ui * ni
    return out


def _as_vector(spec, u) -> tuple[CycNumber, ...]:
    vec = tuple(_as_coeff(x) for x in u)
    if len(vec) != spec.d:
        raise SpecMismatch("coefficient vector length must equal the rank")
    return vec


def _witt(spec, r, u):
    """A validated Witt term: its degree r in rad(f) and its vector u."""
    r, u = spec._point(r), _as_vector(spec, u)
    if not spec._radical_point(r):
        raise NotInRadical(f"witt degree {r} is not in rad(f)")
    return r, u


class DerElement(_Element):
    __slots__ = ("inner", "witt")

    def __init__(self, spec: TorusSpec, inner=None, witt=None):
        terms = []
        for s, c in (inner or {}).items():
            s, c = spec._point(s), _as_coeff(c)
            if not c.is_zero() and not spec._radical_point(s):
                terms.append((INNER, s, c))
        for r, u in (witt or {}).items():
            r, u = _witt(spec, r, u)
            terms += [(WITT + i, r, c) for i, c in enumerate(u) if not c.is_zero()]
        self._init(spec, terms)

    def _open(self, store):
        _, self.inner, self.witt = store.read()

    # -- constructors ----------------------------------------------------

    @classmethod
    def ad(cls, spec, s, coeff=1) -> "DerElement":
        """Inner derivation ad(t^s); zero when s is radical."""
        return cls(spec, inner={tuple(s): coeff})

    @classmethod
    def witt_term(cls, spec, u, r) -> "DerElement":
        """t^r sum_i u_i d_i; requires r in rad(f)."""
        return cls(spec, witt={tuple(r): u})

    @classmethod
    def degree_derivation(cls, spec, i) -> "DerElement":
        u = [0] * spec.d
        u[i] = 1
        return cls.witt_term(spec, u, (0,) * spec.d)

    def grade(self, n) -> "DerElement":
        """Homogeneous component of lattice degree n."""
        n = self.spec._point(n)
        inner = {n: self.inner[n]} if n in self.inner else {}
        witt = {n: self.witt[n]} if n in self.witt else {}
        return DerElement(self.spec, inner, witt)

    def degrees(self):
        return sorted(set(self.inner) | set(self.witt))

    def __repr__(self):
        bits = [f"({c!r})*ad t{list(s)}" for s, c in sorted(self.inner.items())]
        bits += [
            f"witt({[repr(x) for x in u]}, {list(r)})" for r, u in sorted(self.witt.items())
        ]
        return " + ".join(bits) if bits else "0"

    def to_json(self):
        return {
            "inner": [
                {"s": list(s), "c": c.to_json()} for s, c in sorted(self.inner.items())
            ],
            "witt": [
                {"r": list(r), "u": [x.to_json() for x in u]}
                for r, u in sorted(self.witt.items())
            ],
        }

    @classmethod
    def from_json(cls, spec, obj) -> "DerElement":
        terms = [
            (INNER, spec._point(row["s"]), CycNumber.from_json(row["c"]))
            for row in obj.get("inner", ())
        ]
        for row in obj.get("witt", ()):
            r, u = _witt(spec, row["r"], [CycNumber.from_json(x) for x in row["u"]])
            terms += [(WITT + i, r, c) for i, c in enumerate(u)]
        return cls._sum(spec, terms)


def dbracket(x: DerElement, y: DerElement) -> DerElement:
    """Lie bracket of derivations."""
    return _bracket(x, y, DerElement)


def dact(x: DerElement, a: TorusElement) -> TorusElement:
    """Apply a derivation to a torus element."""
    return _bracket(x, a, TorusElement)
