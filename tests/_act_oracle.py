"""Test-only oracle: the module action as one hand-written sparse loop over
the terms of an element, with its own copy of the three flavor rules, the
way qtorus applied an element to a box vector before `act` became the sum
over n of symbol(x_k, n) w(n).  The differential tests compare `symbol` and
`act` against it.  It reads the public module and vector classes, and
nothing under src/ imports it.
"""

from __future__ import annotations

from qtorus.algebra import TorusElement
from qtorus.cyclotomic import CycNumber
from qtorus.derivations import DerElement
from qtorus.errors import SpecMismatch
from qtorus.fmodule import BoxVector, ModuleSpec
from qtorus.glmodules import mat_vec
from qtorus.semidirect import GElement


def _shift(n, k):
    return tuple(a + b for a, b in zip(n, k))


def _as_gelement(x) -> GElement:
    if isinstance(x, GElement):
        return x
    if isinstance(x, DerElement):
        return GElement.from_der(x)
    if isinstance(x, TorusElement):
        return GElement.from_torus(x)
    raise SpecMismatch(f"cannot act by {type(x).__name__}")


def _outer_matrix(ms: ModuleSpec, r, u):
    """Matrix of sum_ij r_i u_j E_ij on V."""
    d = ms.spec.d
    coeffs = [[u[j] * r[i] for j in range(d)] for i in range(d)]
    return ms.V.matrix_of(coeffs)


def _inner_phase(ms: ModuleSpec, s, n) -> CycNumber:
    """The scalar by which ad t^s maps v(n) to v(s+n), per flavor."""
    spec = ms.spec
    if ms.flavor == "F":
        return spec.sigma(s, n) - spec.sigma(n, s)
    if ms.flavor == "F_g":
        return spec.sigma(s, n) * ms.twist.value(s) - spec.sigma(n, s)
    return spec.sigma(s, n) - ms.twist.value(s) * spec.sigma(n, s)  # G_g


def _weight_pairing(ms: ModuleSpec, u, n) -> CycNumber:
    """(u, n + alpha): the scalar part of D(u, r) on v(n)."""
    out = CycNumber.zero()
    for ui, ni, ai in zip(u, n, ms.alpha):
        out = out + ui * (ai + ni)
    return out


def act(x, w: BoxVector, ms: ModuleSpec) -> BoxVector:
    """Apply one algebra element to a box vector under the flavor rules."""
    x = _as_gelement(x)
    if x.spec != ms.spec:
        raise SpecMismatch("element and module live over different torus specs")
    if w.dim != ms.V.dim:
        raise SpecMismatch("vector dimension does not match V")
    spec = ms.spec
    out = BoxVector(w.box, w.dim, truncated=w.truncated)
    witt_mats = {
        r: _outer_matrix(ms, r, u) for r, u in x.der.witt.items()
    }
    for n, coords in w.entries.items():
        for m, c in x.torus.terms.items():
            coeff = c * spec.sigma(m, n)
            out._add(
                _shift(m, n),
                tuple(coeff * y for y in coords),
            )
        for s, c in x.der.inner.items():
            coeff = c * _inner_phase(ms, s, n)
            if not coeff.is_zero():
                out._add(
                    _shift(s, n),
                    tuple(coeff * y for y in coords),
                )
        for r, u in x.der.witt.items():
            sig = spec.sigma(r, n)
            scalar = _weight_pairing(ms, u, n)
            moved = mat_vec(witt_mats[r], coords)
            out._add(
                _shift(r, n),
                tuple(sig * (scalar * y + z) for y, z in zip(coords, moved)),
            )
    return out
