"""Test-only oracle: the pair-algebra products and brackets as three element
classes with one hand-written sparse accumulate loop per rule and a full
CycNumber product per term, the way qtorus computed them before they became
the bilinear extension of one basis-bracket kernel.  The differential tests
compare the kernel against it.  It reads the public element classes but
never calls their arithmetic, and nothing under src/ imports it.
"""

from __future__ import annotations

from qtorus.algebra import TorusElement
from qtorus.cyclotomic import CycNumber
from qtorus.derivations import DerElement
from qtorus.errors import NotInRadical, SpecMismatch
from qtorus.semidirect import GElement


def _add(acc, key, c):
    if c.is_zero():
        return
    cur = acc.get(key)
    s = c if cur is None else cur + c
    if s.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = s


def _add_inner(spec, acc, s, c):
    if not spec.in_radical(s):
        _add(acc, s, c)


def _add_witt(acc, r, u):
    cur = acc.get(r)
    v = u if cur is None else tuple(a + b for a, b in zip(cur, u))
    if any(not x.is_zero() for x in v):
        acc[r] = v
    else:
        acc.pop(r, None)


def _shift(n, m):
    return tuple(a + b for a, b in zip(n, m))


def _pairing(u, n):
    out = CycNumber.zero()
    for ui, ni in zip(u, n):
        if ni:
            out = out + ui * ni
    return out


def torus_sum(spec, *parts):
    """sum of (sign, TorusElement) parts."""
    acc: dict = {}
    for sign, a in parts:
        for n, c in a.terms.items():
            _add(acc, n, c if sign > 0 else -c)
    return TorusElement(spec, acc)


def der_sum(spec, *parts):
    """sum of (sign, DerElement) parts."""
    inner: dict = {}
    witt: dict = {}
    for sign, x in parts:
        for s, c in x.inner.items():
            _add_inner(spec, inner, s, c if sign > 0 else -c)
        for r, u in x.witt.items():
            _add_witt(witt, r, u if sign > 0 else tuple(-c for c in u))
    return DerElement(spec, inner, witt)


def scale(x, c):
    """c times a torus, derivation or pair element, one product per term."""
    spec = x.spec
    if isinstance(x, TorusElement):
        acc: dict = {}
        for n, v in x.terms.items():
            _add(acc, n, c * v)
        return TorusElement(spec, acc)
    if isinstance(x, DerElement):
        inner: dict = {}
        witt: dict = {}
        for s, v in x.inner.items():
            _add_inner(spec, inner, s, c * v)
        for r, u in x.witt.items():
            _add_witt(witt, r, tuple(c * v for v in u))
        return DerElement(spec, inner, witt)
    return GElement(spec, scale(x.der, c), scale(x.torus, c))


def equal(x, y) -> bool:
    """x == y term by term: same class, same spec and equal coefficients."""
    if type(x) is not type(y) or x.spec != y.spec:
        return False
    if isinstance(x, TorusElement):
        return x.terms == y.terms
    if isinstance(x, DerElement):
        return x.inner == y.inner and x.witt == y.witt
    return equal(x.der, y.der) and equal(x.torus, y.torus)


def der_from_json(spec, obj) -> DerElement:
    """Rows summed one by one; inner rows at radical degrees are dropped."""
    inner: dict = {}
    witt: dict = {}
    for row in obj.get("inner", ()):
        _add_inner(spec, inner, spec._point(row["s"]), CycNumber.from_json(row["c"]))
    for row in obj.get("witt", ()):
        r = spec._point(row["r"])
        if not spec.in_radical(r):
            raise NotInRadical(f"witt degree {r} is not in rad(f)")
        _add_witt(witt, r, tuple(CycNumber.from_json(x) for x in row["u"]))
    return DerElement(spec, inner, witt)


def torus_from_json(spec, obj) -> TorusElement:
    acc: dict = {}
    for row in obj:
        _add(acc, spec._point(row["n"]), CycNumber.from_json(row["c"]))
    return TorusElement(spec, acc)


def tmul(a: TorusElement, b: TorusElement) -> TorusElement:
    if a.spec != b.spec:
        raise SpecMismatch("operands live over different torus specs")
    spec = a.spec
    acc: dict = {}
    for n, cn in a.terms.items():
        for m, cm in b.terms.items():
            _add(acc, _shift(n, m), cn * cm * spec.sigma(n, m))
    return TorusElement(spec, acc)


def tcomm(a: TorusElement, b: TorusElement) -> TorusElement:
    return torus_sum(a.spec, (1, tmul(a, b)), (-1, tmul(b, a)))


def dbracket(x: DerElement, y: DerElement) -> DerElement:
    if x.spec != y.spec:
        raise SpecMismatch("operands live over different torus specs")
    spec = x.spec
    inner: dict = {}
    witt: dict = {}
    for s, cs in x.inner.items():
        for r, cr in y.inner.items():
            _add_inner(spec, inner, _shift(s, r), cs * cr * (spec.sigma(s, r) - spec.sigma(r, s)))
    for r, u in x.witt.items():
        for s, cs in y.inner.items():
            _add_inner(spec, inner, _shift(r, s), cs * _pairing(u, s) * spec.sigma(r, s))
    for s, cs in x.inner.items():
        for r, u in y.witt.items():
            _add_inner(spec, inner, _shift(r, s), -(cs * _pairing(u, s) * spec.sigma(r, s)))
    for r, u in x.witt.items():
        for r2, v in y.witt.items():
            sig = spec.sigma(r, r2)
            cu = _pairing(u, r2)
            cv = _pairing(v, r)
            w = tuple(sig * (cu * vi - cv * ui) for ui, vi in zip(u, v))
            if any(not t.is_zero() for t in w):
                _add_witt(witt, _shift(r, r2), w)
    return DerElement(spec, inner, witt)


def dact(x: DerElement, a: TorusElement) -> TorusElement:
    if x.spec != a.spec:
        raise SpecMismatch("derivation and torus element specs differ")
    spec = x.spec
    acc: dict = {}
    for n, cn in a.terms.items():
        for s, cs in x.inner.items():
            _add(acc, _shift(s, n), cs * cn * (spec.sigma(s, n) - spec.sigma(n, s)))
        for r, u in x.witt.items():
            _add(acc, _shift(r, n), cn * _pairing(u, n) * spec.sigma(r, n))
    return TorusElement(spec, acc)


def gbracket(x: GElement, y: GElement) -> GElement:
    if x.spec != y.spec:
        raise SpecMismatch("operands live over different torus specs")
    torus = torus_sum(
        x.spec,
        (1, dact(x.der, y.torus)),
        (-1, dact(y.der, x.torus)),
        (1, tcomm(x.torus, y.torus)),
    )
    return GElement(x.spec, dbracket(x.der, y.der), torus)
