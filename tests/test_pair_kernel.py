"""Differential test: the basis-bracket kernel against the three-class oracle.

tmul, tcomm, dact, dbracket, gbracket, the element sums and parsing are compared with
tests/_pair_oracle.py on seeded elements of mixed degree over the reference
instances, a corrupted cocycle and the untwisted model, with coefficients
that carry roots of unity of order N and 8 and Fraction denominators.

Every element holds its ring form once it has been used, so a second test
reuses operands: one element against many in both slots, operands whose
coefficients lie in different cyclotomic fields (so one or both are lifted
to the common conductor), and elements made by neg, scale, grade,
decompose and sums from operands that were already bracketed.

Every kernel entry and every sum shares one spec check, and a sum of two
different element classes is refused.
"""

import operator
import random
from fractions import Fraction
from itertools import permutations

import _pair_oracle as oracle
import pytest

from qtorus.algebra import TorusElement, tcomm, tmul
from qtorus.cyclotomic import root_of_unity
from qtorus.derivations import DerElement, dact, dbracket
from qtorus.errors import SpecMismatch
from qtorus.semidirect import GElement, decompose, gbracket, untwisted_spec
from qtorus.torus import TorusSpec

A_III = [[0, 1, 2], [3, 0, 0], [2, 0, 0]]
SPECS = {
    "i": TorusSpec.from_upper(2, 2, {(0, 1): 1}),
    "ii": TorusSpec.from_upper(2, 3, {(0, 1): 1}),
    "iii": TorusSpec(3, 4, A_III),
    "iii-corrupt": TorusSpec(3, 4, A_III, corrupt_sigma=True),
    "untwisted": untwisted_spec(2),
}
PAIRS = 400


def _coeff(rng, spec, order=None):
    """A Fraction times a root of unity of order N or 8, or of the given
    order only."""
    q = rng.choice((1, -1, 2, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)))
    if order is not None:
        return root_of_unity(order, rng.randrange(order)) * q
    kind = rng.randrange(3)
    if kind == 0:
        return q
    if kind == 1:
        return spec.root(rng.randrange(spec.N)) * q
    return root_of_unity(8, rng.randrange(8)) * q


def _point(rng, d, radius=2):
    return tuple(rng.randint(-radius, radius) for _ in range(d))


def _radical_point(rng, spec):
    rad = spec.radical()
    c = [rng.randint(-1, 1) for _ in rad.basis]
    return tuple(sum(a * row[i] for a, row in zip(c, rad.basis)) for i in range(spec.d))


def _element(rng, spec, order=None):
    """A pair element of mixed degree, built without element arithmetic."""
    def coeff():
        return _coeff(rng, spec, order)

    torus = {_point(rng, spec.d): coeff() for _ in range(rng.randint(0, 3))}
    inner = {_point(rng, spec.d): coeff() for _ in range(rng.randint(0, 2))}
    witt = {
        _radical_point(rng, spec): [coeff() if rng.randrange(3) else 0 for _ in range(spec.d)]
        for _ in range(rng.randint(0, 2))
    }
    return GElement(spec, DerElement(spec, inner, witt), TorusElement(spec, torus))


def _same(new, old):
    assert new == old
    assert new.to_json() == old.to_json()


def _rows(rng, spec, x, y):
    """The JSON rows of x and y concatenated, so shared degrees repeat, plus
    inner rows at radical degrees, which parse to nothing."""
    a, b = x.to_json(), y.to_json()
    inner = a["der"]["inner"] + b["der"]["inner"]
    inner += [
        {"s": list(_radical_point(rng, spec)), "c": root_of_unity(8, rng.randrange(8)).to_json()}
        for _ in range(2)
    ]
    rng.shuffle(inner)
    der = {"inner": inner, "witt": a["der"]["witt"] + b["der"]["witt"]}
    return der, a["torus"] + b["torus"]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_kernel_matches_the_three_class_oracle(name):
    spec = SPECS[name]
    rng = random.Random(f"pair-kernel:{name}")
    for _ in range(PAIRS):
        x, y = _element(rng, spec), _element(rng, spec)
        if rng.randrange(3) == 0:
            # overlapping supports: y shares every degree of x
            y = GElement(
                spec,
                oracle.der_sum(spec, (1, x.der), (1, y.der)),
                oracle.torus_sum(spec, (1, x.torus), (1, y.torus)),
            )
            _same(x + (y - x), y)
        _same(x.torus + y.torus, oracle.torus_sum(spec, (1, x.torus), (1, y.torus)))
        _same(x.torus - y.torus, oracle.torus_sum(spec, (1, x.torus), (-1, y.torus)))
        _same(x.der + y.der, oracle.der_sum(spec, (1, x.der), (1, y.der)))
        _same(tmul(x.torus, y.torus), oracle.tmul(x.torus, y.torus))
        _same(tcomm(x.torus, y.torus), oracle.tcomm(x.torus, y.torus))
        _same(dact(x.der, y.torus), oracle.dact(x.der, y.torus))
        _same(dbracket(x.der, y.der), oracle.dbracket(x.der, y.der))
        _same(gbracket(x, y), oracle.gbracket(x, y))
        der, torus = _rows(rng, spec, x, y)
        _same(DerElement.from_json(spec, der), oracle.der_from_json(spec, der))
        _same(TorusElement.from_json(spec, torus), oracle.torus_from_json(spec, torus))


def _all_products(x, y):
    """Every product and bracket of x and y, in both slots, against the oracle."""
    for a, b in ((x, y), (y, x)):
        _same(tmul(a.torus, b.torus), oracle.tmul(a.torus, b.torus))
        _same(tcomm(a.torus, b.torus), oracle.tcomm(a.torus, b.torus))
        _same(dact(a.der, b.torus), oracle.dact(a.der, b.torus))
        _same(dbracket(a.der, b.der), oracle.dbracket(a.der, b.der))
        _same(gbracket(a, b), oracle.gbracket(a, b))
    spec = x.spec
    der = oracle.der_sum(spec, (1, x.der), (1, y.der))
    _same(x + y, GElement(spec, der, oracle.torus_sum(spec, (1, x.torus), (1, y.torus))))


def _derived(rng, spec, x, y):
    """Elements made from x and y, which have already been bracketed."""
    n = rng.choice(x.der.degrees() or [_point(rng, spec.d)])
    parts = decompose(x)
    c = _coeff(rng, spec, rng.choice((None, 3)))
    return [
        -x,
        x.scale(c),
        GElement(spec, x.der.scale(c), -y.torus),
        GElement(spec, x.der.grade(n), y.torus.scale(c)),
        GElement(spec, parts["witt"], parts["c1"]),
        GElement(spec, -parts["witt"], parts["c2"]),
        GElement(spec, y.der, x.torus),
        x + y,
        x - y,
    ]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_held_forms_match_the_oracle_on_reused_operands(name):
    spec = SPECS[name]
    rng = random.Random(f"pair-kernel-reuse:{name}")
    # one operand against many others; the others lie in Q(zeta_8),
    # Q(zeta_3) or Q(zeta_N), so the kernel lifts one side, the other or both
    pivot = _element(rng, spec, 8)
    others = [_element(rng, spec, rng.choice((None, 3, 8, spec.N))) for _ in range(12)]
    for y in others:
        _all_products(pivot, y)
    for _ in range(6):
        x, y = rng.sample(others, 2)
        _all_products(x, y)
        for z in _derived(rng, spec, x, y):
            _all_products(z, pivot)
            _all_products(z, rng.choice(others))
    for y in others:
        _all_products(pivot, y)


def _one(kind, spec):
    """A nonzero torus, derivation or pair element over a rank-2 spec."""
    a = TorusElement.monomial(spec, (1, 0), 2)
    x = DerElement.ad(spec, (0, 1)) + DerElement.degree_derivation(spec, 0)
    return {"torus": a, "der": x, "pair": GElement(spec, x, a)}[kind]


ENTRIES = {
    "tmul": (tmul, "torus", "torus"),
    "tcomm": (tcomm, "torus", "torus"),
    "dact": (dact, "der", "torus"),
    "dbracket": (dbracket, "der", "der"),
    "gbracket": (gbracket, "pair", "pair"),
    **{
        f"{cls} {sym}": (op, kind, kind)
        for cls, kind in (("TorusElement", "torus"), ("DerElement", "der"), ("GElement", "pair"))
        for sym, op in (("+", operator.add), ("-", operator.sub))
    },
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_kernel_entry_and_sum_rejects_operands_over_different_specs(entry):
    op, kx, ky = ENTRIES[entry]
    x = _one(kx, SPECS["i"])
    op(x, _one(ky, SPECS["i"]))  # one spec: accepted
    with pytest.raises(SpecMismatch, match="^operands live over different torus specs$"):
        op(x, _one(ky, SPECS["ii"]))


def test_a_sum_of_two_element_classes_is_a_type_error():
    spec = SPECS["i"]
    for kx, ky in permutations(("torus", "der", "pair"), 2):
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(_one(kx, spec), _one(ky, spec))
