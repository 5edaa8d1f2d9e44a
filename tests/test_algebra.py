"""Tests for the twisted group-algebra elements (TorusElement)."""

import hashlib
import random
from fractions import Fraction

import pytest

from qtorus import cyclotomic
from qtorus.algebra import TorusElement, is_central, tcomm, tmul
from qtorus.cyclotomic import CycNumber, root_of_unity
from qtorus.errors import ConductorLimitExceeded, SpecMismatch
from qtorus.torus import TorusSpec

SPEC_I = TorusSpec.from_upper(2, 2, {(0, 1): 1})
SPEC_II = TorusSpec.from_upper(2, 3, {(0, 1): 1})
SPEC_III = TorusSpec.from_upper(3, 4, {(0, 1): 1, (0, 2): 2, (1, 2): 0})


def sub_rng(seed, label):
    h = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(h[:8], "big"))


def rand_point(rng, d, radius=3):
    return tuple(rng.randint(-radius, radius) for _ in range(d))

def rand_coeff(rng, spec):
    k = rng.randrange(spec.N)
    c = spec.root(k)
    return c * Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def rand_element(rng, spec, nterms=3):
    out = TorusElement.zero(spec)
    for _ in range(nterms):
        out = out + TorusElement.monomial(spec, rand_point(rng, spec.d), rand_coeff(rng, spec))
    return out


def test_monomial_product_frozen_values():
    # order-2 twist: t^(1,0) t^(0,1) = t^(1,1),  t^(0,1) t^(1,0) = -t^(1,1)
    a = TorusElement.monomial(SPEC_I, (1, 0))
    b = TorusElement.monomial(SPEC_I, (0, 1))
    ab = tmul(a, b)
    ba = tmul(b, a)
    assert ab == TorusElement.monomial(SPEC_I, (1, 1))
    assert ba == TorusElement.monomial(SPEC_I, (1, 1), -1)
    assert ab == ba.scale(-1)


def test_monomial_commutation_factor_matches_spec():
    rng = sub_rng(20260819, "commutation")
    for spec in (SPEC_I, SPEC_II, SPEC_III):
        for _ in range(40):
            n = rand_point(rng, spec.d)
            m = rand_point(rng, spec.d)
            tn = TorusElement.monomial(spec, n)
            tm = TorusElement.monomial(spec, m)
            # t^n t^m = f(n,m) t^m t^n
            assert tmul(tn, tm) == tmul(tm, tn).scale(spec.comm_factor(n, m))


def test_identity_and_scaling():
    one = TorusElement.one(SPEC_II)
    rng = sub_rng(20260819, "identity")
    for _ in range(20):
        a = rand_element(rng, SPEC_II)
        assert tmul(one, a) == a
        assert tmul(a, one) == a
        assert a.scale(0) == TorusElement.zero(SPEC_II)
        assert a.scale(1) == a


def test_associativity_seeded():
    rng = sub_rng(20260819, "assoc")
    for spec in (SPEC_I, SPEC_II, SPEC_III):
        for _ in range(25):
            a = rand_element(rng, spec, 2)
            b = rand_element(rng, spec, 2)
            c = rand_element(rng, spec, 2)
            assert tmul(tmul(a, b), c) == tmul(a, tmul(b, c))


def test_distributivity_seeded():
    rng = sub_rng(20260819, "distrib")
    for _ in range(25):
        a = rand_element(rng, SPEC_III, 2)
        b = rand_element(rng, SPEC_III, 2)
        c = rand_element(rng, SPEC_III, 2)
        assert tmul(a, b + c) == tmul(a, b) + tmul(a, c)
        assert tmul(a + b, c) == tmul(a, c) + tmul(b, c)


def test_commutator_jacobi_seeded():
    rng = sub_rng(20260819, "jacobi")
    for _ in range(15):
        a = rand_element(rng, SPEC_I, 2)
        b = rand_element(rng, SPEC_I, 2)
        c = rand_element(rng, SPEC_I, 2)
        total = (
            tcomm(a, tcomm(b, c)) + tcomm(b, tcomm(c, a)) + tcomm(c, tcomm(a, b))
        )
        assert total == TorusElement.zero(SPEC_I)


def test_central_elements_are_radical_supported():
    rng = sub_rng(20260819, "central")
    for spec in (SPEC_I, SPEC_II):
        rad = spec.radical()
        # radical-supported element is central
        z = TorusElement.zero(spec)
        for row in rad.basis:
            z = z + TorusElement.monomial(spec, row, rand_coeff(rng, spec))
        assert is_central(z)
        # adding a non-radical monomial breaks centrality
        n = (1, 0)
        assert not spec.in_radical(n)
        assert not is_central(z + TorusElement.monomial(spec, n))
        # cross-check against explicit commutators with the generators
        bad = z + TorusElement.monomial(spec, n)
        gens = [TorusElement.monomial(spec, g) for g in ((1, 0), (0, 1))]
        assert all(tcomm(z, g).is_zero() for g in gens)
        assert any(not tcomm(bad, g).is_zero() for g in gens)


def test_is_central_reads_the_support_of_nonzero_components():
    """Seeded sums of monomials are central exactly when their opened terms
    all sit in the radical; (1 + zeta_3) zeta_3 + 1 at a non-radical degree
    sums to the counts (1, 1, 1), which fold to zero, so it leaves no
    support."""
    rng = sub_rng(20261020, "central-support")
    for spec in (SPEC_I, SPEC_II, SPEC_III):
        rad = spec.radical()
        for _ in range(30):
            z = TorusElement.zero(spec)
            for _ in range(rng.randint(1, 3)):
                row = rng.choice(rad.basis) if rng.random() < 0.7 else rand_point(rng, spec.d, 2)
                z = z + TorusElement.monomial(spec, row, rand_coeff(rng, spec))
            assert is_central(z) == all(spec.in_radical(n) for n in z.terms)
    n = (1, 0)
    zeta = SPEC_II.root(1)
    rotated = TorusElement.monomial(SPEC_II, n, 1 + zeta).scale(zeta)
    vanishing = rotated + TorusElement.monomial(SPEC_II, n)
    assert not SPEC_II.in_radical(n) and vanishing._store.sums[0, n] == [1, 1, 1]
    assert is_central(vanishing) and vanishing.terms == {}


def test_is_central_raises_when_the_criteria_disagree(monkeypatch):
    monkeypatch.setattr(TorusSpec, "_radical_point", lambda self, n: True)
    with pytest.raises(AssertionError, match="centrality criteria disagree"):
        is_central(TorusElement.monomial(SPEC_III, (1, 0, 0)))


def test_json_round_trip():
    rng = sub_rng(20260819, "json")
    for _ in range(10):
        a = rand_element(rng, SPEC_III)
        assert TorusElement.from_json(SPEC_III, a.to_json()) == a


def test_spec_mismatch_rejected():
    a = TorusElement.one(SPEC_I)
    b = TorusElement.one(SPEC_II)
    with pytest.raises(SpecMismatch):
        tmul(a, b)
    with pytest.raises(SpecMismatch):
        a + b


def test_sums_and_products_read_each_term_at_its_own_conductor(monkeypatch):
    # zeta_8 and zeta_3 meet in one store at L = 24, but each term fits a cap of 20
    monkeypatch.setattr(cyclotomic, "_FIELDS", {})
    monkeypatch.setenv("QTORUS_MAX_CONDUCTOR", "20")
    x = TorusElement.monomial(SPEC_III, (1, 0, 0), root_of_unity(8, 1))
    y = TorusElement.monomial(SPEC_III, (0, 1, 0), root_of_unity(3, 1))
    s = x + y
    assert s.terms == {(1, 0, 0): root_of_unity(8, 1), (0, 1, 0): root_of_unity(3, 1)}
    t = TorusElement.monomial(SPEC_III, (0, 0, 1))
    assert tmul(s, t) == tmul(x, t) + tmul(y, t)
    assert (s - x) == y
    # a term whose value needs conductor 24 still exceeds the cap, when the
    # sum is first read
    with pytest.raises(ConductorLimitExceeded, match="conductor 24 exceeds"):
        (x + TorusElement.monomial(SPEC_III, (1, 0, 0), root_of_unity(3, 1))).terms
    # b reads zero but its store holds counts at indices 0, 4 and 8 of L = 12;
    # its product with a zeta_8 term is taken from the folded zero, so it needs
    # no conductor 24 (test_a_value_does_not_depend_on_an_earlier_zero_test)
    w = TorusElement.monomial(SPEC_III, (0, 0, 0), root_of_unity(3, 1))
    b = tmul(w, w) + TorusElement.one(SPEC_III) + w
    assert b.terms == {}
    z = tmul(TorusElement.monomial(SPEC_III, (0, 0, 0), root_of_unity(8, 1)), b)
    assert z.is_zero() and z.terms == {}


@pytest.mark.parametrize("tested_first", [False, True])
def test_a_value_does_not_depend_on_an_earlier_zero_test(monkeypatch, tested_first):
    """b = w^2 + t^0 + w with w = zeta_3 t^0 is zero, held as counts at
    indices 0, 4 and 8 of Z/12.  Lifted raw to L = 24 beside a zeta_8 term,
    those counts would need Q(zeta_24), over a cap of 20, unless b had been
    zero-tested (which folds them) first.  Forms of different L are taken
    from their folded values, so every order gives the same answer."""
    monkeypatch.setattr(cyclotomic, "_FIELDS", {})
    monkeypatch.setenv("QTORUS_MAX_CONDUCTOR", "20")
    zero = (0, 0, 0)
    zeta8 = root_of_unity(8, 1)
    a = TorusElement.monomial(SPEC_III, zero, zeta8)
    w = TorusElement.monomial(SPEC_III, zero, root_of_unity(3, 1))
    results = []
    for op in (tmul, lambda x, y: x + y, lambda x, y: x - y, lambda x, y: y.scale(zeta8)):
        b = tmul(w, w) + TorusElement.one(SPEC_III) + w
        if tested_first:
            assert b.is_zero()
        results.append(op(a, b).terms)
    assert results == [{}, {zero: zeta8}, {zero: zeta8}, {}]


def test_coefficients_merge_and_cancel():
    a = TorusElement.monomial(SPEC_I, (1, 2), Fraction(1, 2))
    b = TorusElement.monomial(SPEC_I, (1, 2), Fraction(-1, 2))
    assert (a + b).is_zero()
    c = a + a
    assert c == TorusElement.monomial(SPEC_I, (1, 2), 1)
