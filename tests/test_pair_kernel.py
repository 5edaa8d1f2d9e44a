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

A third test builds nested expressions from elements made by the kernel,
which hold their stores, so every operand after the first level enters as a
ring form taken off a store's unreduced counts: brackets of brackets, sums,
differences, the random draws of the lie checks, brackets that land on an
inner term at a radical degree, and a hand-made store whose counts partly
read zero.  The Jacobi-type lie checks and the commutation rule then read no
store out at all, and a zero test followed by a read folds each component
once.  scale, unary - and ==, written once for the three classes on the
store, are compared with the oracle on built elements and on held stores of
another L.

Sums of two held stores are compared with the oracle on hand-made stores:
denominators that differ, counts that cancel and counts that fold to zero,
inner keys at radical degrees, and two L that differ, where the sum is
taken from folded values.  Neither operand's counts or folded values change.

Every kernel entry and every sum shares one spec check, and a sum of two
different element classes is refused.
"""

import operator
import random
from fractions import Fraction
from itertools import permutations
from math import lcm

import _pair_oracle as oracle
import pytest

from qtorus import algebra, checks
from qtorus.algebra import INNER, TORUS, WITT, TorusElement, tcomm, tmul
from qtorus.cyclotomic import _as_coeff, root_of_unity
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


# -- nested expressions of elements that hold their stores ----------------------

LAZY_ENTRIES = (
    (tmul, oracle.tmul, "torus", "torus", "torus"),
    (tcomm, oracle.tcomm, "torus", "torus", "torus"),
    (dact, oracle.dact, "der", "torus", "torus"),
    (dbracket, oracle.dbracket, "der", "der", "der"),
    (gbracket, oracle.gbracket, "pair", "pair", "pair"),
)
LAZY_STEPS = 60
MAX_DEPTH = 2  # the deeper operand of a step; the other one is a leaf


def _oracle_sum(spec, kind, parts):
    """The oracle's sum of (sign, value) parts of one class."""
    if kind == "torus":
        return oracle.torus_sum(spec, *parts)
    if kind == "der":
        return oracle.der_sum(spec, *parts)
    der = oracle.der_sum(spec, *((sign, x.der) for sign, x in parts))
    return GElement(spec, der, oracle.torus_sum(spec, *((sign, x.torus) for sign, x in parts)))


def _term_value(spec, kind, n, c):
    """One basis term (kind, degree, coefficient) as a built pair."""
    if kind == TORUS:
        return GElement(spec, torus=TorusElement(spec, {n: c}))
    if kind == INNER:
        return GElement(spec, DerElement(spec, inner={n: c}))
    return GElement(spec, DerElement(spec, witt={n: [c if i == kind - WITT else 0 for i in range(spec.d)]}))


def _draws(rng, spec):
    """The lie checks' random draws, each made by one _sum, with the sums of
    their terms replayed through the oracle."""
    def pair_terms(r, s):
        return checks._rand_der_terms(r, s) + checks._rand_torus_terms(r, s)

    for kind, draw, terms in (
        ("torus", checks._rand_torus_elt, checks._rand_torus_terms),
        ("der", checks._rand_der, checks._rand_der_terms),
        ("pair", checks._rand_pair_elt, pair_terms),
    ):
        state = rng.getstate()
        x = draw(rng, spec)
        rng.setstate(state)
        value = _oracle_sum(spec, "pair", [(1, _term_value(spec, *t)) for t in terms(rng, spec)])
        yield kind, x, {"torus": value.torus, "der": value.der, "pair": value}[kind]


def _at_radical_degrees(rng, spec):
    """Elements whose stores hold nonzero counts at an inner key of a radical
    degree r, which reads zero: sums with ad t^r among their terms, each then
    bracketed with a leaf, and the bracket of ad t^s with ad t^(r - s)."""
    r, s = _radical_point(rng, spec), _point(rng, spec.d)
    kinds = (INNER, r), (INNER, s), (WITT, r), (TORUS, r)
    terms = [(kind, n, _as_coeff(_coeff(rng, spec))) for kind, n in kinds]
    value = _oracle_sum(spec, "pair", [(1, _term_value(spec, *t)) for t in terms])
    w, p = DerElement._sum(spec, terms[:3]), GElement._sum(spec, terms)
    assert any(w._store.sums[INNER, r]) and any(p._store.sums[INNER, r])
    y, a = _element(rng, spec), _element(rng, spec, 8)
    yield "der", w, value.der, 1
    yield "pair", p, value, 1
    yield "der", dbracket(w, y.der), oracle.dbracket(value.der, y.der), 2
    yield "torus", dact(w, a.torus), oracle.dact(value.der, a.torus), 2
    yield "pair", gbracket(a, p), oracle.gbracket(a, value), 2
    x = DerElement.ad(spec, s, _coeff(rng, spec))
    y = DerElement.ad(spec, tuple(ri - si for ri, si in zip(r, s)), _coeff(rng, spec))
    yield "der", dbracket(x, y), oracle.dbracket(x, y), 1


def _counts(L, order, *pairs):
    """Counts over Z/L: a at the index of zeta_order^j for each (j, a)."""
    out = [0] * L
    for j, a in pairs:
        out[j * L // order] += a
    return out


def _zero_reading_store(spec):
    """A hand-made pair store over den 2 whose counts partly read zero:
    1 + zeta_4^2 at a torus key, zeta_4 + zeta_4^3 at a Witt key, and an
    inner key at a radical degree."""
    L = lcm(4, spec.N)
    origin, r = (0,) * spec.d, spec.radical().basis[0]
    e = (1,) + origin[1:]
    sums = {
        (TORUS, origin): _counts(L, 4, (0, 1), (2, 1)),
        (WITT, r): _counts(L, 4, (1, 1), (3, 1)),
        (INNER, r): _counts(L, 4, (0, 5)),
        (TORUS, e): _counts(L, 4, (1, 3)),
        (INNER, e): _counts(L, 4, (0, 1), (1, -1)),
        (WITT + spec.d - 1, origin): _counts(L, 4, (0, 2), (1, 1)),
    }
    x = GElement._read(algebra._Graded(spec, L, 2, sums))
    twin = GElement._read(x._store)  # read out in x's place, so x holds its store
    return x, GElement(spec, twin.der, twin.torus)


def _pick(rng, items, deep):
    return rng.choice([item for item in items if item[2] <= (MAX_DEPTH if deep else 0)])


@pytest.mark.parametrize("name", sorted(SPECS))
def test_nested_expressions_of_held_stores_match_the_oracle(name):
    spec = SPECS[name]
    rng = random.Random(f"pair-kernel-lazy:{name}")
    pool = {"torus": [], "der": [], "pair": []}  # (element, oracle value, depth)
    for order in (None, None, 8, 3):
        x = _element(rng, spec, order)
        pool["pair"].append((x, x, 0))
        pool["der"].append((x.der, x.der, 0))
        pool["torus"].append((x.torus, x.torus, 0))
    for _ in range(2):
        for kind, x, value in _draws(rng, spec):
            pool[kind].append((x, value, 0))
        for kind, x, value, depth in _at_radical_degrees(rng, spec):
            pool[kind].append((x, value, depth))
    pool["pair"].append((*_zero_reading_store(spec), 1))
    for _ in range(LAZY_STEPS):
        op = rng.randrange(len(LAZY_ENTRIES) + 2)
        deep = rng.randrange(2)
        if op < len(LAZY_ENTRIES):
            kernel, ref, kx, ky, kind = LAZY_ENTRIES[op]
            x, vx, dx = _pick(rng, pool[kx], deep)
            y, vy, dy = _pick(rng, pool[ky], not deep)
            z, value = kernel(x, y), ref(vx, vy)
        else:
            kind = rng.choice(sorted(pool))
            x, vx, dx = _pick(rng, pool[kind], deep)
            y, vy, dy = _pick(rng, pool[kind], True)
            sign = 1 if op == len(LAZY_ENTRIES) else -1
            z = x + y if sign > 0 else x - y
            value = _oracle_sum(spec, kind, [(1, vx), (sign, vy)])
        pool[kind].append((z, value, max(dx, dy) + 1))
    for items in pool.values():
        for x, value, depth in items:
            if depth:
                assert x._store is not None  # nothing made by the kernel was read out
            _same(x, value)


# -- sums of two held stores ------------------------------------------------------


def _store_value(spec, L, den, sums):
    """The oracle's pair for a hand-made store: each key's counts summed as
    roots of unity with CycNumber arithmetic, no fold of the store's."""
    parts = []
    for (kind, n), counts in sums.items():
        c = sum(
            (root_of_unity(L, j) * Fraction(a, den) for j, a in enumerate(counts) if a),
            _as_coeff(0),
        )
        if not c.is_zero():
            parts.append((1, _term_value(spec, kind, n, c)))
    return _oracle_sum(spec, "pair", parts)


def _store_sum_cases(spec):
    """(x store, y store) pairs of hand-made pair stores, as (L, den, sums).

    The first pair has denominators 2 and 4 and holds, at one key each,
    zeta_4^0 / 2 + zeta_4^2 / 2 (counts that fold to zero without
    cancelling), 3 zeta_4 / 2 - 6 zeta_4 / 4 (counts that cancel), nonzero
    counts at the inner key of a radical degree on both sides, and keys that
    only one side holds.  The second pair shares its denominator, so a key
    held by one side keeps its count list.  The third has L = lcm(N, 8) and
    L = lcm(N, 3), so the sum is taken from folded values."""
    origin, r = (0,) * spec.d, spec.radical().basis[0]
    e = (1,) + origin[1:]
    L = lcm(4, spec.N)
    first = (
        (L, 2, {
            (TORUS, origin): _counts(L, 4, (0, 1)),
            (TORUS, e): _counts(L, 4, (1, 3)),
            (INNER, r): _counts(L, 4, (0, 5)),
            (INNER, e): _counts(L, 4, (0, 1), (1, -1)),
            (WITT, r): _counts(L, 4, (1, 1), (3, 2)),
        }),
        (L, 4, {
            (TORUS, origin): _counts(L, 4, (2, 2)),
            (TORUS, e): _counts(L, 4, (1, -6)),
            (INNER, r): _counts(L, 4, (1, 3)),
            (WITT + spec.d - 1, r): _counts(L, 4, (2, 1)),
        }),
    )
    shared = (
        (L, 3, {(TORUS, e): _counts(L, 4, (1, 2)), (INNER, e): _counts(L, 4, (3, 1))}),
        (L, 3, {(TORUS, e): _counts(L, 4, (0, 1)), (WITT, r): _counts(L, 4, (0, 4), (1, 1))}),
    )
    L8, L3 = lcm(8, spec.N), lcm(3, spec.N)
    unequal = (
        (L8, 1, {(TORUS, e): _counts(L8, 8, (1, 1), (5, 1)), (INNER, e): _counts(L8, 8, (3, 2))}),
        (L3, 2, {
            (TORUS, e): _counts(L3, 3, (0, 1), (1, 1), (2, 1)),
            (WITT, r): _counts(L3, 3, (1, 1)),
        }),
    )
    return first, shared, unequal


def _snapshot(store):
    return {key: list(counts) for key, counts in store.sums.items()}, dict(store.folded)


@pytest.mark.parametrize("name", ["ii", "iii"])
@pytest.mark.parametrize("case", range(3))
@pytest.mark.parametrize("zero_tested", [False, True])
def test_store_sums_match_the_oracle_and_leave_their_operands_as_they_were(name, case, zero_tested):
    """x + y, x - y, y - x, -x and -y of two held stores, and of their der
    and torus parts, against the oracle; both operands' counts and folded
    values are as they were afterwards, also when y was zero-tested (which
    folds some of its components) before the sums."""
    spec = SPECS[name]
    (lx, dx, sx), (ly, dy, sy) = _store_sum_cases(spec)[case]
    vx, vy = _store_value(spec, lx, dx, sx), _store_value(spec, ly, dy, sy)
    x = GElement._read(algebra._Graded(spec, lx, dx, sx))
    y = GElement._read(algebra._Graded(spec, ly, dy, sy))
    if zero_tested:
        assert y.is_zero() == oracle.equal(vy, GElement(spec))
    before = _snapshot(x._store), _snapshot(y._store)
    for (a, va), (b, vb) in (((x, vx), (y, vy)), ((y, vy), (x, vx))):
        _same(a + b, _oracle_sum(spec, "pair", [(1, va), (1, vb)]))
        _same(a - b, _oracle_sum(spec, "pair", [(1, va), (-1, vb)]))
        _same(-a, _oracle_sum(spec, "pair", [(-1, va)]))
        for part in ("der", "torus"):
            pa, pb = getattr(a, part), getattr(b, part)
            qa, qb = getattr(va, part), getattr(vb, part)
            _same(pa + pb, _oracle_sum(spec, part, [(1, qa), (1, qb)]))
            _same(pa - pb, _oracle_sum(spec, part, [(1, qa), (-1, qb)]))
    assert (_snapshot(x._store), _snapshot(y._store)) == before
    if case == 0:
        origin, e = (0,) * spec.d, (1,) + (0,) * (spec.d - 1)
        z = x + y
        assert any(z._store.sums[TORUS, origin]) and not any(z._store.sums[TORUS, e])
        assert (TORUS, origin) not in z._store.read()[0]
    if case == 1:  # a key held by one operand alone keeps its count list
        z, (key,) = x - y, [key for key in sx if key not in sy]
        assert z._store.sums[key] is x._store.sums[key]
    if case == 2:
        assert (x + y)._store.L == lcm(lx, ly)


SCALARS = (root_of_unity(8, 1), root_of_unity(3, 1), Fraction(3, 2), 0)


def _classes(z, value):
    """(element, oracle value) for a pair and for its two components."""
    return [(z, value), (z.der, value.der), (z.torus, value.torus)]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_scale_neg_and_eq_match_the_oracle(name):
    """The base class's scale, - and ==, written once on the store, on the
    three classes: built elements, and held stores whose L differs from the
    scalar's conductor, with counts at every index (brackets and sums of
    Q(zeta_8) and Q(zeta_3) elements, at L = lcm(N, 24)); none of the held
    operands is read out: each enters through its raw counts, or through
    folded values that its store does not keep where a lift meets another L."""
    spec = SPECS[name]
    rng = random.Random(f"pair-kernel-scale:{name}")
    x, x8, x3 = (_element(rng, spec, order) for order in (None, 8, 3))
    items = [(x, x), (x8, x8), (x3, x3)]
    items += [
        (gbracket(x8, x3), oracle.gbracket(x8, x3)),
        (gbracket(x3, gbracket(x8, x)), oracle.gbracket(x3, oracle.gbracket(x8, x))),
        (x8 - x3, _oracle_sum(spec, "pair", [(1, x8), (-1, x3)])),
    ]
    pool = [item for z, value in items for item in _classes(z, value)]
    for z, value in pool:
        for c in SCALARS:
            want = oracle.scale(value, _as_coeff(c))
            got = z.scale(c)
            assert oracle.equal(got, want) and got == want
            if c:
                assert got.scale(1 / _as_coeff(c)) == z
        assert oracle.equal(-z, oracle.scale(value, _as_coeff(-1))) and -(-z) == z
    for z, value in pool:
        for w, other in pool:
            assert (z == w) == oracle.equal(value, other)
            assert (z != w) == (not oracle.equal(value, other))
    assert not any(z._store.folded for z, _ in pool[9:])  # no held store was folded
    for z, _ in pool:
        assert z != type(z).zero(SPECS["i" if name != "i" else "ii"])


def test_a_pair_built_from_parts_of_other_pairs_reads_their_own_values():
    """A pair's der and torus hold parts of its store, which share the
    values folded for all of its keys; a pair built from the der of one
    pair and the torus of another takes only the values of each part's own
    keys, not the first pair's value at a torus degree the second holds."""
    spec = SPECS["iii"]
    n = (1, 1, 0)
    x = GElement(spec, DerElement.ad(spec, (1, 0, 0)), TorusElement.monomial(spec, n, 2))
    a, b = TorusElement.monomial(spec, (1, 0, 0), 3), TorusElement.monomial(spec, (0, 1, 0))
    y = GElement.from_torus(tmul(a, b))
    assert x.torus.terms == {n: 2}  # x's value at n is folded and shared with x.der
    z = GElement(spec, x.der, y.torus)
    expected = GElement(spec, oracle.der_sum(spec, (1, x.der)), oracle.tmul(a, b))
    assert oracle.equal(z, expected) and z == expected


def _count_reads_and_folds(monkeypatch):
    calls = []
    read, fold = algebra._Graded.read, algebra._from_root_counts

    def counted_read(store):
        calls.append(("read", id(store)))
        return read(store)

    def counted_fold(L, counts, den):
        calls.append(("fold", id(counts)))
        return fold(L, counts, den)

    monkeypatch.setattr(algebra._Graded, "read", counted_read)
    monkeypatch.setattr(algebra, "_from_root_counts", counted_fold)
    return calls


JACOBI_TYPE = (
    "torus_associativity",
    "torus_commutator_jacobi",
    "derivation_leibniz",
    "derivation_jacobi",
    "pair_jacobi",
)


def test_the_jacobi_type_checks_read_no_store_out(monkeypatch):
    calls = _count_reads_and_folds(monkeypatch)
    inst = checks._Instance("iii", SPECS["iii"], 200)
    rows = [checks._run_check(c, inst, 1) for c in checks.CHECKS if c.name in JACOBI_TYPE]
    assert [row["check"] for row in rows] == list(JACOBI_TYPE)
    assert all(row["pass"] and row["samples"] == 200 for row in rows)
    assert calls == []


def test_the_commutation_rule_reads_no_store_out(monkeypatch):
    """scale multiplies a held form's counts by the power-basis numerators of
    comm_factor(n, m), so no store is read out.  zeta_4^2 and zeta_4^3 have
    the numerators -1 and -zeta_4, so those differences hold counts that read
    zero without cancelling, and only their zero tests fold."""
    calls = _count_reads_and_folds(monkeypatch)
    inst = checks._Instance("iii", SPECS["iii"], 200)
    (check,) = [c for c in checks.CHECKS if c.name == "torus_commutation_rule"]
    row = checks._run_check(check, inst, 1)
    assert row["pass"] and row["samples"] == 200
    assert [op for op, _ in calls if op == "read"] == []
    assert len(calls) <= 109


def test_a_zero_test_then_a_read_folds_each_component_once(monkeypatch):
    spec = SPECS["iii"]
    rng = random.Random("pair-kernel-fold-once")
    z = gbracket(checks._rand_pair_elt(rng, spec), checks._rand_pair_elt(rng, spec))
    live = [
        counts
        for (kind, n), counts in z._store.sums.items()
        if any(counts) and not (kind == INNER and spec._radical_point(n))
    ]
    calls = _count_reads_and_folds(monkeypatch)
    assert not z.is_zero()
    assert 0 < len(calls) < len(live)  # the zero test stops at the first nonzero one
    z.der.inner, z.der.witt, z.torus.terms
    folds = [key for op, key in calls if op == "fold"]
    assert sorted(folds) == sorted(map(id, live))
