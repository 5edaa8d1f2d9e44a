"""Tests for box-truncated weight modules: actions, operators, extraction."""

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from qtorus import checks, fmodule
from qtorus.cyclotomic import CycNumber, root_of_unity
from qtorus.errors import ConfigError, NotCharacter, SpecMismatch
from qtorus.algebra import TorusElement
from qtorus.derivations import DerElement
from qtorus.fmodule import (
    FLAVORS,
    BoxVector,
    DiagonalCharacter,
    ModuleSpec,
    TwistCharacter,
    act,
    c2_product_expr,
    expr_commutator,
    expr_defect_at,
    expr_defects_at,
    expr_first_defect,
    expr_of,
    extract_twist,
    intertwiner_check,
    irreducibility_evidence,
    op_inner,
    op_torus,
    op_witt,
    search_twist_equivalence,
    symbol,
    weight_op_expr,
    weight_op_matrix,
    zero_mode_expr,
    zero_mode_scalar,
)
from qtorus.fmodule import _Operator, _part_symbol, _weight_symbol
from qtorus.glmodules import (
    algebra_dim,
    direct_sum,
    dual,
    ext_power,
    image_algebra_dim,
    mat_add,
    mat_eq,
    mat_mul,
    mat_scale,
    matrix_as_scalar,
    natural,
    parse_module,
    sym_power,
    trivial,
)
from qtorus.lattice import units
from qtorus.semidirect import GElement
from qtorus.torus import TorusSpec

from _act_oracle import act as oracle_act
from _gl_oracle import conjugated_sum

SPEC_I = TorusSpec.from_upper(2, 2, {(0, 1): 1})
SPEC_II = TorusSpec.from_upper(2, 3, {(0, 1): 1})
SPEC_III = TorusSpec.from_upper(3, 4, {(0, 1): 1, (0, 2): 2, (1, 2): 0})
SPEC_III_CORRUPT = TorusSpec(3, 4, SPEC_III.A, corrupt_sigma=True)
BOX2 = (3, 3)


def sub_rng(seed, label):
    h = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(h[:8], "big"))


def plain_module(spec, V=None, alpha=None):
    V = V if V is not None else natural(spec.d)
    alpha = alpha if alpha is not None else (0,) * spec.d
    return ModuleSpec(spec, V, alpha, TwistCharacter.trivial(spec), "F")


def suite_row(suite, check, ms, samples, seed=20260819):
    """The report row of one check from a seeded run of its suite."""
    (row,) = [r for r in suite(ms, seed, samples) if r["check"] == check]
    return row


def box_points(box, *offsets):
    """The points n of the box, in lexicographic order, with n + off inside
    the box for every given offset."""
    lo = [max([-r] + [-r - off[i] for off in offsets]) for i, r in enumerate(box)]
    hi = [min([r] + [r - off[i] for off in offsets]) for i, r in enumerate(box)]
    return list(itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]))


def test_act_inner_frozen_value():
    # on d=2, N=2: ad t^(1,0) maps v((0,1)) to (sigma(s,n) - sigma(n,s)) v((1,1))
    # with sigma(s,n)=1 and sigma(n,s)=-1, so the coefficient is exactly 2
    ms = plain_module(SPEC_I)
    w = BoxVector.basis_vector(BOX2, 2, (0, 1), 0)
    out = act(op_inner(SPEC_I, (1, 0)), w, ms)
    assert out.support() == [(1, 1)]
    assert out.get((1, 1)) == (CycNumber.rational(2), CycNumber.zero())
    assert not out.truncated


def test_act_torus_frozen_value():
    # t^(1,1) v((1,0)) = sigma((1,1),(1,0)) v((2,1)) = -v((2,1)) on d=2, N=2
    ms = plain_module(SPEC_I)
    w = BoxVector.basis_vector(BOX2, 2, (1, 0), 1)
    out = act(op_torus(SPEC_I, (1, 1)), w, ms)
    assert out.support() == [(2, 1)]
    assert out.get((2, 1)) == (CycNumber.zero(), CycNumber.rational(-1))


def test_act_degree_zero_witt_is_weight_eigenvalue():
    alpha = (CycNumber.rational(Fraction(1, 2)), CycNumber.rational(3))
    ms = plain_module(SPEC_I, alpha=alpha)
    rng = sub_rng(20260819, "weight-eigenvalue")
    for _ in range(20):
        n = (rng.randint(-3, 3), rng.randint(-3, 3))
        i = rng.randrange(2)
        u = [1 if j == i else 0 for j in range(2)]
        w = BoxVector.basis_vector(BOX2, 2, n, rng.randrange(2))
        out = act(op_witt(SPEC_I, u, (0, 0)), w, ms)
        assert out == w.scale(alpha[i] + n[i])


def test_act_witt_moves_coordinates():
    # D(u, r) v(n) = sigma(r,n) ((u, n+alpha) Id + r u^T) v(r+n): take u=e_1,
    # r=(0,2) on the natural module so r u^T = 2 E_{10} swaps weight into row 1
    ms = plain_module(SPEC_I)
    w = BoxVector.basis_vector(BOX2, 2, (1, 0), 0)
    out = act(op_witt(SPEC_I, [1, 0], (0, 2)), w, ms)
    # sigma((0,2),(1,0)) has exponent A[1][0]*2*1 = 2 = 0 mod 2, so +1
    assert out.support() == [(1, 2)]
    assert out.get((1, 2)) == (CycNumber.rational(1), CycNumber.rational(2))


def test_act_flavored_inner_rules():
    g = TwistCharacter(SPEC_I, 2, (1, 0))

    def w0():
        return BoxVector.basis_vector(BOX2, 2, (0, 0), 0)

    # at n = 0 both sigmas are 1: G_g coefficient 1 - g(s); F_g coefficient g(s) - 1
    msG = ModuleSpec(SPEC_I, natural(2), (0, 0), g, "G_g")
    out = act(op_inner(SPEC_I, (1, 0)), w0(), msG)
    assert out.get((1, 0)) == (CycNumber.rational(2), CycNumber.zero())
    msFg = ModuleSpec(SPEC_I, natural(2), (0, 0), g, "F_g")
    out = act(op_inner(SPEC_I, (1, 0)), w0(), msFg)
    assert out.get((1, 0)) == (CycNumber.rational(-2), CycNumber.zero())
    # the torus action is identical in all flavors
    for ms in (msG, msFg):
        a = act(op_torus(SPEC_I, (1, 1)), w0(), ms)
        b = act(op_torus(SPEC_I, (1, 1)), w0(), plain_module(SPEC_I))
        assert a == b


def _random_homogeneous(rng, spec):
    """Seeded homogeneous elements of every kind, with their degrees."""
    d = spec.d
    rad = spec.radical()

    def coeff():
        return spec.root(rng.randrange(spec.N)) * Fraction(rng.randint(1, 3), rng.randint(1, 2))

    def point():
        return tuple(rng.randint(-2, 2) for _ in range(d))

    def radical_point():
        coeffs = [rng.randint(-1, 1) for _ in rad.basis]
        return tuple(sum(c * row[i] for c, row in zip(coeffs, rad.basis)) for i in range(d))

    out = [(GElement.zero(spec), (0,) * d)]
    for _ in range(3):
        m, s, r = point(), point(), radical_point()
        u = [coeff() for _ in range(d)]
        torus = TorusElement.monomial(spec, m, coeff())
        out.append((GElement.from_torus(torus), m))
        if not spec.in_radical(s):
            inner = DerElement.ad(spec, s, coeff())
            out.append((GElement.from_der(inner), s))
            # torus and inner terms of one degree act together
            out.append((GElement(spec, inner, TorusElement.monomial(spec, s, coeff())), s))
        witt = DerElement.witt_term(spec, u, r)
        out.append((GElement.from_der(witt), r))
        out.append((GElement(spec, witt, TorusElement.monomial(spec, r, coeff())), r))
    return out


@pytest.mark.parametrize(
    "spec,modulus,exps",
    [(SPEC_I, 2, (1, 0)), (SPEC_II, 3, (1, 2)), (SPEC_III, 4, (3, 0, 0))],
    ids=["i", "ii", "iii"],
)
def test_symbol_columns_match_act_on_basis_vectors(spec, modulus, exps):
    rng = sub_rng(20260819, f"symbol-{spec.d}-{spec.N}")
    box = (6,) * spec.d
    alpha = [Fraction(1, 2)] + [Fraction(-1, 3)] * (spec.d - 1)
    twist = TwistCharacter(spec, modulus, exps)
    for V in (natural(spec.d), sym_power(spec.d, 2)):
        for flavor in FLAVORS:
            g = TwistCharacter.trivial(spec) if flavor == "F" else twist
            ms = ModuleSpec(spec, V, alpha, g, flavor)
            for x, k in _random_homogeneous(rng, spec):
                for n in rng.sample(box_points(box, k), 2):
                    M = symbol(x, n, ms)
                    for t in range(V.dim):
                        w = BoxVector.basis_vector(box, V.dim, n, t)
                        image = oracle_act(x, w, ms).get(tuple(a + b for a, b in zip(n, k)))
                        assert [row[t] for row in M] == list(image), (flavor, V.name, n, t)


@pytest.mark.parametrize(
    "spec,modulus,exps",
    [
        (SPEC_I, 2, (1, 0)),
        (SPEC_II, 3, (1, 2)),
        (SPEC_III, 4, (3, 0, 0)),
        (SPEC_III_CORRUPT, 4, (3, 0, 0)),
    ],
    ids=["i", "ii", "iii", "corrupt-sigma"],
)
def test_the_operator_memo_agrees_with_a_fresh_symbol_at_every_point(spec, modulus, exps):
    """An operator record's at(n) is a fresh _part_symbol(x, k, n, ms) at
    every point of box 3, for torus, inner, Witt (u cyclotomic) and mixed
    elements, V natural and sym:2, and every flavor.  The memo must also be
    hit, or the comparison would show nothing about its key."""
    rng = sub_rng(20261020, f"operator-memo-{spec.d}-{spec.N}-{spec.corrupt_sigma}")
    pts = box_points((3,) * spec.d)
    alpha = [Fraction(1, 2)] + [Fraction(-1, 3)] * (spec.d - 1)
    twist = TwistCharacter(spec, modulus, exps)
    elements = [(x, k) for x, k in _random_homogeneous(rng, spec) if not x.is_zero()]
    hits = 0
    for V in (natural(spec.d), sym_power(spec.d, 2)):
        for flavor in FLAVORS:
            g = TwistCharacter.trivial(spec) if flavor == "F" else twist
            ms = ModuleSpec(spec, V, alpha, g, flavor)
            for x, k in elements:
                op = _Operator(x, k, ms)
                for n in pts:
                    assert op.at(n) == _part_symbol(x, k, n, ms), (V.name, flavor, k, n)
                hits += len(pts) - len(op.memo)
    assert hits > len(pts)


def test_an_operator_memo_lives_only_as_long_as_its_helper_call(monkeypatch):
    """The memo belongs to one helper call: a rule patched between two calls
    on the same ModuleSpec (and the same expression objects) is seen by the
    second call."""
    g = TwistCharacter(SPEC_III, 4, (3, 0, 0))
    ms = ModuleSpec(SPEC_III, natural(3), [Fraction(1, 2), 0, Fraction(1, 3)], g, "G_g")
    s, zero = (1, 0, 0), (0, 0, 0)
    c2 = c2_product_expr(ms, (1, 0, 0), (0, 1, 0))
    assert intertwiner_check(ms)["pass"] and expr_first_defect(c2, ms) is None
    lam = zero_mode_scalar(ms, s, zero)

    def doubled(ms, s, n, sig, g):
        return sig * 2 - g * ms.spec.sigma(n, s)

    monkeypatch.setattr(fmodule, "_inner_phase", doubled)
    assert not intertwiner_check(ms)["pass"]
    assert expr_first_defect(c2, ms) is not None
    assert zero_mode_scalar(ms, s, zero) != lam


def test_module_iii_evaluates_each_distinct_symbol_once(tmp_path, monkeypatch, capsys):
    """The module-iii benchmark config (natural G_g module over (iii), box 2,
    20 samples, seed 1, four suites) makes 1,090 _part_symbol evaluations:
    each expression read at several weight points is compiled once
    (expr_defects_at, expr_defects).  With the C_2 relation written as ad
    and torus factors instead of the second torus copy's one element each,
    it made 1,255; read on the degree box instead of the points that decide
    each identity, 1,262; compiled once per point, 1,942; and evaluated at
    every point, 9,625."""
    from qtorus import cli

    cfg = {
        "torus": {"d": 3, "N": 4, "A": [[0, 1, 2], [3, 0, 0], [2, 0, 0]]},
        "box": [2, 2, 2],
        "seed": 1,
        "samples": 20,
        "module": {
            "V": "natural",
            "alpha": ["1/2", 0, "1/3"],
            "twist": {"modulus": 4, "exponents": [3, 0, 0]},
            "flavor": "G_g",
        },
    }
    path = tmp_path / "module-iii.json"
    path.write_text(json.dumps(cfg))
    calls = []
    part_symbol = fmodule._part_symbol

    def counted(*args):
        calls.append(args)
        return part_symbol(*args)

    monkeypatch.setattr(fmodule, "_part_symbol", counted)
    suites = "module,section3,section4,irreducibility"
    assert cli.main(["verify", "--config", str(path), "--suite", suites]) == 0
    assert '"passed": 18' in capsys.readouterr().out
    assert len(calls) == 1090


def _oracle_matrix(x, n, k, ms, box):
    """The symbol's matrix read column by column off the oracle action."""
    target = tuple(a + b for a, b in zip(n, k))
    cols = [
        oracle_act(x, BoxVector.basis_vector(box, ms.V.dim, n, t), ms).get(target)
        for t in range(ms.V.dim)
    ]
    return [[col[i] for col in cols] for i in range(ms.V.dim)]


def _is_zero_matrix(M):
    return all(x.is_zero() for row in M for x in row)


@pytest.mark.parametrize(
    "spec,modulus,exps",
    [(SPEC_I, 2, (1, 0)), (SPEC_II, 3, (1, 2)), (SPEC_III, 4, (3, 0, 0))],
    ids=["i", "ii", "iii"],
)
def test_symbol_algebra_matches_the_dense_toolkit(spec, modulus, exps):
    """Scaled, added and composed symbols read out the matrices that
    mat_scale, mat_add and mat_mul give on symbol()'s dense matrices; a
    symbol with a Witt part W is never a scalar matrix, so symbol equality
    and zero tests agree with the dense ones, also where two symbols hold
    equal but distinct W.  Every module acts by the same elements, so
    natural and dual meet the same (k, u) and a W held by anything but V
    would show up against the oracle."""
    rng = sub_rng(20261018, f"symbol-algebra-{spec.d}-{spec.N}")
    d = spec.d
    box = (6,) * d
    alpha = [Fraction(1, 2)] + [0] * (d - 1)
    twist = TwistCharacter(spec, modulus, exps)
    modules = [
        natural(d),
        dual(d),
        sym_power(d, 2),
        trivial(d),
        parse_module(d, "twist:1/2:trivial"),
        direct_sum(natural(d), natural(d)),
    ]
    rad = spec.radical()
    elements = _random_homogeneous(rng, spec)
    for V in modules:
        dim = V.dim
        for flavor in FLAVORS:
            g = TwistCharacter.trivial(spec) if flavor == "F" else twist
            ms = ModuleSpec(spec, V, alpha, g, flavor)
            pairs = []
            for x, k in elements:
                for n in rng.sample(box_points(box, k), 2):
                    D = symbol(x, n, ms)
                    assert D == _oracle_matrix(x, n, k, ms, box), (V.name, flavor, n)
                    pairs.append((_part_symbol(x, k, n, ms), D))
            # weight operators are constant in n: equal symbols sharing one W
            for _ in range(3):
                coeffs = [rng.randint(-1, 1) for _ in rad.basis]
                r = tuple(sum(c * row[i] for c, row in zip(coeffs, rad.basis)) for i in range(d))
                u = [rng.randint(-2, 2) for _ in range(d - 1)] + [rng.randint(1, 2)]
                for n in rng.sample(box_points((3,) * d, r), 2):
                    S = _weight_symbol(weight_op_expr(ms, u, r), ms, n)
                    pairs.append((S, S.matrix(dim)))
            # a copy of W is equal but distinct: compared and added on the parts
            for S, D in pairs:
                if S.W is not None:
                    T = fmodule._Symbol(S.a, S.b, [list(row) for row in S.W])
                    assert S == T and (S + T).W is S.W and (S - T).is_zero(), (V.name, flavor)
                    assert (S + T).matrix(dim) == mat_add(D, D), (V.name, flavor)
            c = spec.root(rng.randrange(spec.N)) * Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            for i, (S, D) in enumerate(pairs):
                results = [(S.scale(c), mat_scale(D, c))]
                for S2, D2 in [pairs[i - 1], pairs[-1 - i], rng.choice(pairs)]:
                    assert (S == S2) == mat_eq(D, D2), (V.name, flavor)
                    results += [(S + S2, mat_add(D, D2)), (S * S2, mat_mul(D, D2))]
                results.append((S - S, mat_add(D, mat_scale(D, -1))))
                for R, want in [(S, D)] + results:
                    assert R.matrix(dim) == want, (V.name, flavor)
                    assert (R.W is None) == (matrix_as_scalar(want) is not None), (V.name, flavor)
                    assert R.is_zero() == _is_zero_matrix(want), (V.name, flavor)


def _edge_cases(spec, g, flavor):
    """(x, w, ms) cases that pin the truncated flag at the box edge: a Witt
    term with a zero image pushed out (flagged), lone inner terms pushed out,
    vanishing ones not flagged, and torus and inner terms of one degree that
    cancel outside the box (flagged)."""
    d = spec.d
    box = (2,) * d
    zero = (0,) * d
    far = tuple(3 * x for x in spec.radical().basis[0])
    e1 = tuple(1 if i == 0 else 0 for i in range(d))
    ms = ModuleSpec(spec, trivial(d), zero, g, flavor)
    yield op_witt(spec, e1, far), BoxVector.basis_vector(box, 1, zero, 0), ms
    ms = ModuleSpec(spec, natural(d), zero, g, flavor)
    edge = (2,) + (0,) * (d - 1)
    w = BoxVector.basis_vector(box, d, edge, 0)
    for s in box_points((1,) * d):
        if spec.in_radical(s):
            continue
        inner = op_inner(spec, s)
        yield inner, w, ms
        phase = symbol(inner, edge, ms)[0][0]
        if not phase.is_zero():
            torus = TorusElement.monomial(spec, s, -phase / spec.sigma(s, edge))
            yield inner + GElement.from_torus(torus), w, ms


@pytest.mark.parametrize(
    "spec,modulus,exps",
    [(SPEC_I, 2, (1, 0)), (SPEC_II, 3, (1, 2)), (SPEC_III, 4, (3, 0, 0))],
    ids=["i", "ii", "iii"],
)
def test_act_matches_the_oracle_on_random_box_vectors(spec, modulus, exps):
    """act, the sum over n of symbol(x_k, n) w(n), gives the oracle's vector,
    truncated flag included, on seeded sums of homogeneous elements and box
    vectors near the edge, on partial sums that cancel to zero, and on the
    edge cases of the truncated flag."""
    rng = sub_rng(20261018, f"act-oracle-{spec.d}-{spec.N}")
    d = spec.d
    box = (2,) * d
    twist = TwistCharacter(spec, modulus, exps)
    pts = box_points(box)
    seen = {"truncated": 0, "cancelled": 0}

    def coeff():
        return spec.root(rng.randrange(spec.N)) * rng.choice([1, -1, 2, Fraction(1, 2)])

    def check(x, w, ms):
        got, want = act(x, w, ms), oracle_act(x, w, ms)
        assert got.to_json() == want.to_json(), (ms.flavor, ms.V.name)
        seen["truncated"] += want.truncated
        return got

    for flavor in FLAVORS:
        g = TwistCharacter.trivial(spec) if flavor == "F" else twist
        for sel, alpha in (("natural", [Fraction(1, 2)] + [0] * (d - 1)), ("trivial", [0] * d)):
            ms = ModuleSpec(spec, parse_module(d, sel), alpha, g, flavor)
            dim = ms.V.dim
            pool = [x for x, _ in _random_homogeneous(rng, spec)]
            for _ in range(12):
                x = pool[0]
                for y in rng.sample(pool, rng.randint(1, 3)):
                    x = x + y
                w = BoxVector(box, dim)
                for n in rng.sample(pts, rng.randint(1, 4)):
                    w = w + BoxVector(box, dim, {n: [coeff() for _ in range(dim)]})
                check(x, w, ms)
            # two entries whose images meet at one point and cancel there
            m1, m2 = (1,) + (0,) * (d - 1), (0,) * (d - 1) + (1,)
            n1, n2 = (0,) * d, tuple(a - b for a, b in zip(m1, m2))
            x = op_torus(spec, m1) + op_torus(spec, m2)
            c2 = -spec.sigma(m1, n1) / spec.sigma(m2, n2)
            w = BoxVector(box, dim, {n1: [1] * dim, n2: [c2] * dim})
            got = check(x, w, ms)
            assert m1 not in got.entries and not got.is_zero()
            seen["cancelled"] += 1
        for x, w, ms in _edge_cases(spec, g, flavor):
            check(x, w, ms)
    assert seen["truncated"] > 10 and seen["cancelled"] == 6


def test_truncation_flag_and_drop():
    ms = plain_module(SPEC_I)
    w = BoxVector.basis_vector(BOX2, 2, (3, 0), 0)
    out = act(op_torus(SPEC_I, (1, 0)), w, ms)
    assert out.is_zero()
    assert out.truncated
    # the flag survives sums
    assert (out + BoxVector.basis_vector(BOX2, 2, (0, 0), 0)).truncated


def test_box_vector_algebra_and_json():
    w = BoxVector.basis_vector(BOX2, 2, (1, -2), 0).scale(Fraction(3, 2))
    w = w + BoxVector.basis_vector(BOX2, 2, (0, 0), 1).scale(SPEC_I.root(1))
    again = BoxVector.from_json(w.to_json())
    assert again == w
    assert (w - w).is_zero()
    # exact cancellation removes the stored point
    x = BoxVector.basis_vector(BOX2, 2, (1, 1), 0)
    y = BoxVector.basis_vector(BOX2, 2, (1, 1), 0).scale(-1)
    assert (x + y).support() == []


def test_twist_character_validation():
    # conductor 4 with exponent (1,0) sends the radical vector (2,0) to -1
    with pytest.raises(NotCharacter):
        TwistCharacter(SPEC_I, 4, (1, 0))
    # conductor 2 with exponent (1,0) sends the radical vector (3,0) to -1
    with pytest.raises(NotCharacter):
        TwistCharacter(SPEC_II, 2, (1, 0))
    # conductor 2 characters are always trivial on 2Z^2
    g = TwistCharacter(SPEC_I, 2, (1, 1))
    assert g.value((1, 0)) == CycNumber.rational(-1)
    assert g.value((1, 1)) == CycNumber.rational(1)
    assert g.inverse().value((1, 0)) == CycNumber.rational(-1)
    assert TwistCharacter.from_json(SPEC_I, g.to_json()).value((1, 1)) == g.value((1, 1))


@pytest.mark.parametrize(
    "make",
    [
        lambda: DiagonalCharacter(4, [1.5, 0]),
        lambda: DiagonalCharacter(2.5, [1]),
        lambda: DiagonalCharacter(4.0, [1, 0]),
        lambda: DiagonalCharacter(4, [Fraction(1), 0]),
        lambda: TwistCharacter(SPEC_I, 4, [2.9, 0.2]),
        lambda: TwistCharacter(SPEC_I, 2.0, [1, 1]),
    ],
    ids=["float-exponent", "float-modulus", "integral-float-modulus", "fraction-exponent",
         "twist-float-exponents", "twist-float-modulus"],
)
def test_a_character_takes_only_integer_data(make):
    """A modulus or an exponent that is not an int is refused, not truncated."""
    with pytest.raises(ConfigError):
        make()


def test_module_spec_validation():
    g = TwistCharacter(SPEC_I, 2, (1, 0))
    with pytest.raises(ConfigError):
        ModuleSpec(SPEC_I, natural(2), (0, 0), g, "F")
    with pytest.raises(ConfigError):
        ModuleSpec(SPEC_I, natural(3), (0, 0), TwistCharacter.trivial(SPEC_I), "F")
    with pytest.raises(ConfigError):
        ModuleSpec(SPEC_I, natural(2), (0,), TwistCharacter.trivial(SPEC_I), "F")
    with pytest.raises(ConfigError):
        ModuleSpec(SPEC_I, natural(2), (0, 0), TwistCharacter.trivial(SPEC_I), "H")


def test_weight_op_matrix_frozen_and_constant():
    # u=e_1, r=(0,2) on natural(2): sigma(-r,r)=1 and r u^T = 2 E_{10}
    ms = plain_module(SPEC_I)
    got = weight_op_matrix(ms, [1, 0], (0, 2), (0, 0))
    two = CycNumber.rational(2)
    zero = CycNumber.zero()
    assert got == [[zero, zero], [two, zero]]
    for n in ((1, 0), (0, 1), (-2, 1), (1, -3), (40, -7)):
        assert weight_op_matrix(ms, [1, 0], (0, 2), n) == got
    # r = 0 and u = 0 give the zero matrix
    assert weight_op_matrix(ms, [1, 0], (0, 0), (1, 1)) == [
        [zero, zero],
        [zero, zero],
    ]
    assert weight_op_matrix(ms, [0, 0], (0, 2), (0, 0)) == [
        [zero, zero],
        [zero, zero],
    ]


def test_weight_op_matrix_closed_form_sampled():
    rng = sub_rng(20260819, "tprime-closed-form")
    for spec in (SPEC_I, SPEC_II, SPEC_III):
        V = natural(spec.d)
        ms = plain_module(spec, V=V)
        rad = spec.radical()
        for _ in range(8):
            coeffs = [rng.randint(-1, 1) for _ in rad.basis]
            r = tuple(
                sum(c * row[i] for c, row in zip(coeffs, rad.basis))
                for i in range(spec.d)
            )
            u = [rng.randint(-2, 2) for _ in range(spec.d)]
            if all(x == 0 for x in u):
                u[0] = 1
            n = tuple(rng.randint(-1, 1) for _ in range(spec.d))
            got = weight_op_matrix(ms, u, r, n)
            scale = spec.sigma(tuple(-x for x in r), r)
            expect = V.matrix_of(
                [[scale * (u[j] * r[i]) for j in range(spec.d)] for i in range(spec.d)]
            )
            assert got == expect


def test_zero_mode_scalar_frozen_values():
    ms = plain_module(SPEC_I)
    # lambda(s, n) = sigma(-s,s)(1 - f(n,s)); s=(1,0), n=(0,1) gives 1-(-1)=2
    assert zero_mode_scalar(ms, (1, 0), (0, 1)) == CycNumber.rational(2)
    assert zero_mode_scalar(ms, (1, 0), (0, 0)).is_zero()
    # radical degree: the inner operator itself vanishes
    assert zero_mode_scalar(ms, (2, 0), (1, 1)).is_zero()
    # every weight space is read, however far out: f((3, 3), s) = -1 here
    assert zero_mode_scalar(ms, (1, 0), (3, 3)) == CycNumber.rational(2)
    assert zero_mode_scalar(ms, (1, 0), (-40, 41)) == CycNumber.rational(2)
    assert zero_mode_scalar(ms, (2, 0), (3, 3)).is_zero()


def _recursion_defects(ms, s, pts):
    """lambda(s,p) - f(p,s) lambda(s,0) - sigma(-s,s)(1 - f(p,s)) at each p."""
    spec = ms.spec
    lam0 = zero_mode_scalar(ms, s, (0, 0))
    base = spec.sigma(tuple(-x for x in s), s)
    out = []
    for p in pts:
        f = spec.comm_factor(p, s)
        out.append(zero_mode_scalar(ms, s, p) - f * lam0 - base * (1 - f))
    return out


def test_zero_mode_recursion_all_flavors():
    pts = [(1, 1), (0, 2), (-1, 1), (2, -2), (1, 0)]
    ms = plain_module(SPEC_I)
    assert all(x.is_zero() for x in _recursion_defects(ms, (1, 0), pts))
    g = TwistCharacter(SPEC_I, 2, (1, 0))
    msG = ModuleSpec(SPEC_I, natural(2), (0, 0), g, "G_g")
    assert all(x.is_zero() for x in _recursion_defects(msG, (1, 0), pts))
    assert all(x.is_zero() for x in _recursion_defects(msG, (1, 1), pts))
    # the F_g convention satisfies a different recursion: the shared one
    # must fail at a degree pair with f(r,s) != 1 and g(s) != -1... here it
    # reports a nonzero defect, documenting the convention split
    msFg = ModuleSpec(SPEC_I, natural(2), (0, 0), g, "F_g")
    assert not all(x.is_zero() for x in _recursion_defects(msFg, (1, 0), pts))


def test_lambda_g_relation_frozen():
    # G_g: lambda(s,0) = sigma(-s,s)(1 - g(s)); F_g flips the sign of the bracket
    g = TwistCharacter(SPEC_II, 3, (1, 2))
    msG = ModuleSpec(SPEC_II, natural(2), (0, 0), g, "G_g")
    msFg = ModuleSpec(SPEC_II, natural(2), (0, 0), g, "F_g")
    one = CycNumber.one()
    for s in ((1, 0), (0, 1), (1, 1), (2, 1)):
        srev = tuple(-x for x in s)
        base = SPEC_II.sigma(srev, s)
        lamG = zero_mode_scalar(msG, s, (0, 0))
        lamF = zero_mode_scalar(msFg, s, (0, 0))
        assert lamG == base * (one - g.value(s))
        assert lamF == base * (g.value(s) - one)


def test_extract_twist_round_trips():
    rng = sub_rng(20260819, "extract")
    ms = plain_module(SPEC_I)
    assert extract_twist(ms, rng).is_trivial
    for spec, modulus, exps in (
        (SPEC_I, 2, (1, 0)),
        (SPEC_I, 2, (1, 1)),
        (SPEC_II, 3, (1, 2)),
        (SPEC_II, 3, (2, 2)),
    ):
        g = TwistCharacter(spec, modulus, exps)
        for flavor in ("G_g", "F_g"):
            ms2 = ModuleSpec(spec, natural(spec.d), (0,) * spec.d, g, flavor)
            got = extract_twist(ms2, rng)
            assert got.modulus == modulus and got.exponents == exps


def test_extract_twist_reduces_conductor():
    # a character declared at conductor 6 whose values have order 3 comes back
    # at the primitive conductor
    g = TwistCharacter(SPEC_II, 6, (2, 4))
    ms = ModuleSpec(SPEC_II, natural(2), (0, 0), g, "G_g")
    got = extract_twist(ms, sub_rng(20260819, "extract-reduce"))
    assert got.modulus == 3 and got.exponents == (1, 2)


def test_intertwiner_check_seeded_characters():
    rng = sub_rng(20260819, "psi")
    cases = [
        (SPEC_I, 2, (1, 0)),
        (SPEC_I, 2, (0, 1)),
        (SPEC_I, 2, (1, 1)),
        (SPEC_II, 3, (1, 0)),
        (SPEC_II, 3, (2, 1)),
    ]
    for spec, modulus, exps in cases:
        g = TwistCharacter(spec, modulus, exps)
        ms = ModuleSpec(spec, natural(spec.d), (0, CycNumber.rational(1)), g, "G_g")
        report = intertwiner_check(ms, rng)
        assert report["pass"] and report["defect"] is None
    # trivial character: the map is the identity
    ms = ModuleSpec(SPEC_I, natural(2), (0, 0), TwistCharacter.trivial(SPEC_I), "G_g")
    assert intertwiner_check(ms, rng)["pass"]
    with pytest.raises(ConfigError):
        intertwiner_check(plain_module(SPEC_I), rng)


def test_intertwiner_check_reads_d_plus_one_points_per_generator(monkeypatch):
    # d=2, N=239: the seeded inner generators have two independent sigma
    # forms, so their sigma-cosets number 239**2; the comparison reads each
    # generator at 0, e_1, e_2 only, two symbols a point
    spec = TorusSpec.from_upper(2, 239, {(0, 1): 1})
    ms = ModuleSpec(spec, natural(2), (0, 0), TwistCharacter(spec, 239, (1, 0)), "G_g")
    calls = []
    part_symbol = fmodule._part_symbol

    def counted(*args):
        calls.append(args)
        return part_symbol(*args)

    monkeypatch.setattr(fmodule, "_part_symbol", counted)
    start = time.perf_counter()
    assert intertwiner_check(ms, sub_rng(20260819, "psi-239"))["pass"]
    assert time.perf_counter() - start < 2
    assert len(calls) <= 2 * 3 * (len(fmodule._generators(spec)) + 12)


def _zero_modes_commutator(ms, r, s):
    return expr_commutator(zero_mode_expr(ms, s), zero_mode_expr(ms, r))


def test_relation_checks_vanish_on_samples():
    rng = sub_rng(20260819, "relations")
    for spec in (SPEC_I, SPEC_II, SPEC_III):
        ms = plain_module(spec)
        row = suite_row(checks.module_suite, "ideal_relations", ms, 25)
        assert row["pass"] and row["defect"] == "0" and row["samples"] == 25
        row = suite_row(checks.section3_suite, "inner_quadratic_relation", ms, 64)
        assert row["pass"] and row["samples"] == 8
        d = spec.d
        for _ in range(8):
            r = tuple(rng.randint(-2, 2) for _ in range(d))
            s = tuple(rng.randint(-2, 2) for _ in range(d))
            for e in (_zero_modes_commutator(ms, r, s), c2_product_expr(ms, r, s)):
                assert expr_first_defect(e, ms, rng=rng, limit=5) is None


def test_relation_checks_vanish_for_twisted_flavor():
    rng = sub_rng(20260819, "relations-g")
    g = TwistCharacter(SPEC_II, 3, (1, 2))
    ms = ModuleSpec(SPEC_II, natural(2), (0, 0), g, "G_g")
    assert suite_row(checks.module_suite, "ideal_relations", ms, 20)["pass"]
    for _ in range(6):
        r = tuple(rng.randint(-2, 2) for _ in range(2))
        s = tuple(rng.randint(-2, 2) for _ in range(2))
        for e in (c2_product_expr(ms, r, s), _zero_modes_commutator(ms, r, s)):
            assert expr_first_defect(e, ms, rng=rng, limit=5) is None


def test_zero_mode_ideal_and_bracket_checks():
    for spec in (SPEC_I, SPEC_II, SPEC_III):
        ms = plain_module(spec)
        rows = {r["check"]: r for r in checks.section3_suite(ms, 20260819, 48)}
        for name in ("zero_mode_ideal", "weight_op_bracket"):
            assert rows[name]["pass"] and rows[name]["samples"] == 6, name
        # degenerate cases: weight operators of degree zero commute, and a
        # zero weight operator is the empty expression
        d = spec.d
        zero = (0,) * d
        t_u, t_v = weight_op_expr(ms, [1] * d, zero), weight_op_expr(ms, [2] * d, zero)
        assert expr_first_defect(expr_commutator(t_u, t_v), ms) is None
        t_0 = weight_op_expr(ms, [0] * d, tuple(spec.radical().basis[0]))
        assert t_0 == []
        e1 = (1,) + zero[1:]
        assert expr_first_defect(expr_commutator(t_0, zero_mode_expr(ms, e1)), ms) is None


def test_module_axiom_all_flavors():
    g2 = TwistCharacter(SPEC_I, 2, (1, 1))
    cases = [
        plain_module(SPEC_I),
        plain_module(SPEC_II, V=sym_power(2, 2)),
        plain_module(SPEC_III, V=ext_power(3, 2)),
        ModuleSpec(SPEC_I, natural(2), (0, 0), g2, "G_g"),
        ModuleSpec(SPEC_I, natural(2), (0, 0), g2, "F_g"),
    ]
    for ms in cases:
        row = suite_row(checks.module_suite, "module_axiom", ms, 30)
        assert row["pass"] and row["samples"] == 30


def test_weight_eigenvalue_check_runs():
    alpha = (CycNumber.rational(Fraction(2, 3)), CycNumber.rational(-1))
    ms = plain_module(SPEC_II, alpha=alpha)
    assert suite_row(checks.module_suite, "weight_eigenvalue", ms, 8)["pass"]


def test_weight_shift_bijection():
    ms_i = plain_module(SPEC_I)
    # the transport t^(r-s) from s = (0,1) to r = (1,0) scales by
    # sigma(r-s, s): exponent A[1][0] * (-1) * 0 = 0, so 1
    assert symbol(op_torus(SPEC_I, (1, -1)), (0, 1), ms_i) == [[1, 0], [0, 1]]
    for ms, r, s in (
        (ms_i, (1, 0), (0, 1)),
        (ms_i, (0, 0), (1, 1)),
        (plain_module(SPEC_III), (1, 0, 0), (0, 1, 1)),
    ):
        spec = ms.spec
        delta = tuple(a - b for a, b in zip(r, s))
        back = tuple(-x for x in delta)
        there = expr_of(op_torus(spec, delta))
        assert expr_defect_at(there, ms, s, spec.sigma(delta, s)) is None
        round_trip = expr_of(op_torus(spec, back), op_torus(spec, delta))
        assert expr_defect_at(round_trip, ms, s, spec.sigma(delta, back)) is None
        row = suite_row(checks.section3_suite, "weight_shift", ms, 80)
        assert row["pass"] and row["samples"] == 10


def test_irreducibility_evidence_positive_and_negative():
    for V in (natural(2), sym_power(2, 2), ext_power(2, 2), trivial(2)):
        ms = plain_module(SPEC_I, V=V)
        rep = irreducibility_evidence(ms)
        assert rep["pass"], V.name
        assert rep["weight_ops_closed_form"] and rep["transports_bijective"]
        assert rep["algebra_dim"] == rep["end_dim"] == V.dim**2
    red = plain_module(SPEC_I, V=direct_sum(natural(2), natural(2)))
    rep = irreducibility_evidence(red)
    assert not rep["pass"]
    assert rep["algebra_dim"] < rep["end_dim"]
    # the support checks themselves still hold for the reducible module
    assert rep["weight_ops_closed_form"] and rep["transports_bijective"]


@pytest.mark.parametrize("spec", [SPEC_I, SPEC_III], ids=["i", "iii"])
def test_a_sum_that_every_basis_vector_generates_fails_both_probes(spec):
    """natural + natural in a basis none of whose vectors lies in a proper
    submodule: closing start vectors would call it irreducible, the algebra
    closure does not."""
    d = spec.d
    ms = plain_module(spec, V=conjugated_sum(d))
    rep = irreducibility_evidence(ms)
    assert not rep["pass"]
    assert (rep["algebra_dim"], rep["end_dim"]) == (d * d, 4 * d * d)
    assert rep["weight_ops_closed_form"] and rep["transports_bijective"]
    row = suite_row(checks.module_suite, "gl_cyclicity_probe", ms, 4)
    assert not row["pass"] and row["samples"] == d * d
    assert row["note"] == f"algebra of dimension {d * d} of {4 * d * d}"


@pytest.mark.parametrize(
    "spec",
    [SPEC_I, SPEC_III, TorusSpec(3, 7, [[0, 1, 2], [6, 0, 0], [5, 0, 0]])],
    ids=["i", "iii", "d3-N7"],
)
def test_the_weight_operators_generate_the_algebra_of_v(spec):
    """Burnside reduction oracle.  The reference closure is the algebra that
    the weight-operator matrices T'(e_i, rr) at 0 generate, rr over the
    Hermite rows of the radical.  The rows span Q^d, so the rr e_i^T span
    gl_d, and each T'(e_i, rr) is sigma(-rr, rr) V(rr e_i^T): the reference
    equals the closure of V's E_ij images, which irreducibility_evidence
    reads, on reducible and irreducible V alike."""
    d, zero = spec.d, (0,) * spec.d
    g = TwistCharacter(spec, spec.N, [spec.A[r][0] for r in range(d)])
    Vs = [parse_module(d, s) for s in ("natural", "dual", "trivial", "sym:2", "ext:2")]
    Vs += [direct_sum(natural(d), natural(d)), conjugated_sum(d)]
    for V in Vs:
        want = image_algebra_dim(V)
        for flavor in FLAVORS:
            twist = TwistCharacter.trivial(spec) if flavor == "F" else g
            ms = ModuleSpec(spec, V, [Fraction(1, 2)] + [0] * (d - 1), twist, flavor)
            mats = [
                weight_op_matrix(ms, e, rr, zero)
                for rr in spec.radical().basis
                for e in units(d)
            ]
            assert algebra_dim(mats, V.dim) == want, (V.name, flavor)
            rep = irreducibility_evidence(ms)
            assert rep["weight_ops_closed_form"] and rep["algebra_dim"] == want


def _scan_spec(d, N, a01=1):
    """d = 2 with A01 = a01, or d = 3 with A01 = 1, A02 = 2 mod N, A12 = 0."""
    if d == 2:
        return TorusSpec.from_upper(2, N, {(0, 1): a01})
    return TorusSpec.from_upper(3, N, {(0, 1): 1, (0, 2): 2 % N, (1, 2): 0})


def test_irreducibility_evidence_decides_every_config_of_the_scan():
    """Every V here is irreducible, and the probe says so on every config:
    it reads each Hermite row of the radical however far out it lies, where
    an inner box of radius 2 inside a box of radius 2 or 3 could not reach
    half of them."""
    verdicts = []
    for d, Ns in ((2, (2, 3, 4, 5, 6, 7, 8, 12, 30)), (3, (2, 3, 4, 5, 7))):
        for N in Ns:
            spec = _scan_spec(d, N)
            for sel in ("natural", "sym:2", "dual" if d == 2 else "ext:2"):
                V = parse_module(d, sel)
                for alpha in ([Fraction(1, 2)] + [0] * (d - 1), [0] * d):
                    ms = ModuleSpec(spec, V, alpha, TwistCharacter.trivial(spec), "F")
                    rep = irreducibility_evidence(ms)
                    assert rep["pass"] and rep["algebra_dim"] == V.dim**2, (N, sel, rep)
                    verdicts.append(rep["pass"])
    assert len(verdicts) == 84 and all(verdicts)


def test_irreducibility_evidence_separates_reducible_from_irreducible():
    """The probe passes exactly when V is irreducible, over all three
    flavors and two weight shifts, and only natural + natural fails."""
    specs = [_scan_spec(2, N) for N in (2, 3, 4)] + [_scan_spec(2, 4, a01=2)]
    specs += [_scan_spec(3, 2), SPEC_III]
    count = 0
    for spec in specs:
        d = spec.d
        # g = f(e_0, .): trivial on the radical
        g = TwistCharacter(spec, spec.N, [spec.A[r][0] for r in range(d)])
        sels = ["natural", "dual", "trivial", "sym:2", "ext:2"] + (["ext:3"] if d == 3 else [])
        Vs = [(parse_module(d, s), True) for s in sels]
        Vs.append((direct_sum(natural(d), natural(d)), False))
        alphas = ([0] * d, [Fraction(1, 2)] + [0] * (d - 1))
        for (V, irreducible), alpha, flavor in itertools.product(Vs, alphas, FLAVORS):
            twist = TwistCharacter.trivial(spec) if flavor == "F" else g
            got = irreducibility_evidence(ModuleSpec(spec, V, alpha, twist, flavor))["pass"]
            assert got is irreducible, (spec.N, V.name, flavor, got)
            count += 1
    assert count == 228


def test_search_round_trip():
    # build F_g from a known plain module: g = f(., delta) with delta=(0,1)
    delta = (0, 1)
    g = TwistCharacter(SPEC_I, 2, (1, 0))
    beta = (CycNumber.rational(1), CycNumber.rational(Fraction(-1, 2)))
    alpha = tuple(b + x for b, x in zip(beta, delta))
    src = ModuleSpec(SPEC_I, natural(2), alpha, g, "F_g")
    res = search_twist_equivalence(src, [(0, 0), beta])
    assert res["found"]
    assert res["delta"] == [0, 1]
    assert all(x == y for x, y in zip(res["beta"], beta))
    # the located intertwiner scales by sigma(delta, n) = zeta_2^{n_1}
    c = res["c"]
    assert c.value((1, 0)) == CycNumber.rational(-1)
    assert c.value((0, 1)) == CycNumber.one()


def test_search_trivial_and_misses():
    alpha = (CycNumber.rational(2), CycNumber.rational(0))
    src = ModuleSpec(
        SPEC_I, natural(2), alpha, TwistCharacter.trivial(SPEC_I), "F_g"
    )
    res = search_twist_equivalence(src, [alpha])
    assert res["found"] and res["delta"] == [0, 0] and res["c"].is_trivial
    assert not search_twist_equivalence(src, [])["found"]
    # non-integral shifts are skipped
    shifted = (alpha[0] + Fraction(1, 2), alpha[1])
    assert not search_twist_equivalence(src, [shifted])["found"]
    with pytest.raises(ConfigError):
        search_twist_equivalence(plain_module(SPEC_I), [alpha])


def test_search_second_instance():
    # d=2, N=3: delta=(1,0) gives g with exponents A*delta = (0,2) mod 3
    delta = (1, 0)
    g = TwistCharacter(SPEC_II, 3, (0, 2))
    beta = (CycNumber.rational(0), CycNumber.rational(1))
    alpha = tuple(b + x for b, x in zip(beta, delta))
    src = ModuleSpec(SPEC_II, natural(2), alpha, g, "F_g")
    res = search_twist_equivalence(src, [beta])
    assert res["found"] and res["delta"] == [1, 0]


def test_search_solves_a_character_family_too_large_to_walk():
    # d=4, N=24: 24**4 = 331,776 characters, which the search solves for
    # (one rotation per generator and one Hermite form) instead of trying
    spec = TorusSpec.from_upper(4, 24, {(0, 1): 1, (2, 3): 1})
    delta = (0, 1, 0, 1)
    g = TwistCharacter(spec, 24, [sum(spec.A[r][c] * delta[c] for c in range(4)) for r in range(4)])
    src = ModuleSpec(spec, natural(4), delta, g, "F_g")
    start = time.perf_counter()
    res = search_twist_equivalence(src, [(0, 0, 0, 0)])
    assert time.perf_counter() - start < 2
    assert res["found"] and res["delta"] == list(delta)
    assert all(res["c"].value(e) == spec.sigma(delta, e) for e in units(4))


def test_defect_reporting_is_first_nonzero():
    # a deliberately wrong expression reports its first nonzero coefficient
    ms = plain_module(SPEC_I)
    e = expr_of(op_torus(SPEC_I, (0, 0))) + [
        (CycNumber.rational(-2), [op_torus(SPEC_I, (0, 0))])
    ]
    d = expr_first_defect(e, ms)
    assert d == CycNumber.rational(-1)
    # against c Id: t^0 is Id, so t^0 - 3 Id has defect -2; a transport is
    # compared along its degree, and two net degrees have no single c Id
    one = expr_of(op_torus(SPEC_I, (0, 0)))
    assert expr_defect_at(one, ms, (1, 2), 1) is None
    assert expr_defect_at(one, ms, (1, 2), 3) == CycNumber.rational(-2)
    assert expr_defect_at(expr_of(op_torus(SPEC_I, (1, 0))), ms, (0, 0), 1) is None
    with pytest.raises(SpecMismatch):
        expr_defect_at(one + expr_of(op_torus(SPEC_I, (1, 0))), ms, (0, 0), 1)
    # an expected matrix may hold plain integers: D(e_0, 0) is n_0 Id here
    d0 = expr_of(op_witt(SPEC_I, (1, 0), (0, 0)))
    assert expr_defect_at(d0, ms, (2, 0), [[2, 0], [0, 2]]) is None
    assert expr_defect_at(d0, ms, (2, 0), [[2, 1], [0, 2]]) == CycNumber.rational(-1)


def test_an_expression_read_at_several_points_is_compiled_once(monkeypatch):
    """expr_defects_at gives expr_defect_at at each (n, c), scalar or
    matrix, in order, from one compiled expression, and evaluates a point
    only when the caller asks for its defect."""
    g = TwistCharacter(SPEC_III, 4, (3, 0, 0))
    ms = ModuleSpec(SPEC_III, natural(3), [Fraction(1, 2), 0, Fraction(1, 3)], g, "G_g")
    e = expr_of(op_witt(SPEC_III, (1, 0, 0), (0, 0, 0)))  # D(e_0, 0): (alpha_0 + n_0) Id
    zero = CycNumber.zero()
    points = []
    for n in box_points((1, 1, 1)):
        c = ms.alpha[0] + n[0] + (1 if n == (0, 1, -1) else 0)  # one wrong expectation
        dense = [[c if i == j else zero for j in range(3)] for i in range(3)]
        points.append((n, dense if n[2] else c))
    want = [expr_defect_at(e, ms, n, c) for n, c in points]
    assert [d for d in want if d is not None] == [CycNumber.rational(-1)]
    compiled, evaluated = [], []
    compile_, defect_at = fmodule._compile, fmodule._defect_at
    monkeypatch.setattr(fmodule, "_compile", lambda *a: compiled.append(a) or compile_(*a))
    monkeypatch.setattr(fmodule, "_defect_at", lambda *a: evaluated.append(a) or defect_at(*a))
    defects = expr_defects_at(e, ms, points)
    assert [next(defects) for _ in range(3)] == want[:3] and len(evaluated) == 3
    assert list(defects) == want[3:]
    assert len(compiled) == 1 and len(evaluated) == len(points)


SPEC_D3_N7 = TorusSpec(3, 7, [[0, 1, 2], [6, 0, 0], [5, 0, 0]])


@pytest.mark.parametrize(
    "spec", [SPEC_I, SPEC_II, SPEC_III, SPEC_D3_N7], ids=["i", "ii", "iii", "d3-N7"]
)
def test_the_points_are_one_per_sigma_coset_each_read_at_its_grid(spec):
    """_points gives one representative per coset of the lattice on which
    every factor's sigma exponents vanish mod N, each read at the simplex
    grid c + N j, |j| <= T, T the most Witt factors in one term.  Checked
    against a walk of every residue mod N: the representatives have distinct
    signatures (the exponents sigma(k, n), and sigma(n, k) for an inner
    factor), they meet every signature, and their number is the index of
    the lattice, N**d over the residues of zero signature."""
    rng = sub_rng(20261021, f"points-{spec.d}-{spec.N}")
    d, N = spec.d, spec.N
    ms = ModuleSpec(spec, natural(d), [Fraction(1, 2)] + [0] * (d - 1),
                    TwistCharacter.trivial(spec), "F")
    residues = list(itertools.product(range(N), repeat=d))
    rows = spec.radical().basis
    cosets = set()
    for _ in range(4):
        n, m = (tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(2))
        u = [rng.randint(1, 2)] + [rng.randint(-2, 2) for _ in range(d - 1)]
        t_u = weight_op_expr(ms, u, rows[rng.randrange(len(rows))])
        t_v = weight_op_expr(ms, u[::-1], rows[rng.randrange(len(rows))])
        for e in (
            c2_product_expr(ms, n, m),
            t_u,
            expr_commutator(t_u, zero_mode_expr(ms, n)),
            expr_commutator(t_u, t_v),
        ):
            terms = fmodule._compile(e, ms)
            ops = [op for _, term in terms for op in term]

            def signature(p):
                return tuple(
                    (spec.sigma_exp(op.k, p), spec.sigma_exp(p, op.k) if op.inner else 0)
                    for op in ops
                )

            T = max(sum(bool(f.der.witt) for f in fs) for _, fs in e)
            grid = [j for j in itertools.product(range(T + 1), repeat=d) if sum(j) <= T]
            count, point = fmodule._points(terms, ms)
            assert count % len(grid) == 0
            reps = [point(i) for i in range(0, count, len(grid))]
            sigs = [signature(c) for c in reps]
            assert len(set(sigs)) == len(reps)
            assert set(sigs) == {signature(r) for r in residues}
            kernel = sum(1 for r in residues if signature(r) == signature((0,) * d))
            assert len(reps) == N**d // kernel
            for i in range(count):
                c, j = reps[i // len(grid)], grid[i % len(grid)]
                assert point(i) == tuple(a + N * b for a, b in zip(c, j))
            cosets.add(len(reps))
    assert max(cosets) > 1


@pytest.mark.parametrize("d", range(7))
def test_the_simplex_grid_is_the_filtered_cube_in_order(d):
    """_simplex lists the points j >= 0 with |j| <= T in the order of the
    filtered cube, so a sampled index reads the same point."""
    for T in range(4):
        cube = [j for j in itertools.product(range(T + 1), repeat=d) if sum(j) <= T]
        assert fmodule._simplex(d, T) == cube


def test_a_sampled_read_draws_its_points_by_index(monkeypatch):
    """With an rng and a limit, expr_defects reads limit points drawn by
    index from the point set, without listing it; the same seed reads the
    same points, and without a limit every point is read."""
    ms = plain_module(SPEC_D3_N7)
    e = c2_product_expr(ms, (1, 2, 0), (0, 1, 3))
    count, point = fmodule._points(fmodule._compile(e, ms), ms)
    assert count > 4
    read = []
    defect_at = fmodule._defect_at
    monkeypatch.setattr(fmodule, "_defect_at", lambda *a: read.append(a[2]) or defect_at(*a))
    assert list(fmodule.expr_defects(e, ms, rng=random.Random(5), limit=4)) == [None] * 4
    first, read[:] = list(read), []
    assert expr_first_defect(e, ms, rng=random.Random(5), limit=4) is None
    assert read == first and len(set(first)) == 4
    assert set(first) <= {point(i) for i in range(count)}
    read.clear()
    assert expr_first_defect(e, ms) is None and read == [point(i) for i in range(count)]
