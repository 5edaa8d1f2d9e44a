"""Tests for the finite-dimensional gl representations and matrix helpers."""

import hashlib
import random
import re
import time
from fractions import Fraction

import pytest

from _gl_oracle import conjugated_sum, first_failure
from qtorus.cyclotomic import CycNumber, root_of_unity
from qtorus.errors import BadPower, ConfigError, SpecMismatch
from qtorus.glmodules import (
    MAX_DIM,
    GlModule,
    Span,
    algebra_dim,
    direct_sum,
    dual,
    ext_power,
    identity_matrix,
    mat_eq,
    mat_mul,
    mat_vec,
    natural,
    parse_module,
    sym_power,
    trace_twist,
    trivial,
    zero_matrix,
)


def sub_rng(seed, label):
    h = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(h[:8], "big"))


def as_int_matrix(M):
    out = []
    for row in M:
        r = []
        for x in row:
            assert x.is_rational()
            q = x.as_rational()
            assert q.denominator == 1
            r.append(int(q))
        out.append(r)
    return out


def test_natural_matrices_are_matrix_units():
    m = natural(2)
    assert as_int_matrix(m.E[0][0]) == [[1, 0], [0, 0]]
    assert as_int_matrix(m.E[0][1]) == [[0, 1], [0, 0]]
    assert as_int_matrix(m.E[1][0]) == [[0, 0], [1, 0]]
    assert as_int_matrix(m.E[1][1]) == [[0, 0], [0, 1]]


def test_dual_is_minus_transpose():
    m = dual(3)
    assert as_int_matrix(m.E[0][2]) == [
        [0, 0, 0],
        [0, 0, 0],
        [-1, 0, 0],
    ]


def test_sym_square_rank_two_frozen_matrices():
    m = sym_power(2, 2)
    assert m.dim == 3
    assert m.basis_labels == [(0, 0), (0, 1), (1, 1)]
    assert as_int_matrix(m.E[0][0]) == [[2, 0, 0], [0, 1, 0], [0, 0, 0]]
    assert as_int_matrix(m.E[0][1]) == [[0, 1, 0], [0, 0, 2], [0, 0, 0]]
    assert as_int_matrix(m.E[1][0]) == [[0, 0, 0], [2, 0, 0], [0, 1, 0]]
    assert as_int_matrix(m.E[1][1]) == [[0, 0, 0], [0, 1, 0], [0, 0, 2]]


def test_sym_power_matches_polynomial_derivation_oracle():
    # independent route: monomials as exponent vectors, x_i d/dx_j action
    rng = sub_rng(20260819, "sym-oracle")
    for d, k in ((2, 2), (2, 3), (3, 2)):
        m = sym_power(d, k)

        def exps(label):
            e = [0] * d
            for v in label:
                e[v] += 1
            return tuple(e)

        index = {exps(lbl): t for t, lbl in enumerate(m.basis_labels)}
        for _ in range(10):
            i, j = rng.randrange(d), rng.randrange(d)
            col = rng.randrange(m.dim)
            e = list(exps(m.basis_labels[col]))
            expected = [0] * m.dim
            if e[j]:
                coeff = e[j]
                e2 = list(e)
                e2[j] -= 1
                e2[i] += 1
                expected[index[tuple(e2)]] = coeff
            got = [x.as_rational() for x in mat_vec(m.E[i][j], unit_vec(m.dim, col))]
            assert got == expected


def unit_vec(n, t):
    v = [CycNumber.zero()] * n
    v[t] = CycNumber.one()
    return v


def test_ext_square_signs_and_diagonal():
    m = ext_power(3, 2)
    assert m.basis_labels == [(0, 1), (0, 2), (1, 2)]
    # diagonal: counts occurrences
    assert as_int_matrix(m.E[0][0]) == [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    # replacing 0 by 2 inside (0,1) lands on (1,2) after one transposition
    col = m.basis_labels.index((0, 1))
    v = [x.as_rational() for x in mat_vec(m.E[2][0], unit_vec(3, col))]
    assert v == [0, 0, -1]
    # replacing 1 by 0 inside (1,2) lands on (0,2) with no swap
    col = m.basis_labels.index((1, 2))
    v = [x.as_rational() for x in mat_vec(m.E[0][1], unit_vec(3, col))]
    assert v == [0, 1, 0]
    # collision with an existing index kills the wedge
    col = m.basis_labels.index((0, 1))
    v = [x.as_rational() for x in mat_vec(m.E[1][0], unit_vec(3, col))]
    assert v == [0, 0, 0]


def test_ext_power_matches_wedge_oracle():
    # independent route: expand (A v_a) ^ v_b + v_a ^ (A v_b) by antisymmetry
    rng = sub_rng(20260819, "ext-oracle")
    d, k = 3, 2
    m = ext_power(d, k)
    index = {lbl: t for t, lbl in enumerate(m.basis_labels)}
    for _ in range(20):
        i, j = rng.randrange(d), rng.randrange(d)
        a, b = m.basis_labels[rng.randrange(m.dim)]
        acc = {}

        def add_wedge(x, y, c):
            if x == y:
                return
            if x > y:
                x, y, c = y, x, -c
            acc[(x, y)] = acc.get((x, y), 0) + c

        # E_ij v_t = delta_tj v_i
        if a == j:
            add_wedge(i, b, 1)
        if b == j:
            add_wedge(a, i, 1)
        got = mat_vec(m.E[i][j], unit_vec(m.dim, index[(a, b)]))
        expected = [acc.get(lbl, 0) for lbl in m.basis_labels]
        assert [x.as_rational() for x in got] == expected


def test_bracket_law_verified_on_all_constructions():
    # construction itself raises on a violation; a broken rep must be rejected
    for mod in (natural(3), dual(2), sym_power(2, 2), ext_power(3, 2), trivial(2)):
        assert isinstance(mod, GlModule)
    bad = [[identity_matrix(2) for _ in range(2)] for _ in range(2)]
    with pytest.raises(SpecMismatch):
        GlModule(2, 2, bad, "broken")


def test_trace_twist_preserves_law_and_shifts_diagonal():
    base = sym_power(2, 2)
    tw = trace_twist(base, Fraction(1, 2))
    assert mat_eq(tw.E[0][1], base.E[0][1])
    diff = [
        [x - y for x, y in zip(r1, r2)]
        for r1, r2 in zip(tw.E[0][0], base.E[0][0])
    ]
    half = CycNumber.rational(Fraction(1, 2))
    for r in range(3):
        for c in range(3):
            assert diff[r][c] == (half if r == c else CycNumber.zero())


def test_matrix_of_assembles_coefficients():
    m = natural(2)
    C = [[3, 4], [6, 8]]  # outer product of (1,2) with (3,4)
    assert as_int_matrix(m.matrix_of(C)) == C
    z = m.matrix_of([[0, 0], [0, 0]])
    assert as_int_matrix(z) == [[0, 0], [0, 0]]


def _algebra_dim(V):
    return algebra_dim([M for row in V.E for M in row], V.dim)


def test_algebra_closure_separates_reducible():
    for V in (natural(2), dual(3), sym_power(2, 2), ext_power(3, 2), trivial(3)):
        assert _algebra_dim(V) == V.dim**2, V.name
    # block-diagonal copies of gl_2's image, and that plus the trivial block
    assert _algebra_dim(direct_sum(natural(2), natural(2))) == 4
    assert _algebra_dim(direct_sum(natural(2), trivial(2))) == 5


def test_algebra_closure_sees_a_sum_that_every_basis_vector_generates():
    """natural + natural in a basis none of whose vectors lies in a proper
    submodule: each basis vector generates the whole space, yet the images
    generate only a copy of the d**2-dimensional algebra of gl_d's image."""
    assert [(_algebra_dim(conjugated_sum(d)), 4 * d * d) for d in (2, 3)] == [(4, 16), (9, 36)]


def test_algebra_closure_of_no_matrices_is_the_scalars():
    assert algebra_dim([], 3) == 1
    assert algebra_dim([], 1) == 1


def test_parse_module_selectors():
    assert parse_module(2, "natural").name == "natural"
    assert parse_module(2, "trivial").dim == 1
    assert parse_module(3, "dual").dim == 3
    assert parse_module(2, "sym:2").dim == 3
    assert parse_module(3, "ext:2").dim == 3
    tw = parse_module(2, "twist:1/2:sym:2")
    assert tw.dim == 3 and tw.name == "twist[sym:2]"
    for bad in ("ext:5", "sym:0", "sym:x", "twist:zeta:natural", "twist:2", "spin"):
        with pytest.raises(BadPower):
            parse_module(2, bad)


def _vec(*entries):
    """A dense vector as the coordinate dict that Span reads."""
    return dict(enumerate(entries))


def test_span_rref_basics():
    s = Span()
    assert s.insert(_vec(1, 2, 3))
    assert not s.insert(_vec(2, 4, 6))
    assert s.insert(_vec(0, 1, 1))
    assert s.dim == 2
    assert not s.insert(_vec(1, 3, 4))
    assert s.insert(_vec(5, 5, 7))
    assert s.dim == 3
    assert not s.insert(_vec(0, 0, 1))
    # reduced echelon rows, held without their zero entries
    assert {p: {j: str(x) for j, x in row.items()} for p, row in s.rows.items()} == {
        0: {0: "1"}, 1: {1: "1"}, 2: {2: "1"}
    }


def test_span_over_cyclotomic_entries():
    z4 = CycNumber.rational(0) + CycNumber.from_json({"zeta": [4, 1]})
    s = Span()
    assert s.insert(_vec(z4, CycNumber.one()))
    # the same line scaled by a root of unity adds nothing
    assert not s.insert(_vec(z4 * z4, z4))
    assert s.insert(_vec(CycNumber.one(), CycNumber.one()))
    assert s.dim == 2


def test_span_reads_sparse_vectors_at_matrix_coordinates():
    s = Span()
    assert s.insert({(0, 1): 2, (1, 0): 0})
    assert s.rows == {(0, 1): {(0, 1): CycNumber.one()}}
    assert not s.insert({(0, 1): -1})
    assert s.insert({(0, 1): 1, (1, 1): 1}) and s.dim == 2
    assert not s.insert({(1, 1): 3}) and s.dim == 2
    assert s.insert({(1, 0): 1}) and s.dim == 3


def test_matrix_product_associativity_seeded():
    rng = sub_rng(20260819, "matmul")
    for _ in range(10):
        A = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        B = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        C = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        toc = lambda M: [[CycNumber.rational(x) for x in row] for row in M]
        assert mat_eq(
            mat_mul(mat_mul(toc(A), toc(B)), toc(C)),
            mat_mul(toc(A), mat_mul(toc(B), toc(C))),
        )


def _copy_images(module):
    return [[[list(row) for row in M] for M in Ei] for Ei in module.E]


def _sparse_verdict(d, dim, E):
    """The quadruple at which construction refuses E, or None if it builds."""
    try:
        GlModule(d, dim, E, "probe")
    except SpecMismatch as exc:
        return tuple(int(x) for x in re.search(r"\((\d+),(\d+),(\d+),(\d+)\)", str(exc)).groups())
    return None


@pytest.mark.parametrize(
    "module, image, entry, quadruple",
    [
        # at (0,0,1,0) the right-hand side is -E_00 from the delta_li term alone
        (natural(3), (0, 0), (0, 1), (0, 0, 1, 0)),
        (sym_power(2, 2), (0, 1), (2, 1), (0, 0, 0, 1)),
        (ext_power(3, 2), (1, 2), (0, 0), (0, 2, 1, 0)),
        # E_00 becomes [[1/2, 1], [0, -1/2]], whose square has the entry
        # 1/2 * 1 + 1 * (-1/2) = 0 at (0, 1): a product entry that cancels
        (trace_twist(natural(2), Fraction(-1, 2)), (0, 0), (0, 1), (0, 0, 1, 0)),
        # a corrupted entry in the trivial block of natural + trivial
        (direct_sum(natural(2), trivial(2)), (0, 1), (2, 2), (0, 0, 0, 1)),
    ],
    ids=["natural", "sym2", "ext2", "twist-cancelling", "direct-sum"],
)
def test_one_corrupted_entry_breaks_the_bracket_law_where_the_dense_sweep_says(
    module, image, entry, quadruple
):
    E = _copy_images(module)
    (i, j), (r, c) = image, entry
    E[i][j][r][c] = E[i][j][r][c] + 1
    assert first_failure(module.d, module.dim, E) == quadruple
    with pytest.raises(SpecMismatch) as exc:
        GlModule(module.d, module.dim, E, "corrupt")
    assert str(exc.value) == "matrix-unit bracket law fails at ({},{},{},{})".format(*quadruple)


def test_the_twist_control_holds_a_product_entry_that_cancels():
    E00 = _copy_images(trace_twist(natural(2), Fraction(-1, 2)))[0][0]
    E00[0][1] = E00[0][1] + 1
    terms = [E00[0][t] * E00[t][1] for t in range(2)]
    assert all(not x.is_zero() for x in terms)
    assert (terms[0] + terms[1]).is_zero()


def _conjugated(module, rng):
    """module in the basis changed by I + e E_rc (r != c): still a
    representation, with denser images whose products can cancel."""
    n = module.dim
    r, c = rng.sample(range(n), 2)
    e = CycNumber.rational(rng.choice((1, -1, 2)))
    P = identity_matrix(n)
    Q = identity_matrix(n)
    P[r][c], Q[r][c] = e, -e
    return [[mat_mul(mat_mul(P, M), Q) for M in Ei] for Ei in module.E]


def test_the_sparse_law_agrees_with_the_dense_sweep_on_seeded_perturbations():
    rng = sub_rng(20261020, "sparse-law")
    modules = [
        natural(2),
        natural(3),
        dual(2),
        sym_power(2, 2),
        ext_power(3, 2),
        trace_twist(sym_power(2, 2), Fraction(1, 3)),
        direct_sum(natural(2), trivial(2)),
    ]
    values = [CycNumber.rational(1), CycNumber.rational(-1), CycNumber.rational(Fraction(1, 2)),
              root_of_unity(4, 1), root_of_unity(3, 2)]
    refused = built = 0
    for module in modules:
        d, dim = module.d, module.dim
        for trial in range(12):
            E = _conjugated(module, rng) if dim > 1 and trial % 2 else _copy_images(module)
            # trial 0 is the module itself; the others change one or two entries
            for _ in range(0 if trial == 0 else rng.randint(1, 2)):
                i, j = rng.randrange(d), rng.randrange(d)
                r, c = rng.randrange(dim), rng.randrange(dim)
                E[i][j][r][c] = E[i][j][r][c] + rng.choice(values)
            want = first_failure(d, dim, E)
            assert _sparse_verdict(d, dim, E) == want
            refused += want is not None
            built += want is None
    assert refused >= 60 and built >= len(modules)


@pytest.mark.parametrize("selector", ["sym:99", "natural", "dual", "ext:16"])
def test_a_module_above_the_dimension_ceiling_is_refused_before_it_is_built(selector):
    d = 3 if selector == "sym:99" else 33
    start = time.perf_counter()
    with pytest.raises(ConfigError, match=f"above the ceiling of {MAX_DIM}"):
        parse_module(d, selector)
    assert time.perf_counter() - start < 1.0

