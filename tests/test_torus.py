import ast
import pathlib
import random
from itertools import product

import pytest

import qtorus
from qtorus.errors import ConfigError
from qtorus.cyclotomic import root_of_unity
from qtorus.lattice import hnf_contains, hnf_rows, kernel_mod, rand_below
from qtorus.torus import MAX_RANK, TorusSpec


SPEC_I = TorusSpec.from_upper(2, 2, {(0, 1): 1})
SPEC_II = TorusSpec.from_upper(2, 3, {(0, 1): 1})
SPEC_III = TorusSpec.from_upper(3, 4, {(0, 1): 1, (0, 2): 2, (1, 2): 0})


def brute_residues(a_rows, modulus):
    # independent oracle: direct congruence check of A n == 0 over (Z/modulus)^d
    return [
        n
        for n in product(range(modulus), repeat=len(a_rows))
        if all(sum(a * x for a, x in zip(row, n)) % modulus == 0 for row in a_rows)
    ]


def sigma_oracle(spec, n, m):
    # multiply the individual root-of-unity factors one by one
    out = root_of_unity(1, 0)
    for j in range(spec.d):
        for i in range(j):
            out = out * root_of_unity(spec.N, spec.A[j][i] * n[j] * m[i])
    return out


def test_validation_rejects_bad_matrices():
    with pytest.raises(ConfigError):
        TorusSpec(2, 2, [[1, 1], [1, 0]])  # nonzero diagonal
    with pytest.raises(ConfigError):
        TorusSpec(2, 4, [[0, 1], [1, 0]])  # 1 + 1 != 0 mod 4
    with pytest.raises(ConfigError):
        TorusSpec(2, 2, [[0, 1]])  # wrong shape
    TorusSpec(2, 4, [[0, 1], [3, 0]])  # fine


def test_sigma_reference_values():
    e1, e2 = (1, 0), (0, 1)
    assert SPEC_I.sigma(e2, e1) == -1
    assert SPEC_I.sigma(e1, e2) == 1
    assert SPEC_I.comm_factor(e1, e2) == -1
    assert SPEC_II.comm_factor(e1, e2) == root_of_unity(3, 1)
    assert SPEC_II.comm_factor(e2, e1) == root_of_unity(3, 2)


@pytest.mark.parametrize("spec", [SPEC_I, SPEC_II, SPEC_III])
def test_sigma_matches_factor_product_oracle(spec):
    rng = random.Random(99)
    for _ in range(60):
        n = tuple(rng.randint(-4, 4) for _ in range(spec.d))
        m = tuple(rng.randint(-4, 4) for _ in range(spec.d))
        assert spec.sigma(n, m) == sigma_oracle(spec, n, m)
        assert spec.comm_factor(n, m) == spec.sigma(n, m) / spec.sigma(m, n)


@pytest.mark.parametrize(
    "spec",
    [SPEC_I, SPEC_II, SPEC_III, TorusSpec.from_upper(3, 7, {(0, 1): 1, (0, 2): 2, (1, 2): 3})],
    ids=["i", "ii", "iii", "d3-N7"],
)
def test_sigma_forms_are_the_cocycle_exponents_in_each_argument(spec):
    """sigma(k, .) and sigma(., k) are zeta_N to linear forms in the other
    argument: dotted with n, _sigma_forms(k) gives sigma_exp(k, n) and
    sigma_exp(n, k) mod N."""
    rng = random.Random(20261021)
    for _ in range(60):
        k = tuple(rng.randint(-9, 9) for _ in range(spec.d))
        n = tuple(rng.randint(-9, 9) for _ in range(spec.d))
        left, right = spec._sigma_forms(k)
        assert all(0 <= x < spec.N for x in left + right)
        assert sum(a * x for a, x in zip(left, n)) % spec.N == spec.sigma_exp(k, n)
        assert sum(a * x for a, x in zip(right, n)) % spec.N == spec.sigma_exp(n, k)


@pytest.mark.parametrize("spec", [SPEC_I, SPEC_II, SPEC_III])
def test_bicharacter_laws(spec):
    rng = random.Random(7)
    for _ in range(50):
        n, m, s, r = (
            tuple(rng.randint(-3, 3) for _ in range(spec.d)) for _ in range(4)
        )
        lhs = spec.sigma(tuple(a + b for a, b in zip(n, m)), tuple(a + b for a, b in zip(s, r)))
        rhs = spec.sigma(n, s) * spec.sigma(n, r) * spec.sigma(m, s) * spec.sigma(m, r)
        assert lhs == rhs
        assert spec.comm_factor(n, m) == spec.comm_factor(m, n).inverse()
        assert spec.comm_factor(n, n) == 1
        assert spec.comm_factor(n, tuple(-a for a in n)) == 1


@pytest.mark.parametrize(
    "spec,orders,index",
    [(SPEC_I, (2, 2), 4), (SPEC_II, (3, 3), 9), (SPEC_III, (4, 4, 2), 16)],
)
def test_radical_against_enumeration(spec, orders, index):
    rad = spec.radical()
    residues = brute_residues(spec.A, spec.N)
    assert rad.index == spec.N**spec.d // len(residues)
    assert rad.index == index
    assert rad.axis_orders == orders
    # membership agrees with the congruence oracle on a whole window
    for n in product(range(-spec.N, spec.N + 1), repeat=spec.d):
        expected = tuple(x % spec.N for x in n) in set(residues)
        assert rad.contains(n) == expected
        assert spec.in_radical(n) == expected
    # basis rows really are radical points
    for row in rad.basis:
        assert spec.in_radical(row)


def test_diagonal_reporting():
    assert SPEC_I.radical().diagonal and SPEC_I.radical().diagonal_orders == (2, 2)
    assert SPEC_II.radical().diagonal_orders == (3, 3)
    rad3 = SPEC_III.radical()
    # the axis orders multiply to 32 but the lattice has index 16: not diagonal
    assert not rad3.diagonal
    assert rad3.diagonal_orders is None
    assert rad3.contains((0, 2, 1))


def hnf_of_residue_generators(a_rows, modulus):
    # second oracle: HNF of the residue representatives plus modulus*Z^d
    d = len(a_rows)
    gens = [list(n) for n in brute_residues(a_rows, modulus)]
    gens += [[modulus if j == i else 0 for j in range(d)] for i in range(d)]
    return hnf_rows(gens)


def _seeded_specs():
    rng = random.Random(20261019)
    grid = [(d, n) for d in (1, 2, 3) for n in range(1, 13)] + [(2, 30)]
    for d, n in grid:
        for _ in range(3):
            upper = {(i, j): rng.randrange(n) for i in range(d) for j in range(i + 1, d)}
            yield TorusSpec.from_upper(d, n, upper)
    yield TorusSpec(3, 7, [[0, 1, 2], [6, 0, 0], [5, 0, 0]])


def test_radical_matches_hnf_of_residue_generators():
    for spec in (SPEC_I, SPEC_II, SPEC_III, *_seeded_specs()):
        expected = hnf_of_residue_generators([list(r) for r in spec.A], spec.N)
        assert list(spec.radical().basis) == expected, spec
    # kernel_mod on its own: non-skew matrices with negative entries, and modulus 1
    rng = random.Random(20261020)
    for _ in range(60):
        d, modulus = rng.randint(1, 3), rng.choice((1, 2, 5, 6, 9, 12))
        a_rows = [[rng.randint(-2 * modulus, 2 * modulus) for _ in range(d)] for _ in range(d)]
        assert kernel_mod(a_rows, modulus) == hnf_of_residue_generators(a_rows, modulus)
    assert kernel_mod([[3, -5], [-7, 2]], 1) == [(1, 0), (0, 1)]


def test_corrupted_sigma_breaks_cocycle_law():
    spec = TorusSpec(2, 2, [[0, 1], [1, 0]], corrupt_sigma=True)
    n, m, s, r = (1, 0), (0, 1), (1, 1), (1, 0)
    lhs = spec.sigma((n[0] + m[0], n[1] + m[1]), (s[0] + r[0], s[1] + r[1]))
    rhs = spec.sigma(n, s) * spec.sigma(n, r) * spec.sigma(m, s) * spec.sigma(m, r)
    assert lhs != rhs


def test_json_round_trip():
    blob = SPEC_III.to_json()
    again = TorusSpec.from_json(blob)
    assert again == SPEC_III
    assert blob == {"d": 3, "N": 4, "A": [[0, 1, 2], [3, 0, 0], [2, 0, 0]]}


def test_the_rank_is_capped_at_max_rank():
    assert TorusSpec(MAX_RANK, 2, [[0] * MAX_RANK for _ in range(MAX_RANK)]).d == 32
    with pytest.raises(ConfigError, match="rank d = 33 is above the ceiling of 32"):
        TorusSpec(33, 2, [[0] * 33 for _ in range(33)])
    # refused before the matrix is looked at
    with pytest.raises(ConfigError, match="above the ceiling"):
        TorusSpec(10**6, 2, [])


# n in 1..70, 2^k - 1 and 2^k + 1 (the widths where the redraw is least and
# most likely), and one n above 2^40
DRAW_BOUNDS = sorted(set(range(1, 71)) | {2**k + e for k in range(2, 64) for e in (-1, 1)}) + [
    3 * 2**41 + 7
]


def test_rand_below_draws_what_randrange_and_randint_draw():
    """rand_below(rng, n) gives stdlib's rng.randrange(n), and
    rand_below(rng, 2r + 1) - r its rng.randint(-r, r), value for value over
    500 draws, and leaves the generator in the same state."""
    for n in DRAW_BOUNDS:
        ours, ref = random.Random(f"draw:{n}"), random.Random(f"draw:{n}")
        assert [rand_below(ours, n) for _ in range(500)] == [ref.randrange(n) for _ in range(500)]
        assert ours.getstate() == ref.getstate(), n
        if n % 2:
            r = n // 2
            got = [rand_below(ours, n) - r for _ in range(500)]
            assert got == [ref.randint(-r, r) for _ in range(500)]
            assert ours.getstate() == ref.getstate(), n


def test_every_seeded_integer_draw_goes_through_rand_below():
    """No module of the package calls randint or randrange itself."""
    for path in sorted(pathlib.Path(qtorus.__file__).parent.glob("*.py")):
        calls = [
            node.func.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        ]
        assert not {"randint", "randrange"} & set(calls), path.name
