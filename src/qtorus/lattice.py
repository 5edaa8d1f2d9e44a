"""Small exact integer-lattice helpers: Hermite forms, membership, kernels,
point sums, negation and box membership, and the unit vectors and seeded
random points every layer above draws from.  Every seeded integer draw of
the package is rand_below, which reads the generator through getrandbits,
but the index samples of fmodule.expr_defects, taken with rng.sample.

Everything runs on plain Python ints (arbitrary precision), with no
rational arithmetic: a kernel is read off a Hermite form that carries its
unimodular part, so hnf_rows is the one reduction.  The matrices involved
are tiny (rank <= the torus rank d), so clarity beats asymptotics.
"""

from __future__ import annotations


def hnf_rows(rows) -> list[tuple[int, ...]]:
    """Row-style Hermite normal form of the lattice spanned by `rows`.

    Returns echelon rows with positive pivots, zeros below each pivot and
    entries above a pivot reduced into [0, pivot).  Zero rows are dropped,
    so the result is a canonical basis of the row span.
    """
    m = [list(r) for r in rows if any(r)]
    if not m:
        return []
    ncols = len(m[0])
    top = 0
    for col in range(ncols):
        if top == len(m):
            break
        while True:
            nz = [i for i in range(top, len(m)) if m[i][col]]
            if not nz:
                break
            i_min = min(nz, key=lambda i: abs(m[i][col]))
            m[top], m[i_min] = m[i_min], m[top]
            p = m[top][col]
            again = False
            for i in range(top + 1, len(m)):
                if m[i][col]:
                    q = m[i][col] // p
                    m[i] = [a - q * b for a, b in zip(m[i], m[top])]
                    if m[i][col]:
                        again = True
            if not again:
                break
        if m[top][col]:
            if m[top][col] < 0:
                m[top] = [-a for a in m[top]]
            p = m[top][col]
            for i in range(top):
                q = m[i][col] // p
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[top])]
            top += 1
    return [tuple(r) for r in m[:top]]


def hnf_contains(basis, v) -> bool:
    """Membership test for a vector against an hnf_rows basis."""
    v = list(v)
    for row in basis:
        p = next(i for i, a in enumerate(row) if a)
        if v[p]:
            if v[p] % row[p]:
                return False
            q = v[p] // row[p]
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def kernel_mod(a_rows, modulus: int) -> list[tuple[int, ...]]:
    """Canonical basis of the lattice {n in Z^d : A n == 0 (mod modulus)}.

    The pairs (n, k) with A n - modulus k = 0 are the integer kernel of
    B = [A | -modulus I].  The rows (column j of B, e_j), j < 2d, span a
    lattice whose vectors are (B x, x) for x in Z^2d, and its Hermite form
    carries the unimodular part in the last 2d columns: the rows whose first
    d entries vanish are a basis of the kernel of B (Cohen, GTM 138, section 2.4).
    Their n-parts span the congruence lattice.
    """
    d = len(a_rows)
    cols = [[r[j] for r in a_rows] for j in range(d)]
    cols += [[-modulus if i == j else 0 for i in range(d)] for j in range(d)]
    rows = [col + [int(i == j) for i in range(2 * d)] for j, col in enumerate(cols)]
    return hnf_rows([r[d : 2 * d] for r in hnf_rows(rows) if not any(r[:d])])


def det_of_hnf(basis) -> int:
    """Determinant (lattice index in Z^d) of a full-rank hnf_rows basis."""
    det = 1
    for row in basis:
        det *= next(a for a in row if a)
    return det


# -- lattice points --------------------------------------------------------


def shift(n, k) -> tuple[int, ...]:
    """The point n + k."""
    return tuple(a + b for a, b in zip(n, k))


def neg(n) -> tuple[int, ...]:
    """The point -n."""
    return tuple(-a for a in n)


def in_box(box, n) -> bool:
    """Whether n lies in the symmetric box with per-axis radii `box`."""
    return all(-r <= x <= r for r, x in zip(box, n))


# -- lattice samplers ------------------------------------------------------


def units(d: int) -> list[tuple[int, ...]]:
    """The unit vectors e_0, ..., e_(d-1) of Z^d."""
    return [tuple(int(j == i) for j in range(d)) for i in range(d)]


def rand_below(rng, n: int) -> int:
    """A seeded integer drawn from [0, n), n > 0.

    It is the value rng.randrange(n) gives, and it leaves rng in the same
    state, so rand_below(rng, 2 r + 1) - r is rng.randint(-r, r): this is
    stdlib's own loop for random.Random (_randbelow_with_getrandbits: draw
    k = n.bit_length() bits, and draw again while the value is >= n).  It is
    not randrange for two reasons.  Cost: randint and randrange reach that
    loop through two more Python frames and their argument checks on every
    draw, and one run of the lie suite makes tens of thousands of draws.
    Dependence: it reads the generator through the public getrandbits
    alone, not through the private method that randrange picks."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def rand_point(rng, d: int, radius: int = 3) -> tuple[int, ...]:
    """A point of Z^d with coordinates drawn from [-radius, radius]."""
    width = 2 * radius + 1
    return tuple([rand_below(rng, width) - radius for _ in range(d)])


def rand_nonzero_point(rng, d: int, radius: int) -> tuple[int, ...]:
    """rand_point, with e_0 in place of the zero point."""
    p = rand_point(rng, d, radius)
    return p if any(p) else units(d)[0]


def rand_radical_point(rng, spec, radius: int = 1) -> tuple[int, ...]:
    """A combination of the radical basis rows of `spec` with coefficients
    drawn from [-radius, radius]."""
    basis = spec.radical().basis
    width = 2 * radius + 1
    coeffs = [rand_below(rng, width) - radius for _ in basis]
    return tuple(sum(c * row[i] for c, row in zip(coeffs, basis)) for i in range(spec.d))
