"""Test-only gl helpers, imported by nothing under src/.

first_failure is the dense bracket-law sweep that the sparse check in
qtorus.glmodules replaced, kept as the reference that the differential
tests compare against.  For every quadruple (i, j, k, l) in lexicographic
order it forms E_ij E_kl - E_kl E_ij with dense dim x dim products and
compares it with delta_jk E_il - delta_li E_kj.

conjugated_sum is a reducible module that start-vector probes call
irreducible: natural + natural in a basis where no basis vector lies in a
proper submodule.
"""

from __future__ import annotations

from qtorus.glmodules import (
    GlModule,
    direct_sum,
    identity_matrix,
    mat_add,
    mat_eq,
    mat_mul,
    mat_scale,
    mat_sub,
    natural,
    zero_matrix,
)


def first_failure(d: int, dim: int, E):
    """The first quadruple (i, j, k, l) at which the law fails, or None."""
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    lhs = mat_sub(mat_mul(E[i][j], E[k][l]), mat_mul(E[k][l], E[i][j]))
                    rhs = zero_matrix(dim, dim)
                    if j == k:
                        rhs = mat_add(rhs, E[i][l])
                    if l == i:
                        rhs = mat_sub(rhs, E[k][j])
                    if not mat_eq(lhs, rhs):
                        return (i, j, k, l)
    return None


def _blocks(a, b, c, e):
    """The 2 x 2 block matrix [[a, b], [c, e]]."""
    return [ra + rb for ra, rb in zip(a, b)] + [rc + re for rc, re in zip(c, e)]


def conjugated_sum(d: int) -> GlModule:
    """natural(d) + natural(d) with each image M replaced by P M P^-1, where
    P^-1 = [[I + S, S], [I, I]], P = [[I, 0], [-I, I]] [[I, -S], [0, I]] and S
    is the cyclic shift of the d coordinates."""
    I, Z = identity_matrix(d), zero_matrix(d, d)
    S = [[I[r][(c - 1) % d] for c in range(d)] for r in range(d)]
    P_inv = _blocks(mat_add(I, S), S, I, I)
    P = mat_mul(_blocks(I, Z, mat_scale(I, -1), I), _blocks(I, mat_scale(S, -1), Z, I))
    assert mat_eq(mat_mul(P_inv, P), identity_matrix(2 * d))
    V = direct_sum(natural(d), natural(d))
    E = [[mat_mul(mat_mul(P, M), P_inv) for M in row] for row in V.E]
    return GlModule(d, 2 * d, E, "conjugated(natural+natural)")
