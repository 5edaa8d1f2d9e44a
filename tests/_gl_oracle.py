"""Test-only oracle: the dense bracket-law sweep that the sparse check in
qtorus.glmodules replaced, kept as the reference that the differential
tests compare against.  For every quadruple (i, j, k, l) in lexicographic
order it forms E_ij E_kl - E_kl E_ij with dense dim x dim products and
compares it with delta_jk E_il - delta_li E_kj.  Nothing under src/ imports
it.
"""

from __future__ import annotations

from qtorus.glmodules import mat_add, mat_eq, mat_mul, mat_sub, zero_matrix


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
