"""Dense exact linear algebra over GF(q).

Matrices are numpy int64 arrays of packed field-element values; the field
is passed explicitly as the first argument (any object with vectorized
``add/sub/neg/mul/inv`` and an integer ``q``).  Row space, rank, kernel and
solving are all done by exact Gaussian elimination.
"""

from __future__ import annotations

import numpy as np


def as_matrix(rows, n=None):
    """Coerce a row list / array to a 2-D int64 array, allowing 0 rows."""
    a = np.array(rows, dtype=np.int64)
    if a.ndim == 2:
        return a
    if a.size == 0:
        return a.reshape(0, 0 if n is None else n)
    return a.reshape(1, -1)


def rref(F, m):
    """Reduced row echelon form.

    Returns ``(r, pivots)`` where ``r`` has the same shape as ``m`` (zero
    rows at the bottom) and ``pivots`` is the strictly increasing tuple of
    pivot column indices.  Row space is preserved.
    """
    r = as_matrix(m).copy()
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        if r[row, col] == 0:
            nz = np.flatnonzero(r[row:, col])
            if nz.size == 0:
                continue
            pr = row + int(nz[0])
            r[[row, pr]] = r[[pr, row]]
        # Columns left of col are zero in the pivot row, so only the
        # columns from col on change.
        piv = int(r[row, col])
        if piv != 1:
            r[row, col:] = F.mul(F.inv(piv), r[row, col:])
        coefs = r[:, col].copy()
        coefs[row] = 0
        mask = coefs != 0
        if mask.any():
            r[mask, col:] = F.sub(r[mask, col:], F.mul(coefs[mask, None], r[row, col:][None, :]))
        pivots.append(col)
        row += 1
    return r, tuple(pivots)


def nonzero_rows(m):
    m = as_matrix(m)
    keep = np.any(m != 0, axis=1)
    return m[keep]


def rref_basis(F, m):
    """rref with zero rows dropped: the canonical row-space representative."""
    r, piv = rref(F, m)
    return r[: len(piv)]


def rank(F, m) -> int:
    return len(rref(F, m)[1])


def kernel(F, m):
    """Basis of the right null space, as canonically rref'd rows.

    ``rank(kernel) == cols - rank(m)`` and ``m @ kernel.T == 0``.
    """
    m = as_matrix(m)
    nrows, ncols = m.shape
    r, pivots = rref(F, m)
    free = [j for j in range(ncols) if j not in pivots]
    if not free:
        return np.zeros((0, ncols), dtype=np.int64)
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for bi, j in enumerate(free):
        basis[bi, j] = 1
        for ri, pc in enumerate(pivots):
            basis[bi, pc] = F.neg(int(r[ri, j]))
    return rref_basis(F, basis)


def reduce_rows(F, basis, pivots, v):
    """Reduce row vector(s) ``v`` against an rref basis.  Vectorized."""
    v = np.array(v, dtype=np.int64)
    single = v.ndim == 1
    if single:
        v = v.reshape(1, -1)
    for i, pc in enumerate(pivots):
        coefs = v[:, pc].copy()
        mask = coefs != 0
        if mask.any():
            v[mask] = F.sub(v[mask], F.mul(coefs[mask, None], basis[i][None, :]))
    return v[0] if single else v


def in_rowspace(F, basis, pivots, v) -> bool:
    return not np.any(reduce_rows(F, basis, pivots, v) != 0)


def matmul(F, a, b):
    """Exact matrix product over GF(q)."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for l in range(a.shape[1]):
        out = F.add(out, F.mul(a[:, l][:, None], b[l][None, :]))
    return out


def solve_left(F, m, rhs):
    """Any ``x`` with ``x @ m == rhs`` (row-space membership), else None.

    ``rhs`` has one entry per column of ``m``; a solution exists exactly
    when ``rhs`` lies in the row space.
    """
    m = as_matrix(m)
    rhs = np.asarray(rhs, dtype=np.int64)
    nrows, ncols = m.shape
    if rhs.shape[0] != ncols:
        raise ValueError(f"rhs length {rhs.shape[0]} != cols {ncols}")
    # Eliminate the augmented system m.T | rhs.
    aug = np.concatenate([m.T, rhs.reshape(-1, 1)], axis=1)
    r, pivots = rref(F, aug)
    x = np.zeros(nrows, dtype=np.int64)
    for ri, pc in enumerate(pivots):
        if pc == nrows:  # pivot in the rhs column: inconsistent
            return None
        x[pc] = r[ri, nrows]
    return x


def rowspace_sum(F, a, b):
    a = as_matrix(a)
    b = as_matrix(b, a.shape[1])
    return rref_basis(F, np.concatenate([a, b], axis=0))


def rowspace_intersect(F, a, b):
    """Basis of the intersection of two row spaces.

    Found from the left kernel of the stacked matrix: coefficient vectors
    (x | y) with x@a + y@b = 0 give intersection elements x@a.
    """
    a = as_matrix(a)
    b = as_matrix(b, a.shape[1])
    n = a.shape[1]
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((0, n), dtype=np.int64)
    stacked = np.concatenate([a, b], axis=0)
    left_null = kernel(F, stacked.T)  # rows (x | y)
    if left_null.shape[0] == 0:
        return np.zeros((0, n), dtype=np.int64)
    return rref_basis(F, matmul(F, left_null[:, : a.shape[0]], a))
