"""Exact integer matrix utilities: Smith/Hermite normal forms, determinants,
products.  Matrices are tuples of tuples of Python ints (arbitrary
precision); every decomposition is verified by multiplication before return.
"""

from __future__ import annotations

from operator import mul

from .errors import InvalidArgumentError, ModularityError

Matrix = tuple[tuple[int, ...], ...]


def as_matrix(rows) -> Matrix:
    m = tuple(tuple(int(x) for x in row) for row in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise InvalidArgumentError("ragged matrix")
    return m


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def det(a: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (D, U, V) with U*a*V = D, D diagonal with d_i | d_{i+1},
    U and V unimodular.  Verified by multiplication before returning."""
    a = as_matrix(a)
    rows, cols = len(a), len(a[0]) if a else 0
    m = [list(r) for r in a]
    u = [list(r) for r in identity(rows)]
    v = [list(r) for r in identity(cols)]

    def row_op(i, j, c):  # row_i -= c * row_j
        m[i] = [x - c * y for x, y in zip(m[i], m[j])]
        u[i] = [x - c * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, c):  # col_i -= c * col_j
        for r in m:
            r[i] -= c * r[j]
        for r in v:
            r[i] -= c * r[j]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(rows, cols):
        # find a pivot of minimal absolute value in the remaining block
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(m[i][j])
                if x and (best is None or x < best):
                    best, piv = x, (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t]:
                q = m[i][t] // m[t][t]
                row_op(i, t, q)
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j]:
                q = m[t][j] // m[t][t]
                col_op(j, t, q)
                if m[t][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block by the pivot
        d = m[t][t]
        bad = next(
            ((i, j) for i in range(t + 1, rows) for j in range(t + 1, cols)
             if m[i][j] % d),
            None,
        )
        if bad is not None:
            row_op(t, bad[0], -1)  # adds row bad[0] to row t
            continue
        t += 1

    for i in range(min(rows, cols)):
        if m[i][i] < 0:
            m[i] = [-x for x in m[i]]
            u[i] = [-x for x in u[i]]

    d_m, u_m, v_m = as_matrix(m), as_matrix(u), as_matrix(v)
    if matmul(matmul(u_m, a), v_m) != d_m:
        raise ModularityError("Smith normal form certificate fails U A V = D")
    if abs(det(u_m)) != 1 or abs(det(v_m)) != 1:
        raise ModularityError("Smith normal form transform is not unimodular")
    diag = [d_m[i][i] for i in range(min(rows, cols))]
    for x, y in zip(diag, diag[1:]):
        if (y % x if x else y) != 0:
            raise ModularityError(f"Smith normal form diagonal {diag} fails the divisibility chain")
    return d_m, u_m, v_m


def hermite_row_basis(rows_in) -> Matrix:
    """Row-style Hermite reduction: a canonical basis (as matrix rows) of the
    integer row span of the input.  Zero rows are dropped."""
    rows_in = [list(r) for r in rows_in]
    ncols = len(rows_in[0]) if rows_in else 0
    work = [r for r in rows_in if any(r)]
    basis: list[list[int]] = []
    for col in range(ncols):
        active = [r for r in work if r[col]]
        if not active:
            continue
        while len(active) > 1:  # euclidean reduction within this column
            active.sort(key=lambda r: abs(r[col]))
            p = active[0]
            for r in active[1:]:
                q = r[col] // p[col]
                for k in range(ncols):
                    r[k] -= q * p[k]
            active = [r for r in active if r[col]]
        pivot = active[0]
        if pivot[col] < 0:
            pivot[:] = [-x for x in pivot]
        for b in basis:  # reduce entries above the pivot
            q = b[col] // pivot[col]
            if q:
                for k in range(ncols):
                    b[k] -= q * pivot[k]
        basis.append(pivot)
        work = [r for r in work if r is not pivot and any(r)]
    return as_matrix(basis)
