"""The dense r x r x r view of fusion rings and hypergroups, kept as a test
oracle only: ``dense`` fills the cube from ``FusionRing.product`` of every
ordered pair, and ``channels_of`` turns a cube, perhaps edited, back into
the rows (i, j, k, x) of its nonzero entries in C order, the form the
package stores and proves.  ``eigen_dims`` estimates the Frobenius-Perron
dimensions in floats, as the largest real eigenvalue of each N_i, for
comparison with the exact dimensions a ring carries.

``check_dense`` and ``validate_dense`` are the checks of rings and
hypergroups on the cube, with its float64 BLAS associativity test
``nonassociative``; ``ty_hypergroup_table`` writes the Tambara-Yamagami
hypergroup's weights by hand, as its normalized ring must give them."""

import math
from fractions import Fraction

import numpy as np

from tycat.cyclo import _real_sign
from tycat.errors import CapacityError, InvalidArgumentError


def dense(ring) -> np.ndarray:
    r = ring.rank
    cube = np.zeros((r, r, r), dtype=np.int64)
    for i in range(r):
        for j in range(r):
            for k, n in ring.product(i, j).items():
                cube[i, j, k] = n
    return cube


def channels_of(cube) -> np.ndarray:
    cube = np.asarray(cube, dtype=np.int64)
    nz = np.argwhere(cube)  # C order: i, then j, then k
    return np.column_stack([nz, cube[tuple(nz.T)]]).reshape(-1, 4)


def eigen_dims(ring) -> list[float]:
    out = []
    for i in range(ring.rank):
        _, j, k, n = ring.row(i).T
        n_i = np.zeros((ring.rank, ring.rank))  # N_i[j, k] = N_ij^k
        n_i[j, k] = n
        out.append(float(max(np.linalg.eigvals(n_i).real)))
    return out


def nonassociative(arr: np.ndarray) -> list[tuple[int, int, int, int]]:
    """The (i, j, k, l), in C order, where sum_m N_ij^m N_mk^l differs from
    sum_m N_jk^m N_im^l: one row i at a time as float64 BLAS products,
    exact because every partial sum stays below r nmax^2 < 2^53."""
    r = arr.shape[0]
    nmax = int(arr.max()) if arr.size else 0
    if r * nmax * nmax >= 2**53:
        raise CapacityError(
            f"structure constants too large for exact associativity: {nmax} at rank {r}"
        )
    f = arr.astype(np.float64)
    right = f.reshape(r, r * r)
    left = f.reshape(r * r, r)
    out = []
    for i in range(r):
        lhs = f[i] @ right
        rhs = (left @ f[i]).reshape(r, r * r)
        for j, kl in zip(*np.nonzero(lhs != rhs)):
            out.append((i, int(j), int(kl) // r, int(kl) % r))
    return out


def check_dense(ring) -> list[tuple[str, tuple]]:
    """``check_fusion_ring`` on the cube of the channels."""
    r = ring.rank
    arr = np.zeros((r, r, r), dtype=np.int64)
    arr[tuple(ring.channels[:, :3].T)] = ring.channels[:, 3]
    violations = []

    eye = np.eye(r, dtype=np.int64)
    for j, k in np.argwhere((arr[0] != eye) | (arr[:, 0] != eye)).tolist():
        violations.append(("unit", (0, j, k)))
    try:
        dual = [ring.dual(i) for i in range(r)]
        for i in range(r):
            if dual[dual[i]] != i:
                violations.append(("dual-involution", (i,)))
    except InvalidArgumentError:
        violations.append(("dual", ()))
        dual = None

    for idx in nonassociative(arr):
        violations.append(("associativity", idx))

    if dual is not None:
        dual_arr = np.array(dual)
        frob_a = arr[:, dual_arr, :].transpose(2, 1, 0)
        frob_b = arr[np.ix_(dual_arr, dual_arr, dual_arr)].transpose(1, 0, 2)
        bad = (arr != frob_a) | (arr != frob_b)
        if bool(np.all(arr == arr.transpose(1, 0, 2))):
            frob_c = arr[:, dual_arr, :][:, :, dual_arr].transpose(0, 2, 1)
            bad |= arr != frob_c
        for idx in np.argwhere(bad).tolist():
            violations.append(("frobenius", tuple(idx)))

    keys = [d.key_at(d.n) for d in ring.dims]
    at = {key: c for c, key in enumerate(dict.fromkeys(keys))}
    values, cls = [ring.dims[keys.index(key)] for key in at], np.array([at[key] for key in keys])
    total = sum(x * n for x, n in zip(values, np.bincount(cls).tolist()))
    counts = arr.sum(axis=0) @ (cls[:, None] == np.arange(len(values)))
    rows, of_row = np.unique(np.column_stack([cls, counts]), axis=0, return_inverse=True)
    holds = [values[c] == values[c].conj() and _real_sign(values[c]) > 0
             and sum(values[k] * n for k, n in enumerate(row) if n) == total * values[c]
             for c, *row in rows.tolist()]
    violations += [("dimension", (j,)) for j, u in enumerate(of_row.ravel().tolist())
                   if not holds[u] or (j == 0 and ring.dims[0] != 1)]
    return violations


def hypergroup_cube(hg) -> np.ndarray:
    r = hg.rank
    t = np.zeros((r, r, r), dtype=np.int64)
    t[tuple(hg.weights[:, :3].T)] = hg.weights[:, 3]
    return t


def validate_dense(t: np.ndarray, den: int, star) -> None:
    """``Hypergroup.validate`` on the cube ``t`` of weights over ``den``."""
    r = t.shape[0]
    if r * den >= 2**63:
        raise CapacityError(f"hypergroup weights over {den} at rank {r} exceed int64")
    cols = np.arange(r)
    for what, bad in (
        ("negative weight in {} * {}", (t < 0).any(axis=2)),
        ("weights of {} * {} do not sum to 1", (t > den).any(axis=2) | (t.sum(axis=2) != den)),
        ("antipode law fails at ({}, {})", (t[:, :, 0] > 0) != (cols == np.array(star)[:, None])),
    ):
        hits = np.argwhere(bad)
        if len(hits):
            raise InvalidArgumentError(what.format(*hits[0].tolist()))
    if (t[0, cols, cols] != den).any() or (t[cols, 0, cols] != den).any():
        raise InvalidArgumentError("unit is not a two-sided identity")
    bad = nonassociative(t)
    if bad:
        raise InvalidArgumentError(f"hypergroup is not associative at {bad[0]}")


def ty_hypergroup_table(group) -> tuple[np.ndarray, int, tuple]:
    """The cube, denominator and antipode of K = G u {tau}, written by hand:
    tau* = tau = g tau = tau g, tau^2 = (1/|G|) sum_g g."""
    els = group.elements()
    n = len(els)
    idx = {g: i for i, g in enumerate(els)}
    one = Fraction(1)
    weights = {}
    for i, g in enumerate(els):
        for j, h in enumerate(els):
            weights[i, j, idx[g + h]] = one
        weights[i, n, n] = weights[n, i, n] = one
    for k in range(n):
        weights[n, n, k] = Fraction(1, n)
    den = math.lcm(*(w.denominator for w in weights.values()))
    table = np.zeros((n + 1, n + 1, n + 1), dtype=np.int64)
    for (i, j, k), w in weights.items():
        table[i, j, k] = w.numerator * (den // w.denominator)
    return table, den, tuple(idx[-g] for g in els) + (n,)


def orthogonality_dense(table) -> None:
    """``CharTable.validate`` with one conjugate and weight per entry and
    row pair."""
    rows, cols = len(table.row_labels), len(table.col_labels)
    for j in range(cols):
        if table.entries[0][j] != 1:
            raise InvalidArgumentError("first row of the character table is not 1")
    for i in range(rows):
        for j in range(i + 1, rows):
            total = table.entries[0][0] * 0
            for k in range(cols):
                total = total + table.entries[i][k] * table.entries[j][k].conj() * table.weights[k]
            if not total.is_zero():
                raise InvalidArgumentError(f"rows {i} and {j} are not weighted-orthogonal")
