"""The dense r x r x r view of a fusion ring, kept as a test oracle only:
``dense`` fills the cube from ``FusionRing.product`` of every ordered pair,
and ``channels_of`` turns a cube, perhaps edited, back into the channel
rows (i, j, k, N_ij^k) of its nonzero entries in C order, the form the
package stores and proves.  ``eigen_dims`` estimates the Frobenius-Perron
dimensions in floats, as the largest real eigenvalue of each N_i, for
comparison with the exact dimensions a ring carries."""

import numpy as np


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
