"""The dense r x r x r view of a fusion ring, kept as a test oracle only:
``dense`` fills the cube from ``FusionRing.product`` of every ordered pair,
and ``channels_of`` turns a cube, perhaps edited, back into the channel
rows (i, j, k, N_ij^k) of its nonzero entries in C order, the form the
package stores and proves."""

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
