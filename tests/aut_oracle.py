"""Automorphisms the way ``tycat.groups`` found them before it backtracked:
every tuple of generator images from the order pools, in product order,
mapped over the whole group at once with numpy and kept when only 0 maps to
0.  Also the automorphism helpers only the tests call.  Used as an oracle
by the tests only.
"""

import math
from itertools import product

import numpy as np

from tycat.groups import GroupAut


def _coords(group) -> np.ndarray:
    """The (|G|, rank) coordinates of the elements, in element order."""
    c = np.array(list(product(*map(range, group.invariant_factors))), dtype=np.int64)
    return c.reshape(group.order, group.rank)


def _index_of_coords(group, coords) -> np.ndarray:
    facs = group.invariant_factors
    strides = [math.prod(facs[j + 1:]) for j in range(len(facs))]
    return np.asarray(coords) % np.array(facs, dtype=np.int64) @ np.array(strides, dtype=np.int64)


def brute_force_automorphisms(group) -> tuple[GroupAut, ...]:
    """Every automorphism, in the product order of the pools {y : d_i y = 0}."""
    if group.is_trivial():
        return (GroupAut(group, ()),)
    facs = group.invariant_factors
    c = _coords(group)
    pools = [np.flatnonzero(((c * d) % facs == 0).all(axis=1)) for d in facs]
    sizes = [len(pool) for pool in pools]
    n_candidates = math.prod(sizes)
    kept = []
    chunk = max(1, (1 << 16) // (group.order * group.rank))
    for start in range(0, n_candidates, chunk):
        pos = np.unravel_index(np.arange(start, min(start + chunk, n_candidates)), sizes)
        images = np.stack([c[pool[p]] for pool, p in zip(pools, pos)], axis=1)
        mapped = _index_of_coords(group, np.einsum("gi,nij->ngj", c, images))
        kept.append(images[(mapped[:, 1:] != 0).all(axis=1)])
    els = group.elements()
    return tuple(
        GroupAut(group, tuple(els[i] for i in row))
        for row in _index_of_coords(group, np.concatenate(kept)).tolist()
    )


def compose(a: GroupAut, b: GroupAut) -> GroupAut:
    """a o b."""
    return GroupAut(a.group, tuple(a(img) for img in b.images))


def inverse(a: GroupAut) -> GroupAut:
    table = {a(g): g for g in a.group.elements()}
    return GroupAut(a.group, tuple(table[g] for g in a.group.generators()))


def is_identity(a: GroupAut) -> bool:
    return a.images == a.group.generators()
