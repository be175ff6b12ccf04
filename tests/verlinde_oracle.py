"""The all-points Verlinde check that ``MatProver.verify_verlinde`` ran
before it decided the relation at one point per prime, kept as an oracle:
every label pair i <= j at every primitive point of every prime, streamed
over chunks of pairs with the CSR list of their nonzero fusion channels.
It raises the same message, naming the first failing pair.  ``_proven``
packs an S and proves its symmetry and Galois symmetry the way
``validate`` does, as ``verify_verlinde`` requires.  ``float_guess`` is
the Verlinde tensor rounded from S in complex floats, the guess
``validate`` made before ``MatProver.guess_verlinde`` read it from
residues."""

import numpy as np

from tycat.errors import ModularityError
from tycat.modcheck import distinct_values, galois_generators

from galois_oracle import all_points


def _proven(prover, rows) -> dict:
    """The packed S of ``rows``, proven symmetric and Galois-symmetric for
    every generator (-1 as conj(S) = CS)."""
    s = prover.pack(*distinct_values(rows))
    prover.verify_galois(s, galois_generators(prover.n))
    return s


def float_guess(prover, s: dict) -> np.ndarray:
    """N_ij^k = sum_l S_il S_jl conj(S_kl) / S_0l, rounded from S in float
    at zeta_N, read from the packed coefficients of its distinct values and
    gathered through the index."""
    powers = np.exp(2j * np.pi / prover.n * np.arange(prover.phi))
    sf = (s["coeffs"] @ powers / s["den"])[s["index"]]
    ratios_t = (sf.conj() / sf[0][None, :]).T
    r = s["rank"]
    tensor = np.empty((r, r, r), dtype=np.int64)
    for i in range(r):  # one BLAS product per row i
        tensor[i] = np.rint(((sf[i] * sf) @ ratios_t).real)
    return tensor


def all_points_verlinde(prover, s: dict, tensor: np.ndarray, chunk_bytes: int = 2 << 20) -> None:
    r = s["rank"]
    nmax = int(tensor.max()) if tensor.size else 0
    g = prover.red_growth
    bound = r * nmax * s["l1"] ** 2 * g + s["l1"] ** 2 * g
    iu, ju = np.triu_indices(r)
    npairs = len(iu)
    pair_rows = tensor[iu, ju]  # (npairs, r)
    pair_of, chan_k = np.nonzero(pair_rows)
    chan_n = pair_rows[pair_of, chan_k].astype(np.float64)
    indptr = np.zeros(npairs + 1, dtype=np.int64)
    np.cumsum(np.bincount(pair_of, minlength=npairs), out=indptr[1:])
    # rows gathered for the pairs before t: their channels, their i and j
    gathered = indptr + 2 * np.arange(npairs + 1)
    width = len(prover.points) * r
    chunk_rows = max(1, chunk_bytes // (8 * width))
    for p in prover._primes(2 * bound):
        # rows[i] = S[i, l] at every point, flattened to (npts * r)
        rows = np.ascontiguousarray(all_points(prover, s, p).transpose(1, 0, 2)).reshape(r, width)
        pm = rows * rows[0] % p  # S[k,l] S[0,l] mod p
        a = 0
        while a < npairs:
            b = int(np.searchsorted(gathered, gathered[a] + chunk_rows, side="right")) - 1
            b = max(b, a + 1)
            diff = rows[iu[a:b]] * rows[ju[a:b]]
            lo, hi = indptr[a], indptr[b]
            # weights[t, c] = N_ij^k of channel c if it belongs to pair a + t
            weights = np.zeros((b - a, hi - lo))
            weights[pair_of[lo:hi] - a, np.arange(hi - lo)] = chan_n[lo:hi]
            diff -= weights @ pm[chan_k[lo:hi]]
            q = np.rint(diff / p)
            q *= p
            bad = (q != diff).any(axis=1)
            if bad.any():
                t = a + int(np.argmax(bad))
                raise ModularityError(
                    f"Verlinde eigen-relation fails near (i={int(iu[t])}, j={int(ju[t])})"
                )
            a = b
