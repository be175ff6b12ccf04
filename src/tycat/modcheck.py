"""Exact verification of cyclotomic matrix identities at scale.

Matrix identities like S^2 = C or TSTST = S over Q(zeta_N) are decided
exactly but without big-number matrix products: clear denominators, then
evaluate both sides at every primitive N-th root of unity modulo several
primes p = 1 (mod N).  A nonzero reduced difference R (degree < phi(N))
cannot vanish at all phi(N) primitive points mod p, so if all evaluations
agree modulo a set of primes whose product exceeds twice a runtime-computed
bound on R's coefficients, the identity holds over Z -- this is a
deterministic proof, not a probabilistic check.

All modular arithmetic runs in float64 BLAS ops whose intermediate values
are kept below 2^53, where float64 integer arithmetic is exact; inputs
that would break these margins raise ``CapacityError``, so the guarantee
also holds under ``python -O``.  Matrix products of residues mod p reduce
after every block of floor(2^53 / (p-1)^2) inner terms (the delayed
reduction of FFLAS, Dumas-Giorgi-Pernet, ACM TOMS 2008), so they are exact
at any inner dimension.  The Verlinde relation, the one identity whose
size grows with the number of label pairs, is streamed over chunks of
pairs under a fixed budget of a few MB of gathered rows and decided with
one exact zero test per entry (see ``MatProver.verify_verlinde``); its
memory does not grow with the rank beyond the O(r^2 * points) evaluations.

Identities that only permute entries (symmetry, conjugation by a
permutation) are decided on the packed coefficient arrays themselves:
entries share one denominator and the coefficient vectors are canonical,
so array equality is value equality.  S^2 = C is proven against the
permutation C directly, whose evaluation needs no pack.
"""

from __future__ import annotations

import math

import numpy as np

from .cyclo import _phi_deg, _reduction_table, factorize
from .errors import CapacityError, ModularityError

_PRIME_CAP = 1 << 22  # keeps every float64 intermediate below 2^53
# gathered evaluation rows per Verlinde chunk: a few MB stays in cache
_CHUNK_ROWS_BYTES = 2 << 20
# most r x r x phi(N) coefficient cells of a matrix to prove: TY(Z17), with
# 10.7M cells, peaks at 734 MB RSS, so 16.8M cells keep a build near 1.2 GB
MAX_CELLS = 1 << 24


def check_cells(rows: int, cols: int, phi: int) -> None:
    """Refuse more than ``MAX_CELLS`` coefficient cells before they exist."""
    if rows * cols * phi > MAX_CELLS:
        raise CapacityError(f"{rows} x {cols} entries of {phi} coefficients exceed "
                            f"{MAX_CELLS} cells, the size limit for modular data")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _root_powers(p: int, n: int) -> np.ndarray:
    """w^k mod p for 0 <= k < n, as float64, for the first w of exact
    multiplicative order n mod p (requires n | p-1)."""
    cof = (p - 1) // n
    fac = factorize(n)
    for g in range(2, p):
        w = pow(g, cof, p)
        if w != 1 and all(pow(w, n // q, p) != 1 for q in fac):
            break
    else:
        raise ModularityError(f"no order-{n} element mod {p}")
    wpow = [1] * n
    for k in range(1, n):
        wpow[k] = wpow[k - 1] * w % p
    return np.array(wpow, dtype=np.float64)


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p for float64 residues in [0, p), exact at any inner
    dimension k: a block of floor(2^53 / (p-1)^2) products sums to at most
    2^53, so the inner dimension is split into such blocks with a reduction
    mod p after each (FFLAS delayed reduction)."""
    k = a.shape[-1]
    step = 2**53 // (p - 1) ** 2  # at least 512, as p < 2^22
    out = np.matmul(a[..., :step], b[..., :step, :])
    out %= p
    for lo in range(step, k, step):
        out += np.matmul(a[..., lo : lo + step], b[..., lo : lo + step, :]) % p
        out %= p
    return out


class MatProver:
    """Verifies products of CycNum matrices at one common conductor."""

    def __init__(self, conductor: int):
        self.n = conductor
        self.phi = _phi_deg(conductor)
        self.points = [j for j in range(conductor) if math.gcd(j, conductor) == 1]
        pt_index = {j: k for k, j in enumerate(self.points)}
        self.neg_perm = np.array(
            [pt_index[(conductor - j) % conductor] for j in self.points]
        )
        # growth factor of reduction mod Phi_N, for coefficient bounds
        table = _reduction_table(conductor)
        self.red_growth = max(
            sum(abs(c) for c in row.values()) for row in table
        )
        self._prime_cache: list[int] = []

    # -- matrix registration ------------------------------------------------

    def pack(self, rows) -> dict:
        """Clear denominators of a CycNum matrix; keep int64 coefficients,
        the denominator, L1 norms, and a per-prime evaluation cache."""
        nr = len(rows)
        nc = len(rows[0])
        check_cells(nr, nc, self.phi)
        den = 1
        for row in rows:
            for x in row:
                den = den * x.den // math.gcd(den, x.den)
        coeffs = np.zeros((nr, nc, self.phi), dtype=np.int64)
        l1_max = 0
        cap = (2**53 - 1) // (_PRIME_CAP * self.phi)
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if x.n != self.n:
                    raise ModularityError("matrix entry at a foreign conductor")
                scale = den // x.den
                tot = 0
                for e, c in x.num.items():
                    v = c * scale
                    av = abs(v)
                    if av > cap:
                        raise CapacityError(
                            f"coefficients too large: {av} exceeds {cap}, "
                            "the bound for exact float64 evaluation"
                        )
                    coeffs[i, j, e] = v
                    tot += av
                l1_max = max(l1_max, tot)
        return {"coeffs": coeffs, "den": den, "l1": l1_max, "rank": nr, "evals": {}}

    # -- primes and evaluation ----------------------------------------------

    def _primes(self, need: int) -> list[int]:
        have = 1
        for p in self._prime_cache:
            have *= p
        start = self._prime_cache[-1] + self.n if self._prime_cache else (
            (_PRIME_CAP // 2) // self.n * self.n + 1
        )
        p = start
        while have <= need:
            if p >= _PRIME_CAP:
                raise ModularityError("prime pool exhausted")
            if _is_prime(p):
                self._prime_cache.append(p)
                have *= p
            p += self.n
        out = []
        have = 1
        for q in self._prime_cache:
            out.append(q)
            have *= q
            if have > need:
                break
        return out

    def _eval(self, mat: dict, p: int) -> np.ndarray:
        """Evaluations mod p at every primitive point: shape (npts, nr, nc)."""
        if p in mat["evals"]:
            return mat["evals"][p]
        idx = np.outer(np.arange(self.phi), np.array(self.points)) % self.n
        v = _root_powers(p, self.n)[idx]
        nr, nc, _ = mat["coeffs"].shape
        flat = mat["coeffs"].reshape(nr * nc, self.phi).astype(np.float64)
        ev = (flat @ v) % p
        ev = np.ascontiguousarray(
            ev.reshape(nr, nc, len(self.points)).transpose(2, 0, 1)
        )
        mat["evals"][p] = ev
        return ev

    # -- the identities -------------------------------------------------------

    def verify_symmetric(self, a: dict) -> None:
        """S == S^T, decided on the canonical coefficients."""
        c = a["coeffs"]
        bad = np.argwhere(np.tril((c != c.transpose(1, 0, 2)).any(axis=2), -1))
        if len(bad):
            i, j = (int(x) for x in bad[0])
            raise ModularityError(f"S is not symmetric at ({i}, {j})")

    def verify_permuted(self, a: dict, rows, cols, what: str) -> None:
        """A[rows[i], cols[j]] == A[i, j], decided on the canonical
        coefficients (CSC = S for a permutation C is rows = cols = C)."""
        c = a["coeffs"]
        if not np.array_equal(c[np.ix_(rows, cols)], c):
            raise ModularityError(f"{what} fails")

    def verify_conj(self, a: dict, perm) -> None:
        """conj(S) == C S for the row permutation C = perm.

        Conjugation maps the point zeta^j to zeta^-j, so conj(S) evaluates
        to ev[neg_perm]; the reduced difference has L1 norm at most
        l1 (red_growth + 1).
        """
        bound = a["l1"] * (self.red_growth + 1)
        for p in self._primes(2 * bound):
            ev = self._eval(a, p)
            if not np.array_equal(ev[self.neg_perm], ev[:, perm, :]):
                raise ModularityError("S is not unitary (conj(S) != CS)")

    def verify_product(self, s: dict, perm) -> None:
        """(den S)^2 == den^2 C for the permutation matrix C = perm.

        C is never packed: at every point its scaled evaluation is den^2
        at (i, perm[i]) and 0 elsewhere, one r x r array per prime.  The
        reduced difference has L1 norm at most r l1^2 g + den^2.
        """
        den = s["den"]
        r = s["rank"]
        bound = r * s["l1"] ** 2 * self.red_growth + den**2
        for p in self._primes(2 * bound):
            es = self._eval(s, p)
            rhs = np.zeros((r, r))
            rhs[np.arange(r), perm] = den * den % p
            if not (_matmul_mod(es, es, p) == rhs).all():
                raise ModularityError("S^2 = C identity fails")

    def verify_tstst(self, s: dict, t_exps) -> None:
        """TSTST = S, proven as T (den S) T (den S) T == den (den S) for the
        packed S and T_i = zeta_N^(t_exps[i]), which is not packed: at the
        point w^j it evaluates to w^(j t_exps[i]).  As monomials the T entries
        add no L1 norm, so the left side has L1 norm at most r l1^2 in
        Z[x]/(x^N - 1), reduced once at the end, and the reduced difference
        has L1 norm at most r l1^2 g + den l1.  Computed as (T S T) @ (S T):
        X = S * t[col], then t[row] * X, then one matrix product.
        """
        den = s["den"]
        r = s["rank"]
        bound = r * s["l1"] ** 2 * self.red_growth + den * s["l1"]
        idx = np.outer(self.points, t_exps) % self.n  # (npts, r)
        for p in self._primes(2 * bound):
            es = self._eval(s, p)
            et = _root_powers(p, self.n)[idx]
            st = es * et[:, None, :]  # S T   (columns scaled)
            st %= p
            tst = st * et[:, :, None]  # T S T (then rows)
            tst %= p
            lhs = _matmul_mod(tst, st, p)
            del st, tst
            rhs = es * (den % p)
            rhs %= p
            if not np.array_equal(lhs, rhs):
                raise ModularityError("TSTST = S identity fails")

    def verify_verlinde(self, s: dict, tensor: np.ndarray) -> None:
        """sum_k N_ij^k S[k,l] S[0,l] == S[i,l] S[j,l] for all i, j, l.

        The tensor must be symmetric in (i, j) (checked), so only pairs
        with i <= j are proven.  The nonzero channels of those pairs are
        kept as CSR rows (``indptr``, ``k``, ``N_ij^k``); per prime, the
        pairs are streamed in chunks of at most ``_CHUNK_ROWS_BYTES`` of
        gathered evaluation rows (at least one pair), so beyond the
        evaluations of S the working memory is a fixed budget.  Each chunk
        forms, at every primitive point and column l,

            diff = S[i,l] S[j,l] - sum_k N_ij^k (S[k,l] S[0,l] mod p)

        from residues in [0, p): the sum gathers the rows of the chunk's
        channels and adds them with one small matmul by the (pairs x
        channels) matrix of their N_ij^k, which leaves a pair with no
        channel at zero.  The first term is below p^2 < 2^44 and the sum,
        of nonnegative terms, below r nmax p < 2^53 (the ``CapacityError``
        guard), so |diff| < 2^53 and every step is exact in float64.  Then
        diff = 0 (mod p) iff rint(diff / p) * p == diff: a multiple q p
        divides exactly to q, and conversely the product of the integers
        rint(diff / p) and p is exact below 2^53, so equality means p
        divides diff.
        """
        r = s["coeffs"].shape[0]
        nmax = int(tensor.max()) if tensor.size else 0
        if r * max(nmax, 1) * _PRIME_CAP >= 2**53:
            raise CapacityError(
                f"fusion coefficients too large: {nmax} at rank {r}"
            )
        if not np.array_equal(tensor, tensor.transpose(1, 0, 2)):
            raise ModularityError("fusion coefficients are not symmetric")
        g = self.red_growth
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
        width = len(self.points) * r
        chunk_rows = max(1, _CHUNK_ROWS_BYTES // (8 * width))
        for p in self._primes(2 * bound):
            # rows[i] = S[i, l] at every point, flattened to (npts * r)
            rows = np.ascontiguousarray(
                self._eval(s, p).transpose(1, 0, 2)
            ).reshape(r, width)
            pm = rows * rows[0] % p  # S[k,l] S[0,l] mod p
            a = 0
            while a < npairs:
                b = int(np.searchsorted(
                    gathered, gathered[a] + chunk_rows, side="right"
                )) - 1
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
                        "Verlinde eigen-relation fails near "
                        f"(i={int(iu[t])}, j={int(ju[t])})"
                    )
                a = b
