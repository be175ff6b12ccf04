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
at any inner dimension.

The Verlinde relation, the one identity whose size grows with the number
of label pairs, is decided at one point per prime, once S is proven
Galois-symmetric for generators of (Z/N)^x (``galois_generators``;
sigma_ab = sigma_a sigma_b gives every a), all guessed from one float
product (``MatProver._galois_guess``) and proven by one ``verify_galois``
call; conjugation is the case a = -1.  ``MatProver.verify_verlinde`` has
the argument.

A matrix is packed as its K distinct values, one canonical coefficient
row each over one denominator, and an integer table of every entry's
value (``distinct_values``); evaluation reads K rows and gathers.  So
identities that only permute entries (symmetry, conjugation by a
permutation) are decided on the index table alone: index equality is
value equality.  S^2 = C is proven against the permutation C directly,
whose evaluation needs no pack.
"""

from __future__ import annotations

import math

import numpy as np

from .cyclo import _phi_deg, _reduction_table, factorize
from .errors import CapacityError, ModularityError

_PRIME_CAP = 1 << 22  # keeps every float64 intermediate below 2^53
# most r x r x phi(N) cells of a matrix to prove: one float64 per entry and
# primitive point in each cached evaluation, 134 MB at the cap (coefficients
# are only K x phi(N)); TY(Z17), with 10.7M cells, peaks at 201 MB RSS
MAX_CELLS = 1 << 24


def check_cells(rows: int, cols: int, phi: int) -> None:
    """Refuse more than ``MAX_CELLS`` evaluation cells before they exist."""
    if rows * cols * phi > MAX_CELLS:
        raise CapacityError(f"{rows} x {cols} entries of {phi} coefficients exceed "
                            f"{MAX_CELLS} cells, the size limit for modular data")


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))  # n < 2^22


def galois_generators(n: int) -> list[int]:
    """Generators of (Z/n)^x, -1 first: a primitive root of each odd prime
    power q || n and 5 mod q = 2^k for k >= 3, each lifted to 1 modulo
    n / q by the CRT.  -1 mod 2^k (1 elsewhere) needs no lift of its own:
    it is -1 times the lifts of -1 mod each odd q, powers of their roots."""
    gens = [n - 1]
    for p, k in factorize(n).items():
        q = p**k
        if p > 2:
            orders = [q // p * (p - 1) // f for f in {*factorize(p - 1), p} if f != p or k > 1]
            local = [next(x for x in range(2, q)
                          if x % p and all(pow(x, e, q) != 1 for e in orders))]
        else:
            local = [5] if k >= 3 else []
        m = n // q
        gens += [(1 + (x - 1) * m * pow(m, -1, q)) % n for x in local]
    return list(dict.fromkeys(gens))


def distinct_values(rows) -> tuple[list, np.ndarray]:
    """The distinct values of a CycNum matrix, first seen first, told apart
    by the canonical key of each entry at its own conductor, and the
    read-only table of each entry's position among them.  Entries that are
    one object share a value, so the key is computed once per object."""
    pos: dict[tuple, int] = {}  # a new key is given len(pos) before it is added
    values = []
    at: dict[int, int] = {}  # id of an entry object -> its position
    for x in {id(x): x for row in rows for x in row}.values():  # first seen first
        at[id(x)] = k = pos.setdefault(x.key_at(x.n), len(pos))
        if k == len(values):
            values.append(x)
    index = np.array([[at[id(x)] for x in row] for row in rows], dtype=np.intp)
    index.flags.writeable = False
    return values, index


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
    return np.array([pow(w, k, p) for k in range(n)], dtype=np.float64)


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
        self._pt_index = {j: k for k, j in enumerate(self.points)}
        # growth factor of reduction mod Phi_N, for coefficient bounds
        table = _reduction_table(conductor)
        self.red_growth = max(
            sum(abs(c) for c in row.values()) for row in table
        )
        self._prime_cache: list[int] = []

    def _point_perm(self, a: int) -> np.ndarray:
        """Indices of the points w^(a j) for the points w^j, in order."""
        return np.array([self._pt_index[a * j % self.n] for j in self.points])

    # -- matrix registration ------------------------------------------------

    def pack(self, rows) -> dict:
        """Reduce a CycNum matrix to its K distinct values over one cleared
        denominator: their integer coefficients as a K x phi float64 array
        (exact: the cap keeps each dot product with residues below
        ``_PRIME_CAP`` under 2^53), the read-only ``index`` of every entry
        among them, the denominator, the largest L1 norm, and a per-prime
        evaluation cache."""
        check_cells(len(rows), len(rows[0]), self.phi)
        values, index = distinct_values(rows)
        den = math.lcm(*(x.den for x in values))
        coeffs = np.zeros((len(values), self.phi))
        l1_max = 0
        cap = (2**53 - 1) // (_PRIME_CAP * self.phi)
        for row, x in zip(coeffs, values):
            if x.n != self.n:
                raise ModularityError("matrix entry at a foreign conductor")
            scale = den // x.den
            for e, c in x.num.items():
                if abs(v := c * scale) > cap:
                    raise CapacityError(f"coefficients too large: {abs(v)} exceeds {cap}, "
                                        "the bound for exact float64 evaluation")
                row[e] = v
            l1_max = max(l1_max, scale * sum(map(abs, x.num.values())))
        return {"coeffs": coeffs, "index": index, "den": den, "l1": l1_max,
                "rank": len(rows), "evals": {}}

    # -- primes and evaluation ----------------------------------------------

    def _primes(self, need: int) -> list[int]:
        """The fewest primes p = 1 (mod N) from _PRIME_CAP / 2 up, in order,
        whose product exceeds ``need``; found once and cached."""
        out, have = [], 1
        while have <= need:
            if len(out) == len(self._prime_cache):
                p = out[-1] + self.n if out else (_PRIME_CAP // 2) // self.n * self.n + 1
                while p < _PRIME_CAP and not _is_prime(p):
                    p += self.n
                if p >= _PRIME_CAP:
                    raise ModularityError("prime pool exhausted")
                self._prime_cache.append(p)
            out.append(self._prime_cache[len(out)])
            have *= out[-1]
        return out

    def _eval(self, mat: dict, p: int) -> np.ndarray:
        """Evaluations mod p at every primitive point: shape (npts, nr, nc),
        gathered from the K distinct values' (npts, K)."""
        if p in mat["evals"]:
            return mat["evals"][p]
        idx = np.outer(self.points, np.arange(self.phi)) % self.n
        ev = _root_powers(p, self.n)[idx] @ mat["coeffs"].T
        ev %= p
        mat["evals"][p] = ev = np.take(ev, mat["index"], axis=1)  # C-contiguous, as indexing is not
        return ev

    # -- the identities -------------------------------------------------------

    def verify_symmetric(self, a: dict) -> None:
        """S == S^T, decided on the index of distinct values."""
        idx = a["index"]
        bad = np.argwhere(np.tril(idx != idx.T, -1))
        if len(bad):
            i, j = (int(x) for x in bad[0])
            raise ModularityError(f"S is not symmetric at ({i}, {j})")

    def verify_permuted(self, a: dict, rows, cols, what: str) -> None:
        """A[rows[i], cols[j]] == A[i, j], decided on the index of distinct
        values (CSC = S for a permutation C is rows = cols = C)."""
        idx = a["index"]
        if not np.array_equal(idx[np.ix_(rows, cols)], idx):
            raise ModularityError(f"{what} fails")

    def verify_product(self, s: dict, perm) -> None:
        """(den S)^2 == den^2 C for the permutation matrix C = perm.

        C is never packed: at every point its scaled evaluation is den^2
        at (i, perm[i]) and 0 elsewhere, one r x r array per prime.  The
        reduced difference has L1 norm at most r l1^2 g + den^2.  Proven one
        point at a time.
        """
        den = s["den"]
        r = s["rank"]
        bound = r * s["l1"] ** 2 * self.red_growth + den**2
        for p in self._primes(2 * bound):
            rhs = np.zeros((r, r))
            rhs[np.arange(r), perm] = den * den % p
            if any((_matmul_mod(e, e, p) != rhs).any() for e in self._eval(s, p)):
                raise ModularityError("S^2 = C identity fails")

    def verify_tstst(self, s: dict, t_exps) -> None:
        """TSTST = S, proven as T (den S) T (den S) T == den (den S) for the
        packed S and T_i = zeta_N^(t_exps[i]), which is not packed: at the
        point w^j it evaluates to w^(j t_exps[i]).  As monomials the T entries
        add no L1 norm, so the left side has L1 norm at most r l1^2 in
        Z[x]/(x^N - 1), reduced once at the end, and the reduced difference
        has L1 norm at most r l1^2 g + den l1.  Computed one point at a time
        as (T S T) @ (S T): X = S * t[col], then t[row] * X, then one matrix
        product.
        """
        r = s["rank"]
        bound = r * s["l1"] ** 2 * self.red_growth + s["den"] * s["l1"]
        idx = np.outer(self.points, t_exps) % self.n  # (npts, r)
        for p in self._primes(2 * bound):
            for e, t in zip(self._eval(s, p), _root_powers(p, self.n)[idx]):
                st = e * t  # S T   (columns scaled)
                st %= p
                tst = st * t[:, None]  # T S T (then rows)
                tst %= p
                if not np.array_equal(_matmul_mod(tst, st, p), e * (s["den"] % p) % p):
                    raise ModularityError("TSTST = S identity fails")

    def verify_galois(self, s: dict, guesses: dict) -> None:
        """sigma_a(S) == S P_a for each a -> (pi_a, eps_a) of ``guesses``,
        P_a[pi_a(l), l] = eps_a(l), proven by rows for S proven symmetric:
        sigma_a(S)[i, l] = eps_a(i) S[pi_a(i), l].  sigma_a(S) evaluates to
        ev[point_perm(a)]; the reduced difference has L1 norm at most
        l1 (g + 1).  From residues in [0, p), eps ev[pi_a] - ev[point_perm(a)]
        lies in (-2p, p), so it is 0 mod p iff it is 0 or -p.  a = -1 with
        pi = C and eps = 1 is conj(S) = CS.  Proven pairs go to s["galois"].
        """
        bound = s["l1"] * (self.red_growth + 1)
        for p in self._primes(2 * bound):
            ev = self._eval(s, p)
            for a, (perm, eps) in guesses.items():
                for t, u in enumerate(self._point_perm(a)):  # r x r at a time
                    diff = ev[t, perm, :] * eps[:, None]
                    diff -= ev[u]
                    if not ((diff == 0) | (diff == -p)).all():
                        raise ModularityError(
                            "S is not unitary (conj(S) != CS)" if a == self.n - 1
                            else f"S is not Galois-symmetric under zeta -> zeta^{a}"
                        )
        s.setdefault("galois", {}).update(guesses)

    def _galois_guess(self, s: dict, gens) -> tuple[np.ndarray, dict]:
        """S in float and (pi_a, eps_a) for each a of ``gens``, read off
        M = conj(S) sigma_a(S) = S^-1 sigma_a(S), the signed permutation
        matrix M[pi_a(l), l] = eps_a(l) when S is unitary and symmetric (for
        a = -1, M = conj(S^2) and pi_a is C).  The distinct values of S and
        of every sigma_a(S) come in float from one BLAS product, gathered
        through the index, and every M from one more; S is returned as a
        copy, so that the rest is freed."""
        r, k = s["rank"], len(gens)
        ang = np.outer(np.arange(self.phi), [1, *gens]) % self.n * (2 * np.pi / self.n)
        vals = s["coeffs"] @ np.hstack([np.cos(ang), np.sin(ang)])
        z = np.take((vals[:, : k + 1] + 1j * vals[:, k + 1 :]) / s["den"], s["index"], axis=0)
        sf = z[:, :, 0].copy()
        m = (sf.conj() @ z[:, :, 1:].reshape(r, r * k)).reshape(r, r, k)
        del z
        cols = np.arange(r)
        out = {}
        for t, a in enumerate(gens):
            perm = np.abs(m[:, :, t]).argmax(axis=0)
            val = m[perm, cols, t]
            eps = np.rint(val.real)
            if (np.abs(eps) != 1).any() or (np.abs(val - eps) >= 1e-6).any() or (
                len(set(perm.tolist())) != r
            ):
                raise ModularityError(f"S is not Galois-symmetric under zeta -> zeta^{a}: "
                                      "conj(S) sigma(S) is not a signed permutation")
            out[a] = (perm, eps)
        return sf, out

    def _eval_point(self, s: dict, p: int) -> np.ndarray:
        """S mod p at the first primitive point alone, (nr, nc)."""
        powers = _root_powers(p, self.n)[np.arange(self.phi) * self.points[0] % self.n]
        return (s["coeffs"] @ powers % p)[s["index"]]

    def verify_verlinde(self, s: dict, tensor: np.ndarray) -> None:
        """sum_k N_ij^k S[k,l] S[0,l] == S[i,l] S[j,l] for all i, j, l,
        decided at one primitive point w per prime.

        Valid S is Galois-symmetric, sigma_a(S_il) = eps_a(l) S_i,pi_a(l)
        with eps_a = +-1 (Coste-Gannon, Phys. Lett. B 323, 1994; de
        Boer-Goeree, Commun. Math. Phys. 139, 1991): the theorem holds for
        every S with an integer Verlinde tensor, so an S without the
        symmetry fails this identity anyway.  It is proven for generators
        of (Z/N)^x by ``verify_galois``, which must have run on s for each
        of them (else ``ModularityError``), and sigma_ab = sigma_a sigma_b
        extends it to every a.  With integer N and eps^2 = 1, sigma_a maps
        D_ij,l = S_il S_jl - sum_k N_ij^k S_kl S_0l to D_ij,pi_a(l), so each
        pair's set {D_ij,l : l} is Galois-stable: if it vanishes mod p at w,
        its value at w^a is that of D_ij,pi_a(l) at w, 0 too.  So D lies in
        every prime of Z[zeta_N] above p, whose intersection is p Z[zeta_N],
        and the primes' product above twice the coefficient bound gives
        D = 0; the first pair to fail at w is the first to fail at any
        point.  Each prime is evaluated at w alone.

        The tensor must be symmetric in (i, j) (checked), so the pairs
        i <= j are proven one row i at a time, summing their channels.
        From residues in [0, p), S[i,l] S[j,l] < p^2 and sum_k N_ij^k
        (S[k,l] S[0,l] mod p) < r nmax p < 2^53 (the ``CapacityError``
        guard), so the difference is exact, and so is rint(diff / p) p,
        which equals diff iff p divides it.
        """
        r = s["rank"]
        nmax = int(tensor.max()) if tensor.size else 0
        if r * max(nmax, 1) * _PRIME_CAP >= 2**53:
            raise CapacityError(
                f"fusion coefficients too large: {nmax} at rank {r}"
            )
        if not np.array_equal(tensor, tensor.transpose(1, 0, 2)):
            raise ModularityError("fusion coefficients are not symmetric")
        proven = s.get("galois", {})
        missing = [a for a in galois_generators(self.n) if a not in proven]
        if missing:
            raise ModularityError(
                f"S is not proven Galois-symmetric under zeta -> zeta^{missing[0]}, "
                "which the Verlinde proof needs"
            )
        g = self.red_growth
        bound = r * nmax * s["l1"] ** 2 * g + s["l1"] ** 2 * g
        for p in self._primes(2 * bound):
            ev = self._eval_point(s, p)
            pm = ev * ev[0] % p  # S[k,l] S[0,l] mod p
            for i in range(r):
                jj, kk = np.nonzero(tensor[i, i:])  # the channels k of the pairs (i, i + jj)
                diff = ev[i] * ev[i:]
                if len(jj):
                    first = np.flatnonzero(np.diff(jj, prepend=-1))
                    chans = pm[kk] * tensor[i, i + jj, kk][:, None]
                    diff[jj[first]] -= np.add.reduceat(chans, first)
                q = np.rint(diff / p)
                q *= p
                bad = (q != diff).any(axis=1)
                if bad.any():
                    raise ModularityError(
                        "Verlinde eigen-relation fails near "
                        f"(i={i}, j={i + int(np.argmax(bad))})"
                    )
