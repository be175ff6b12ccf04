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

S's Galois symmetry sigma_a(S) = Q_a S, for a signed permutation Q_a
(Coste-Gannon, Phys. Lett. B 323, 1994), is found and proven in one exact
step on the residues of S's distinct values (``verify_galois``), for the
generators of (Z/N)^x (``galois_generators``; sigma_ab = sigma_a sigma_b
gives every a); conjugation is the case a = -1, whose permutation is the
charge conjugation C.  With it, S^2 = C and the Verlinde relation, whose
size grows with the number of label pairs, are decided at one point per
prime: ``MatProver.verify_product`` and ``verify_verlinde`` have the
argument.  The Verlinde tensor that ``verify_verlinde`` proves is guessed
from the residues of S at one prime (``guess_verlinde``), so no float
approximation of S is made; both hold it as channel rows (i, j, k, N_ij^k).

A matrix is given as its K distinct values and an integer table of every
entry's value (``distinct_values``; ``ModularData`` stores S so), and
packed as one canonical coefficient row per value over one denominator.
The one evaluation, ``MatProver._values``, reads the K rows, and a proof
gathers entries through the table one point at a time, so no evaluation
of every entry is kept.  Symmetry only permutes entries, so it is decided
on the index table alone: index equality is value equality.  S^2 = C is
proven against the permutation C directly, whose evaluation needs no pack.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .cyclo import _reduction_table, euler_phi, factorize, galois_generators
from .errors import CapacityError, ModularityError

_PRIME_CAP = 1 << 22  # keeps every float64 intermediate below 2^53
# most r x r x phi(N) cells of a matrix to prove.  No evaluation of every
# entry is kept (coefficients are K x phi(N), each prime's evaluation
# phi(N) x K), so the bound limits the size of an S built or read.  Where
# ``validate`` runs, on a builder's own S or a datum read from JSON, it also
# limits the work of TSTST = S, an r x r product at each of the phi(N)
# points per prime.  A Deligne product is proven by its factors and runs no
# TSTST, but it is held to the same bound, so its JSON can be read back
# and proven
MAX_CELLS = 1 << 24


def check_cells(rows: int, cols: int, phi: int) -> None:
    """Refuse more than ``MAX_CELLS`` entry-by-coefficient cells of a matrix
    before any entry is read."""
    if rows * cols * phi > MAX_CELLS:
        raise CapacityError(f"{rows} x {cols} entries of {phi} coefficients exceed "
                            f"{MAX_CELLS} cells, the size limit for modular data")


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))  # n < 2^22


def distinct_values(rows) -> tuple[tuple, np.ndarray]:
    """The distinct values of a CycNum matrix, first seen first, told apart
    by the canonical key of each entry at its own conductor, and the
    read-only table of each entry's position among them: the packed form
    ``ModularData`` stores S in.  Entries that are one object share a value,
    so the key is computed once per object."""
    pos: dict[tuple, int] = {}  # a new key is given len(pos) before it is added
    values = []
    at: dict[int, int] = {}  # id of an entry object -> its position
    for x in {id(x): x for row in rows for x in row}.values():  # first seen first
        at[id(x)] = k = pos.setdefault(x.key_at(x.n), len(pos))
        if k == len(values):
            values.append(x)
    index = np.array([[at[id(x)] for x in row] for row in rows], dtype=np.intp)
    index.flags.writeable = False
    return tuple(values), index


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


def _c_order(rows: np.ndarray) -> np.ndarray:
    """Rows (i, j, k, N) stably sorted by (i r + j) r + k, r = 1 + the largest index."""
    r = int(rows[:, :3].max(initial=0)) + 1
    return rows[np.argsort((rows[:, 0] * r + rows[:, 1]) * r + rows[:, 2], kind="stable")]


def _signed_match(rows: np.ndarray, where: dict, negate) -> tuple[np.ndarray, np.ndarray]:
    """For each row, its position in ``where`` (keyed by row bytes) and
    sign 1, else the position of ``negate(row)`` and sign -1, else sign 0."""
    pos = np.zeros(len(rows), dtype=np.intp)
    sign = np.zeros(len(rows), dtype=np.int64)
    for t, row in enumerate(rows):
        for e, cand in ((1, row), (-1, negate(row))):
            if (k := where.get(cand.tobytes())) is not None:
                pos[t], sign[t] = k, e
                break
    return pos, sign


class MatProver:
    """Verifies products of CycNum matrices at one common conductor."""

    def __init__(self, conductor: int):
        self.n = conductor
        self.phi = euler_phi(conductor)
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

    def pack(self, values, index) -> dict:
        """Reduce a CycNum matrix packed as its K pairwise-distinct values and
        the read-only r x r ``index`` of each entry among them (as from
        ``distinct_values``) to one cleared denominator: the values' integer
        coefficients as a K x phi float64 array (exact: the cap keeps each
        dot product with residues below ``_PRIME_CAP`` under 2^53), the
        index, the denominator, the largest L1 norm and the rank."""
        check_cells(*index.shape, self.phi)
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
                "rank": len(index)}

    # -- primes and evaluation ----------------------------------------------

    def _prime_pool(self):
        """The primes p = 1 (mod N) from _PRIME_CAP / 2 up, in order, each
        found once and cached."""
        for k in itertools.count():
            if k == len(self._prime_cache):
                p = self._prime_cache[-1] + self.n if k else (_PRIME_CAP // 2) // self.n * self.n + 1
                while p < _PRIME_CAP and not _is_prime(p):
                    p += self.n
                if p >= _PRIME_CAP:
                    raise ModularityError("prime pool exhausted")
                self._prime_cache.append(p)
            yield self._prime_cache[k]

    def _primes(self, need: int) -> list[int]:
        """The fewest primes of the pool, in order, whose product exceeds
        ``need``."""
        out, have, pool = [], 1, self._prime_pool()
        while have <= need:
            out.append(next(pool))
            have *= out[-1]
        return out

    def _values(self, s: dict, p: int, at=slice(None)) -> np.ndarray:
        """Residues mod p of den v_k for the K distinct values v_k of a
        packed matrix, at every primitive point or at the point positions
        ``at``: shape (points, K).  An entry's residue is gathered through
        s["index"]."""
        pts = np.asarray(self.points)[at]
        ev = _root_powers(p, self.n)[np.outer(pts, np.arange(self.phi)) % self.n] @ s["coeffs"].T
        ev %= p
        return ev

    def _galois_proven(self, s: dict, proof: str) -> dict:
        """s["galois"], once it holds every generator of (Z/N)^x."""
        proven = s.get("galois", {})
        for a in galois_generators(self.n):
            if a not in proven:
                raise ModularityError(f"S is not proven Galois-symmetric under zeta -> "
                                      f"zeta^{a}, which the {proof} proof needs")
        return proven

    # -- the identities -------------------------------------------------------

    def verify_symmetric(self, a: dict) -> None:
        """S == S^T, decided on the index of distinct values."""
        idx = a["index"]
        bad = np.argwhere(np.tril(idx != idx.T, -1))
        if len(bad):
            i, j = (int(x) for x in bad[0])
            raise ModularityError(f"S is not symmetric at ({i}, {j})")

    def verify_product(self, s: dict, perm) -> None:
        """(den S)^2 == den^2 C for the permutation matrix C = perm, decided
        at the first primitive point w of each prime.

        S must be proven symmetric, with conj(S) = CS and sigma_a(S) = Q_a S
        for every generator a (``verify_galois``; else ``ModularityError``).
        First, on integers, each Q_a must commute with C: pi_a C = C pi_a
        and eps_a C = eps_a.  As sigma_a commutes with complex conjugation,
        C Q_a S = conj(sigma_a(S)) = Q_a C S, so a Q_a that does not commute
        with C shows S singular.  Otherwise, Q_a being orthogonal and
        sigma_a(S) = Q_a S = S Q_a^T, sigma_a(S^2 - C) = Q_a (S^2 - C) Q_a^T
        permutes the entries of S^2 - C up to sign: if they vanish mod p at
        w, they vanish at every w^a and lie in p Z[zeta_N].  C is not packed:
        it evaluates to den^2 at (i, perm[i]) and 0 elsewhere.  The reduced
        difference has L1 norm at most r l1^2 g + den^2.
        """
        perm = np.asarray(perm)
        for a, (pi, eps) in self._galois_proven(s, "S^2 = C").items():
            if not (np.array_equal(pi[perm], perm[pi]) and np.array_equal(eps[perm], eps)):
                raise ModularityError(
                    f"S^2 = C identity fails: S is singular, as Q_{a} does not commute with C"
                )
        den = s["den"]
        r = s["rank"]
        bound = r * s["l1"] ** 2 * self.red_growth + den**2
        for p in self._primes(2 * bound):
            e = self._values(s, p, [0])[0][s["index"]]
            rhs = np.zeros((r, r))
            rhs[np.arange(r), perm] = den * den % p
            if (_matmul_mod(e, e, p) != rhs).any():
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
            for v, t in zip(self._values(s, p), _root_powers(p, self.n)[idx]):
                e = v[s["index"]]
                st = e * t  # S T   (columns scaled)
                st %= p
                tst = st * t[:, None]  # T S T (then rows)
                tst %= p
                if not np.array_equal(_matmul_mod(tst, st, p), e * (s["den"] % p) % p):
                    raise ModularityError("TSTST = S identity fails")

    def verify_galois(self, s: dict, gens) -> None:
        """Find and prove sigma_a(S) = Q_a S for each a of ``gens`` on a
        symmetric S (checked first): row i of sigma_a(S) is eps_a(i) times
        row pi_a(i) of S, eps_a = +-1.  The proven (pi_a, eps_a) go to
        s["galois"].  For a = -1 this is conj(S) = CS: eps must be 1, and
        pi_-1 is the charge conjugation C.

        One exact step on the K distinct values, whose residues at every
        point of every prime of the bound form a K x (primes phi) table.
        sigma_a(den v_k) - eps den v_k' has L1 norm at most l1 (g + 1), so
        rows are equal iff the values are, and sigma_a(v_k), at w^j the
        value v_k at w^(a j), is eps v_k' iff its point-permuted row is the
        row of k', or that row negated mod p.  Coded 0 for 0 and opposite
        for v and -v, a row of sigma_a(S) is then a row of S or of -S iff
        its codes are.  A value or row without a match refutes the symmetry,
        and a pi_a that is not a bijection shows S singular: the one-point
        proofs need pi_a to permute the labels.
        """
        self.verify_symmetric(s)
        primes = self._primes(2 * s["l1"] * (self.red_growth + 1))
        table = np.hstack([self._values(s, p).T for p in primes]).astype(np.int64)
        mods = np.repeat(np.array(primes, dtype=np.int64), self.phi)
        row_of = {row.tobytes(): k for k, row in enumerate(table)}
        ks = np.arange(len(table))
        neg = np.array([row_of.get((-row % mods).tobytes(), len(ks)) for row in table])
        code = np.where(ks < neg, ks + 1, np.where(ks > neg, -neg - 1, 0))
        row_at = {row.tobytes(): j for j, row in reversed(list(enumerate(code[s["index"]])))}
        offsets = np.arange(len(primes))[:, None] * self.phi
        for a in gens:
            img, sign = _signed_match(table[:, (offsets + self._point_perm(a)).ravel()],
                                      row_of, lambda row: -row % mods)
            perm, eps = _signed_match((sign * code[img])[s["index"]], row_at, np.negative)
            if not (sign.all() and eps.all()) or (a == self.n - 1 and (eps != 1).any()):
                raise ModularityError("S is not unitary (conj(S) != CS)" if a == self.n - 1
                                      else f"S is not Galois-symmetric under zeta -> zeta^{a}")
            if len(set(perm.tolist())) != len(perm):
                raise ModularityError(f"S is singular: two rows of its conjugate under "
                                      f"zeta -> zeta^{a} are equal up to sign")
            s.setdefault("galois", {})[a] = (perm, eps)

    def guess_verlinde(self, s: dict) -> np.ndarray:
        """The Verlinde tensor N_ij^k = sum_l S_il S_jl conj(S_kl) / S_0l of
        a symmetric, unitary S, guessed from residues at the first prime p
        of the pool where den and every S_0l are nonzero mod p, as the rows
        (i, j, k, N_ij^k) of its nonzero entries in C order.

        One read of two points gives e = den S at the first point w and
        ebar = den conj(S) at w^(N-1) = w^-1, as conj is zeta -> zeta^-1;
        then den^2 N_ij^k = sum_l e_il e_jl ebar_kl / e_0l mod p, one
        product per row i over the pairs j >= i, lifted to (-p/2, p/2]; its
        nonzeros are kept, mirrored to j < i and sorted once.  The lift is N
        where |N_ij^k| < p/2, and a guess only: ``verify_verlinde`` decides.
        """
        r = s["rank"]
        for p in self._prime_pool():
            e, ebar = self._values(s, p, [0, len(self.points) - 1])[:, s["index"]]
            if s["den"] % p and e[0].all():
                break
        scale = pow(s["den"], -2, p)
        inv0 = np.array([pow(int(x), -1, p) * scale % p for x in e[0]], dtype=np.float64)
        b = (ebar * inv0 % p).T  # b[l, k] = ebar_kl / (den^2 e_0l) mod p
        upper = []
        for i in range(r):
            prods = e[i] * e[i:]
            prods %= p
            block = _matmul_mod(prods, b, p)
            jj, kk = np.nonzero(block)
            n = block[jj, kk].astype(np.int64)
            n[n > p // 2] -= p
            upper.append(np.column_stack([np.full_like(jj, i), jj + i, kk, n]))
        upper = np.concatenate(upper)
        lower = upper[upper[:, 1] > upper[:, 0]][:, [1, 0, 2, 3]]  # (j, i, k, N) for j > i
        return _c_order(np.concatenate([upper, lower]))

    def verify_verlinde(self, s: dict, tensor: np.ndarray) -> None:
        """sum_k N_ij^k S[k,l] S[0,l] == S[i,l] S[j,l] for all i, j, l,
        decided at one primitive point w per prime, for ``guess_verlinde``'s
        channel rows (i, j, k, N_ij^k) of ``tensor``.

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

        The rows must equal their (j, i)-swapped copy, sorted (checked), so
        the pairs i <= j are proven a slice of rows i at a time, summing
        their channels.
        From residues in [0, p), S[i,l] S[j,l] < p^2 and sum_k N_ij^k
        (S[k,l] S[0,l] mod p) < r nmax p < 2^53 (the ``CapacityError``
        guard), so the difference is exact, and so is rint(diff / p) p,
        which equals diff iff p divides it.
        """
        r = s["rank"]
        nmax = int(tensor[:, 3].max()) if len(tensor) else 0
        if r * max(nmax, 1) * _PRIME_CAP >= 2**53:
            raise CapacityError(
                f"fusion coefficients too large: {nmax} at rank {r}"
            )
        if not np.array_equal(tensor, _c_order(tensor[:, [1, 0, 2, 3]])):
            raise ModularityError("fusion coefficients are not symmetric")
        self._galois_proven(s, "Verlinde")
        g = self.red_growth
        bound = r * nmax * s["l1"] ** 2 * g + s["l1"] ** 2 * g
        pair = tensor[:, 0] * r + tensor[:, 1]  # the pairs (i, j >= i) are rows lo[i]:hi[i]
        lo = np.searchsorted(pair, np.arange(r) * (r + 1))
        hi = np.searchsorted(pair, np.arange(1, r + 1) * r)
        for p in self._primes(2 * bound):
            ev = self._values(s, p, [0])[0][s["index"]]
            pm = ev * ev[0] % p  # S[k,l] S[0,l] mod p
            for i in range(r):
                _, j, k, n = tensor[lo[i] : hi[i]].T
                jj = j - i  # the channels k of the pairs (i, i + jj)
                diff = ev[i] * ev[i:]
                if len(jj):
                    first = np.flatnonzero(np.diff(jj, prepend=-1))
                    chans = pm[k] * n[:, None]
                    diff[jj[first]] -= np.add.reduceat(chans, first)
                q = np.rint(diff / p)
                q *= p
                bad = (q != diff).any(axis=1)
                if bad.any():
                    raise ModularityError(
                        "Verlinde eigen-relation fails near "
                        f"(i={i}, j={i + int(np.flatnonzero(bad)[0])})"
                    )
