"""The all-points checks that ``MatProver`` ran before it derived S's
Galois symmetry exactly and decided S^2 = C at one point per prime, kept as
oracles: every primitive point of every prime, on the evaluation of every
entry.  ``all_points_galois`` checks a given (pi_a, eps_a) for each a;
``all_points_product`` checks S^2 = C.  Both raise the messages the prover
raises."""

import numpy as np

from tycat.errors import ModularityError
from tycat.modcheck import _matmul_mod


def all_points(prover, s: dict, p: int) -> np.ndarray:
    """S mod p at every primitive point, (points, r, r)."""
    return prover._values(s, p)[:, s["index"]]


def all_points_galois(prover, s: dict, pairs: dict) -> None:
    """sigma_a(S)[i, l] == eps_a(i) S[pi_a(i), l] for each a -> (pi_a,
    eps_a) of ``pairs``: sigma_a(S) evaluates to ev[point_perm(a)], and the
    reduced difference has L1 norm at most l1 (g + 1)."""
    bound = s["l1"] * (prover.red_growth + 1)
    for p in prover._primes(2 * bound):
        ev = all_points(prover, s, p)
        for a, (perm, eps) in pairs.items():
            diff = ev[:, perm, :] * np.asarray(eps)[:, None] - ev[prover._point_perm(a)]
            if not (diff % p == 0).all():
                raise ModularityError(
                    "S is not unitary (conj(S) != CS)" if a == prover.n - 1
                    else f"S is not Galois-symmetric under zeta -> zeta^{a}"
                )


def all_points_product(prover, s: dict, perm) -> None:
    """(den S)^2 == den^2 C for the permutation C = perm at every point;
    the reduced difference has L1 norm at most r l1^2 g + den^2."""
    den, r = s["den"], s["rank"]
    bound = r * s["l1"] ** 2 * prover.red_growth + den**2
    for p in prover._primes(2 * bound):
        rhs = np.zeros((r, r))
        rhs[np.arange(r), perm] = den * den % p
        if any((_matmul_mod(e, e, p) != rhs).any() for e in all_points(prover, s, p)):
            raise ModularityError("S^2 = C identity fails")
