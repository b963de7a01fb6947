"""Reference: the extended-precision layer on mpmath's mpf objects.

This is nullheat._highprec's arithmetic as it was written on mp.fdot,
mp.fsum and mpf operators, kept as the oracle that the integer-mantissa
implementation must match: each primitive (dot, difference, quotient,
square root, triangular solve, Cholesky rows, LU) bit for bit.  The two
eigensolves keep the algorithm they had before _highprec formed its
inverses once: every step solves on the triangular factors.  Same pivot
order, start, stop rule and working precisions, so their float outputs
(log zeta, c_min and the float witness) equal _highprec's, while the mpf
values behind them may differ in their last bits.
"""

import mpmath as mp
import numpy as np
import scipy.linalg as sla

from nullheat.basis import positive_sign
from nullheat.errors import NumericError

DPS = 50


def rows(A):
    return A.tolist() if hasattr(A, "tolist") else A


def matvec(rows_, v):
    return [mp.fdot(row, v) for row in rows_]


def solve_lower(rows_, b):
    x = []
    for row, bi in zip(rows_, b):
        x.append((bi - mp.fdot(row, x)) / row[-1])
    return x


def flip(rows_):
    n = len(rows_)
    return [[rows_[r][c] for r in range(n - 1, c - 1, -1)] for c in range(n - 1, -1, -1)]


def solve_pair(A, B_flip, b):
    return solve_lower(B_flip, solve_lower(A, b)[::-1])[::-1]


def cholesky(A, dps=DPS):
    L = []
    with mp.workdps(dps):
        for j, a in enumerate(rows(A)):
            row = []
            for i, piv in enumerate(L):
                row.append((a[i] - mp.fdot(row, piv)) / piv[i])
            s = a[j] - mp.fsum(row, absolute=True, squared=True)
            if s < mp.eps:
                break
            row.append((a[j] - mp.fdot(row, row)) / mp.sqrt(s))
            L.append(row)
    return L


def lu(A):
    L, Ut = [], [[] for _ in A]
    for i, a in enumerate(A):
        row = []
        for j in range(i):
            row.append((a[j] - mp.fdot(row, Ut[j])) / Ut[j][j])
        L.append(row + [mp.mpf(1)])
        for j in range(i, len(A)):
            Ut[j].append(a[j] - mp.fdot(L[i], Ut[j]))
    return L, Ut


def min_pencil_eigpair(step, start, dps, max_iter=200):
    v = start
    lam_old = None
    for _ in range(max_iter):
        x, bv = step(v)
        lam = mp.fdot(v, bv) / mp.fdot(x, bv)
        nrm = mp.sqrt(mp.fsum(x, absolute=True, squared=True))
        v = [xi / nrm for xi in x]
        if lam_old is not None and abs(lam - lam_old) <= mp.mpf(10) ** (-dps + 12) * abs(lam):
            return lam, v
        lam_old = lam
    raise NumericError(f"inverse iteration: no convergence in {max_iter} steps at dps={dps}")


def smallest_eigenpair(M, max_iter=200, start=None, dps=DPS):
    with mp.workdps(dps):
        rows_ = rows(M)
        n = len(rows_)
        L = cholesky(M, dps)
        if len(L) < n:
            raise NumericError(
                "smallest_eigenpair_mp: Cholesky failed (matrix is not positive-definite)")
        L_flip = flip(L)
        v = [mp.mpf(float(s)) for s in start] if (
            start is not None and np.all(np.isfinite(start))) else [mp.mpf(1)] * n
        nrm = mp.sqrt(mp.fsum(v, absolute=True, squared=True))
        lam, v = min_pencil_eigpair(lambda u: (solve_pair(L, L_flip, u), u),
                                    [vi / nrm for vi in v], dps, max_iter)
        return lam, positive_sign(np.array([float(vi) for vi in v]))


def zeta_dps(mus, t):
    spread = 2.0 * t * float(mus[0] - mus[-1])
    return int(max(40, spread / np.log(10.0) + 30))


def generalized_min_eig(mus, modes, m_omega, t):
    dps = zeta_dps(mus, t)
    n = len(mus)
    modes = np.asarray(modes, dtype=float)
    perm = np.arange(n)
    for i, p in enumerate(sla.lu_factor(modes, check_finite=False)[1]):
        perm[[i, p]] = perm[[p, i]]
    with mp.workdps(dps):
        Q, M = ([[mp.mpf(float(x)) for x in row] for row in a] for a in (modes, m_omega))
        C = cholesky(M, dps)
        if len(C) < n:
            raise NumericError(
                "generalized_min_eig_mp: subdomain mass matrix not positive-definite "
                f"at working precision (dps={dps})")
        L, Ut = lu([Q[p] for p in perm])
        C_flip, L_flip, Ut_flip = flip(C), flip(L), flip(Ut)
        e = [mp.e ** (mp.mpf(float(mu)) * mp.mpf(t)) for mu in mus]
        inv_perm = np.argsort(perm)

        def apply_e_inv(v):
            y = solve_pair(L, Ut_flip, [v[p] for p in perm])
            z = solve_pair(Ut, L_flip, [yi / ei for ei, yi in zip(e, y)])
            return [z[p] for p in inv_perm]

        def step(v):
            mv = matvec(M, v)
            return apply_e_inv(solve_pair(C, C_flip, apply_e_inv(mv))), mv

        theta, _ = min_pencil_eigpair(step, [mp.mpf(1)] * n, dps)
        if theta <= 0:
            raise NumericError(
                "generalized_min_eig_mp: nonpositive eigenvalue at working precision; "
                f"increase dps (got {float(theta):.3e} at dps={dps})")
        return float(mp.log(theta) / 2)
