"""Extended-precision (mpmath) eigenpairs below the float64 floor.

The packet constant and the left-inverse constant zeta(t) rest on eigenvalues
that decay like exp(-c n) and exp(-lambda_N t), below double precision's
eps * ||A|| cancellation floor.  Each is the smallest eigenvalue of an SPD
pencil A v = theta B v, found by one primitive, _min_pencil_eigpair: inverse
iteration v <- A^{-1} B v with triangular solves on mp Cholesky (and LU)
factors.  Its eigenvalue estimate v^T B v / x^T B v reuses the products of
the step x = A^{-1} B v, so no step forms A v; the estimate lags the
iterate by one step.  The pencils:

* packet constant: (M, I), M a leading block of the restricted Gram matrix.
  A Cholesky factor's leading rows factor its leading blocks, so one factor
  serves a sweep of cutoffs.
* zeta(t)^2: (E M E, M), E = Q diag(e^{mu t}) Q^T from the float64
  eigendecomposition taken as exact; A^{-1} B = E^{-1} M^{-1} E^{-1} M with
  E^{-1} = Q^{-T} diag(e^{-mu t}) Q^{-1} from an mp LU of Q.  Not
  Q diag(e^{-mu t}) Q^T: the float Q is orthogonal only to rounding, which
  e^{-mu_N t} magnifies past theta itself.
* kappa_T, later: 1 / theta_min of (G_T, e^{2LT}).
"""

import numpy as np
import mpmath as mp
import scipy.linalg as sla

from .basis import gram_closed_form, positive_sign
from .errors import NumericError

_mp_sin = np.frompyfunc(mp.sin, 1, 1)
_DPS = 50  # working precision of the packet-constant routines


def mass_matrix_mp(n, lo, hi, ell):
    """Restricted Gram matrix as an n x n object array of mpf."""
    with mp.workdps(_DPS):
        return gram_closed_form(n, mp.mpf(lo), mp.mpf(hi), mp.mpf(ell),
                                sin=_mp_sin, pi=+mp.pi, dtype=object)


def _rows(A):
    # an mp.matrix, an object array of mpf, or already a list of rows
    return A.tolist() if hasattr(A, "tolist") else A


def _matvec(rows, v):
    return [mp.fdot(row, v) for row in rows]


def _solve_lower(rows, b):
    # T x = b for lower-triangular T by rows (row i holds T[i][:i+1]);
    # mp.fdot pairs row i with the i entries solved so far
    x = []
    for row, bi in zip(rows, b):
        x.append((bi - mp.fdot(row, x)) / row[-1])
    return x


def _flip(rows):
    # J T^T J (J reverses the order) by rows: lower triangular again
    n = len(rows)
    return [[rows[r][c] for r in range(n - 1, c - 1, -1)] for c in range(n - 1, -1, -1)]


def _solve_pair(A, B_flip, b):
    # (A B^T) x = b for lower-triangular A and B, B given as _flip(B)
    return _solve_lower(B_flip, _solve_lower(A, b)[::-1])[::-1]


def cholesky_mp(A, dps=_DPS):
    """Rows of the Cholesky factor of A's longest positive-definite leading block.

    mp.cholesky's arithmetic entry for entry, but row by row: row j reads
    only entries of index <= j, so the first k rows factor A's leading k x k
    block.  Stops before the first pivot below the working epsilon.
    """
    L = []
    with mp.workdps(dps):
        for j, a in enumerate(_rows(A)):
            row = []
            for i, piv in enumerate(L):
                row.append((a[i] - mp.fdot(row, piv)) / piv[i])
            s = a[j] - mp.fsum(row, absolute=True, squared=True)
            if s < mp.eps:
                break
            row.append((a[j] - mp.fdot(row, row)) / mp.sqrt(s))
            L.append(row)
    return L


def _lu_mp(A):
    # A = L U without pivoting, as the rows of L (unit diagonal) and of U^T
    L, Ut = [], [[] for _ in A]
    for i, a in enumerate(A):
        row = []
        for j in range(i):
            row.append((a[j] - mp.fdot(row, Ut[j])) / Ut[j][j])
        L.append(row + [mp.mpf(1)])
        for j in range(i, len(A)):
            Ut[j].append(a[j] - mp.fdot(L[i], Ut[j]))
    return L, Ut


def _min_pencil_eigpair(step, start, dps, max_iter=200):
    """Smallest eigenpair of an SPD pencil A v = theta B v by inverse iteration.

    step(v) returns (x, B v) with x = A^{-1} B v.  theta is estimated as
    v^T B v / x^T B v, the Rayleigh quotient of the symmetric pencil
    (B A^{-1} B, B) at v, inverted: accurate to the square of v's error, and
    one step behind the normalized x that becomes the next iterate.  The
    iterate keeps unit Euclidean norm; the iteration stops once the estimate
    moves by at most 10^(12 - dps) relative.  Returns (theta, list of mpf).
    """
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


def smallest_eigenpair_mp(M, max_iter=200, start=None, factor=None):
    """Smallest eigenpair (mpf, unit float64 array) of an SPD mp matrix.

    The pencil (M, I); factor may pass the rows of M's Cholesky factor, e.g.
    the leading rows of a larger matrix's.  Converges at the ratio of the two
    smallest eigenvalues, ~0.13 per sweep for the restricted Gram blocks.
    """
    with mp.workdps(_DPS):
        rows = _rows(M)
        n = len(rows)
        L = cholesky_mp(M, _DPS) if factor is None else factor
        if len(L) < n:
            raise NumericError(
                "smallest_eigenpair_mp: Cholesky failed (matrix is not positive-definite)")
        L_flip = _flip(L)
        v = [mp.mpf(float(s)) for s in start] if (
            start is not None and np.all(np.isfinite(start))) else [mp.mpf(1)] * n
        nrm = mp.sqrt(mp.fsum(v, absolute=True, squared=True))
        lam, v = _min_pencil_eigpair(lambda u: (_solve_pair(L, L_flip, u), u),
                                     [vi / nrm for vi in v], _DPS, max_iter)
        return lam, positive_sign(np.array([float(vi) for vi in v]))


def rayleigh_quotient_mp(n, lo, hi, ell, coeffs):
    """(c^T M c) / (c^T c) with the Gram matrix entries evaluated in mp.

    Used to verify witness identities whose scale is below the float64
    quadratic-form rounding floor.
    """
    with mp.workdps(_DPS):
        rows = _rows(mass_matrix_mp(n, lo, hi, ell))
        c = [mp.mpf(float(x)) for x in coeffs]
        return mp.fdot(c, _matvec(rows, c)) / mp.fdot(c, c)


def generalized_min_eig_mp(mus, modes, m_omega, t):
    """Smallest generalized eigenvalue of (E M E) v = theta M v, E = exp(L t).

    mus and modes are the float64 eigendecomposition of the generator,
    treated as exact; m_omega must be SPD at float64 entry precision.
    Working precision adapts to the dynamic range 2 t (mu_max - mu_min).
    Returns log(theta)/2 as a float.
    """
    spread = 2.0 * t * float(mus[0] - mus[-1])
    dps = int(max(40, spread / np.log(10.0) + 30))
    n = len(mus)
    modes = np.asarray(modes, dtype=float)
    perm = np.arange(n)  # row order of float64 partial pivoting
    for i, p in enumerate(sla.lu_factor(modes, check_finite=False)[1]):
        perm[[i, p]] = perm[[p, i]]
    with mp.workdps(dps):
        Q, M = ([[mp.mpf(float(x)) for x in row] for row in a] for a in (modes, m_omega))
        C = cholesky_mp(M, dps)
        if len(C) < n:
            raise NumericError(
                "generalized_min_eig_mp: subdomain mass matrix not positive-definite "
                f"at working precision (dps={dps})")
        L, Ut = _lu_mp([Q[p] for p in perm])  # Q[perm] = L U
        C_flip, L_flip, Ut_flip = _flip(C), _flip(L), _flip(Ut)
        e = [mp.e ** (mp.mpf(float(mu)) * mp.mpf(t)) for mu in mus]
        inv_perm = np.argsort(perm)

        def apply_e_inv(v):
            y = _solve_pair(L, Ut_flip, [v[p] for p in perm])  # Q^{-1} v
            z = _solve_pair(Ut, L_flip, [yi / ei for ei, yi in zip(e, y)])
            return [z[p] for p in inv_perm]  # Q^{-T} z

        def step(v):
            mv = _matvec(M, v)
            return apply_e_inv(_solve_pair(C, C_flip, apply_e_inv(mv))), mv

        theta, _ = _min_pencil_eigpair(step, [mp.mpf(1)] * n, dps)
        if theta <= 0:
            raise NumericError(
                "generalized_min_eig_mp: nonpositive eigenvalue at working precision; "
                f"increase dps (got {float(theta):.3e} at dps={dps})")
        return float(mp.log(theta) / 2)
