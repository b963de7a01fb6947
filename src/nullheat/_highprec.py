"""Extended-precision eigenpairs below the float64 floor, on integer mantissas.

The packet constant and the left-inverse constant zeta(t) rest on eigenvalues
that decay like exp(-c n) and exp(-lambda_N t), below double precision's
eps * ||A|| cancellation floor.  Each is the smallest eigenvalue of an SPD
pencil A v = theta B v, found by one primitive, _min_pencil_eigpair: inverse
iteration v <- A^{-1} B v.  Its eigenvalue estimate v^T B v / x^T B v reuses
the products of the step x = A^{-1} B v, so no step forms A v; the estimate
lags the iterate by one step.  A step solves no triangular system: A^{-1} B
is applied as dense products with inverses formed once, from the inverses of
triangular factors (explicit triangular inverses are backward stable:
Higham, Accuracy and Stability of Numerical Algorithms, ch. 14).  The
pencils:

* packet constant: (M, I), M a leading block of the restricted Gram matrix,
  M = C C^T.  A step is X^T (X v) with X = C^{-1}: two triangular products.
  The leading rows of C factor M's leading blocks, and the leading block of
  X inverts C's, so one factor and one inverse serve a sweep of cutoffs
  (gram_block_solver, which hands smallest_eigenpair_mp the inverse).
* zeta(t)^2: (E M E, M), E = Q D Q^T, D = diag(e^{mu t}), from the float64
  eigendecomposition taken as exact.  A^{-1} B = E^{-1} M^{-1} E^{-1} M =
  Q^{-T} D^{-1} K^T K D^{-1} Q^{-1} M, K = C^{-1} Q^{-T} with M = C C^T:
  five matrix-vector products and 2n divisions by e^{mu t} a step.  Q^{-1}
  comes from an LU of Q, as U^{-1} L^{-1}, not as Q^T: the float Q is
  orthogonal only to rounding, which e^{-mu_N t} magnifies past theta itself.  M, Q^{-1} and K
  do not depend on t; zeta_solver builds them once for a list of horizons.
* kappa_T, later: 1 / theta_min of (G_T, e^{2LT}).

Digits.  Packet blocks are solved at DPS = 50, on the leading rows of one
shared 50-digit Cholesky factor and its inverse.  That factor stops at the
first pivot below the working epsilon (after 66 rows on (0.3, 0.8)), so a
longer block is solved at twice the digits, doubled again while the factor
is still short, on the leading rows of one Gram matrix, factor and inverse
shared at those digits (a Gram entry does not depend on the matrix size).
Entries good to ~10^-dps leave fewer than 16 digits of an eigenvalue below
10^(16 - dps) times M's largest diagonal entry, so smallest_eigenpair_mp
refuses one (IllConditionedError, .eigenvalue the estimate) and
gram_block_solver re-solves it at int(30 - log10(estimate)) digits, on its
own matrix, factor and inverse.  zeta(t) iterates at max(40, spread / ln 10
+ 30) digits, spread = 2 t (mu_max - mu_min), on operators built at the
digits of the largest t of their list; extra bits in an operator are
harmless, since each dot below rounds its exact sum once.

Arithmetic.  mpmath builds the inputs (the Gram matrix, e^{mu t}) and takes
the outputs; in between a number is a pair (m, e) = m 2^e of Python ints, m
odd or zero, as in mpmath's own mpf.  Each operation is one correct rounding
to nearest-even at the working precision prec: a dot product is the exact
integer sum of its exact products, rounded once, and a difference, quotient
or square root is rounded once from its exact value.  mpmath's operations
round the same way, so every result is mpmath's, bit for bit, once its one
shortcut is reproduced: mp.fdot's summation (libmp.mpf_sum) drops a term
lying more than 2 prec bits beside its running sum.  A dot whose terms span
at most 2 prec bits drops nothing and takes the exact sum; a wider one is
summed by mpf_sum itself.  For the exact sum a vector is also held in one
frame, ints X with value X[k] 2^lo, so a dot is one C-level sum of products.
"""

from math import isqrt
from operator import mul

import numpy as np
import mpmath as mp
import scipy.linalg as sla
from mpmath import libmp

from .basis import gram_closed_form, positive_sign
from .errors import IllConditionedError, NumericError

_mp_sin = np.frompyfunc(mp.sin, 1, 1)
DPS = 50  # working precision of the packet-constant routines
MAX_ITER = 200  # inverse-iteration steps before _min_pencil_eigpair gives up
_ZERO = (0, 0)
_ONE = (1, 0)


def mass_matrix_mp(n, lo, hi, ell, dps=DPS):
    """Restricted Gram matrix as an n x n object array of mpf at dps digits."""
    with mp.workdps(dps):
        return gram_closed_form(n, mp.mpf(lo), mp.mpf(hi), mp.mpf(ell),
                                sin=_mp_sin, pi=+mp.pi, dtype=object)


# -- correctly rounded operations on pairs (m, e) ------------------------------

def _round(n, e, prec, odd=True):
    # n 2^e rounded to prec bits, ties to even; odd=False skips making the
    # mantissa odd, for a value only passed on to the next operation
    if not n:
        return _ZERO
    a = -n if n < 0 else n
    k = a.bit_length() - prec
    if k > 0:
        t = a >> (k - 1)
        if t & 1 and (t & 2 or a & ~(-1 << (k - 1))):
            a = (t >> 1) + 1
        else:
            a = t >> 1
        e += k
    if odd and not a & 1:
        z = (a & -a).bit_length() - 1
        a >>= z
        e += z
    return (-a if n < 0 else a), e


def _sub(x, y, prec, odd=True):
    (xm, xe), (ym, ye) = x, y
    if xe >= ye:
        return _round((xm << (xe - ye)) - ym, ye, prec, odd)
    return _round(xm - (ym << (ye - xe)), xe, prec, odd)


def _mul(x, y, prec):
    return _round(x[0] * y[0], x[1] + y[1], prec)


def _div(x, y, prec):
    (xm, xe), (ym, ye) = x, y
    if not ym:
        raise ZeroDivisionError("mp division by zero")
    if ym == 1 or not xm:
        return _round(xm, xe - ye, prec)
    a, b = abs(xm), abs(ym)
    # a quotient of at least prec + 2 bits, then one sticky bit for the rest
    k = max(0, prec + 2 - a.bit_length() + b.bit_length())
    q, r = divmod(a << k, b)
    q = (q << 1) | (r != 0)
    return _round(-q if (xm < 0) != (ym < 0) else q, xe - ye - k - 1, prec)


def _sqrt(x, prec):
    m, e = x
    if m < 0:
        raise NumericError("mp square root of a negative number")
    if e & 1:
        m, e = m << 1, e - 1
    k = max(0, 2 * prec + 4 - m.bit_length())
    k += k & 1
    m <<= k
    r = isqrt(m)
    return _round((r << 1) | (r * r != m), (e - k) // 2 - 1, prec)


def _le(x, y):
    # x <= y, exactly
    (xm, xe), (ym, ye) = x, y
    if xe >= ye:
        return xm << (xe - ye) <= ym
    return xm <= ym << (ye - xe)


def _abs(x):
    return (-x[0], x[1]) if x[0] < 0 else x


def _pair(x):
    sign, m, e, _ = x._mpf_
    return (-m if sign else m), e


def _float_pair(x):
    # a float's exact value, as mp.mpf(float(x)) holds it at 53 bits or more
    m, d = float(x).as_integer_ratio()
    return _round(m, 1 - d.bit_length(), 53)


def _mpf(p):
    return mp.make_mpf(libmp.from_man_exp(p[0], p[1]))


# -- vectors: pairs plus one integer frame --------------------------------------

class _Vec:
    """Pairs p[k] = (m, e) and the same values as ints[k] 2^lo exactly, where
    lo and hi are the least and greatest e of a nonzero pair (None if none)."""

    __slots__ = ("pairs", "ints", "lo", "hi")

    def __init__(self, pairs=()):
        self.pairs = list(pairs)
        exps = [e for m, e in self.pairs if m]
        if exps:
            self.lo = lo = min(exps)
            self.hi = max(exps)
            self.ints = [m << (e - lo) if m else 0 for m, e in self.pairs]
        else:
            self.lo = self.hi = None
            self.ints = [0] * len(self.pairs)

    def append(self, p):
        m, e = p
        self.pairs.append(p)
        if not m:
            self.ints.append(0)
            return
        if self.lo is None:
            self.lo = self.hi = e
        elif e < self.lo:
            d = self.lo - e
            self.ints = [x << d for x in self.ints]
            self.lo = e
        elif e > self.hi:
            self.hi = e
        self.ints.append(m << (e - self.lo))


def _dot(a, b, prec):
    # mp.fdot(a, b) over the common leading entries
    if a.lo is None or b.lo is None:
        return _ZERO
    # mpf_sum keeps a running sum m 2^exp (exp = 0 before the first term) and
    # drops a term, or the sum itself, only when their exponents lie more
    # than 2 prec bits apart; a drop against exp = 0 also needs two terms that
    # far apart.  So products whose exponents span at most 2 prec bits are
    # summed exactly, and the exact sum rounded once is mpf_sum's result.
    lo = a.lo + b.lo
    if a.hi + b.hi - lo <= 2 * prec:
        return _round(sum(map(mul, a.ints, b.ints)), lo, prec)
    terms = []
    for (am, ae), (bm, be) in zip(a.pairs, b.pairs):
        m = am * bm
        if m:
            terms.append((int(m < 0), abs(m), ae + be, abs(m).bit_length()))
    sign, m, e, _ = libmp.mpf_sum(terms, prec, libmp.round_nearest)
    return (-m if sign else m), e


def _rows(A):
    # an mp.matrix, an object array of mpf, or already a list of rows
    return A.tolist() if hasattr(A, "tolist") else A


def _pair_rows(A):
    # _rows(A) with each mpf as a pair
    return [[_pair(x) for x in row] for row in _rows(A)]


def _matvec(rows, v, prec):
    return [_dot(row, v, prec) for row in rows]


# -- triangular factors -----------------------------------------------------------

def _solve_lower(T, b, prec):
    # T x = b by rows, T lower triangular as rows (off-diagonal _Vec, diagonal
    # pair), b a list of pairs (only its first len(T) entries are read); row i
    # pairs its off-diagonal entries with the x solved so far
    x = _Vec()
    for (row, (dm, de)), bi in zip(T, b):
        # a power-of-two diagonal divides exactly, by a shift, so the
        # difference is final and made odd; otherwise the quotient is
        unit = dm == 1
        m, e = _sub(bi, _dot(row, x, prec), prec, unit)
        if not unit:
            m, e = _div((m, e), (dm, de), prec)
        elif m:
            e -= de
        x.append((m, e))
    return x


def _cholesky(A, prec):
    # rows of pairs of the factor of A's (rows of pairs) longest leading block
    # whose pivots are at least mp.eps = 2^(1 - prec): mp.cholesky's arithmetic,
    # by rows, and row j reads only A's entries of index <= j, so the first k
    # rows factor A's leading k x k block
    L, T = [], []
    for j, a in enumerate(A):
        row = _solve_lower(T, a, prec)
        s = _sub(a[j], _dot(row, row, prec), prec)
        if not _le((1, 1 - prec), s):
            break
        d = _div(s, _sqrt(s, prec), prec)
        L.append(row.pairs + [d])
        T.append((row, d))
    return L


def _lu(A, prec):
    # A = L U without pivoting, as the rows of L (unit diagonal) and of U^T
    L, Ut = [], [_Vec() for _ in A]
    for i, a in enumerate(A):
        row = _solve_lower([(u, u.pairs[j]) for j, u in enumerate(Ut[:i])], a, prec)
        L.append(row.pairs + [_ONE])
        for j in range(i, len(A)):
            Ut[j].append(_sub(a[j], _dot(row, Ut[j], prec), prec))
    return L, [u.pairs for u in Ut]


def _lower_inverse(L, prec):
    # (rows, columns) of X = L^{-1}, L lower triangular as rows of pairs, by
    # rows: X[i][j] = -(L[i, :i] . X[:i, j]) / L[i][i] and X[i][i] = 1 / L[i][i],
    # the column solves L x = e_j without their zero rows.  X's leading k x k
    # block inverts L's, so X's first k rows, and its columns read on their
    # first k entries, serve L's leading k rows; a row stops at the diagonal,
    # a column keeps its zeros above it
    cols = []
    for row in L:
        off, d = _Vec(row[:-1]), row[-1]
        for c in cols:
            m, e = _dot(off, c, prec)
            c.append(_div((-m, e), d, prec))
        cols.append(_Vec([_ZERO] * len(cols) + [_div(_ONE, d, prec)]))
    return [_Vec(c.pairs[i] for c in cols[:i + 1]) for i in range(len(L))], cols


# -- the eigen-primitive ------------------------------------------------------------

def _min_pencil_eigpair(step, start, dps):
    """Smallest eigenpair of an SPD pencil A v = theta B v by inverse iteration.

    step(v) returns (x, B v) with x = A^{-1} B v, all three as _Vec.  theta
    is estimated as v^T B v / x^T B v, the Rayleigh quotient of the
    symmetric pencil (B A^{-1} B, B) at v, inverted: accurate to the square
    of v's error, and one step behind the normalized x that becomes the next
    iterate.  The iterate keeps unit Euclidean norm; the iteration stops once
    the estimate moves by at most 10^(12 - dps) relative.  Runs at the
    context's working precision; returns (theta as a pair, v as a _Vec).
    """
    prec = mp.mp.prec
    tol = _pair(mp.mpf(10) ** (-dps + 12))
    v = start
    lam_old = None
    for _ in range(MAX_ITER):
        x, bv = step(v)
        lam = _div(_dot(v, bv, prec), _dot(x, bv, prec), prec)
        nrm = _sqrt(_dot(x, x, prec), prec)
        v = _Vec([_div(xi, nrm, prec) for xi in x.pairs])
        if lam_old is not None and _le(_abs(_sub(lam, lam_old, prec)),
                                       _mul(tol, _abs(lam), prec)):
            return lam, v
        lam_old = lam
    raise NumericError(f"inverse iteration: no convergence in {MAX_ITER} steps at dps={dps}")


def _unit_start(start, n, prec):
    # the float start vector (all ones if absent or not finite) over its norm
    v = _Vec([_float_pair(s) for s in start] if (
        start is not None and np.all(np.isfinite(start))) else [_ONE] * n)
    nrm = _sqrt(_dot(v, v, prec), prec)
    return _Vec([_div(p, nrm, prec) for p in v.pairs])


def smallest_eigenpair_mp(M, start=None, dps=DPS, inverse=None):
    """Smallest eigenpair (mpf, unit float64 array) of an SPD mp matrix.

    The pencil (M, I) at dps digits, stepped by products with X = C^{-1},
    M = C C^T: X^T (X v).  inverse, the one precomputed operator it takes,
    passes X in _lower_inverse's form, of M's factor or of a larger matrix's
    with M as leading block; without it M is factored and inverted here.
    Converges at the ratio of the two smallest eigenvalues, ~0.13 per sweep
    for the restricted Gram blocks.  Refuses what M's digits cannot resolve.
    """
    with mp.workdps(dps):
        prec = mp.mp.prec
        rows = _rows(M)
        n = len(rows)
        if inverse is None:
            inverse = _lower_inverse(_cholesky(_pair_rows(rows), prec), prec)
        x_rows, x_cols = inverse[0][:n], inverse[1][:n]
        if len(x_rows) < n:
            raise NumericError(
                "smallest_eigenpair_mp: Cholesky failed (matrix is not positive-definite)")
        lam, v = _min_pencil_eigpair(
            lambda u: (_Vec(_matvec(x_cols, _Vec(_matvec(x_rows, u, prec)), prec)), u),
            _unit_start(start, n, prec), dps)
        lam = _mpf(lam)
        if not lam >= mp.mpf(10) ** (16 - dps) * max(row[i] for i, row in enumerate(rows)):
            raise IllConditionedError(
                f"smallest_eigenpair_mp: eigenvalue unresolved at dps={dps}", float(lam))
        return lam, positive_sign(np.array([float(_mpf(p)) for p in v.pairs]))


def gram_block_solver(n, lo, hi, ell):
    """solve(k, start) -> smallest_eigenpair_mp of the leading k x k block of
    the n x n restricted Gram matrix.  The first call builds the DPS-digit
    matrix, its Cholesky factor C and the inverse C^{-1}; a block within the
    factor's rows reads their leading rows, a longer one those of the n x n
    matrix, factor and inverse at twice the digits, doubled again while that
    factor is still short.  Each of these is built once, at its first use."""
    shared = {}  # dps -> [n x n Gram matrix, rows of its factor, the factor's inverse]

    def solve(k, start=None):
        dps = DPS
        while True:
            if dps not in shared:
                M = mass_matrix_mp(n, lo, hi, ell, dps)
                shared[dps] = [M, _cholesky(_pair_rows(M), libmp.dps_to_prec(dps)), None]
            M, factor, inverse = entry = shared[dps]
            if len(factor) >= k:
                break
            dps *= 2
        if inverse is None:  # formed at the first block solved at dps
            inverse = entry[2] = _lower_inverse(factor, libmp.dps_to_prec(dps))
        try:
            return smallest_eigenpair_mp(M[:k, :k], start=start, dps=dps, inverse=inverse)
        except IllConditionedError as err:
            dps = int(30 - np.log10(err.eigenvalue))
            return smallest_eigenpair_mp(mass_matrix_mp(k, lo, hi, ell, dps),
                                         start=start, dps=dps)

    return solve


def rayleigh_quotient_mp(n, lo, hi, ell, coeffs):
    """(c^T M c) / (c^T c) with the Gram matrix entries evaluated in mp.

    Used to verify witness identities whose scale is below the float64
    quadratic-form rounding floor.
    """
    with mp.workdps(DPS):
        prec = mp.mp.prec
        rows = [_Vec(row) for row in _pair_rows(mass_matrix_mp(n, lo, hi, ell))]
        c = _Vec(_float_pair(x) for x in coeffs)
        return _mpf(_div(_dot(c, _Vec(_matvec(rows, c, prec)), prec), _dot(c, c, prec), prec))


def _zeta_dps(mus, t):
    spread = 2.0 * t * float(mus[0] - mus[-1])
    return int(max(40, spread / np.log(10.0) + 30))


def zeta_solver(mus, modes, m_omega, t_max):
    """solve(t) -> generalized_min_eig_mp(mus, modes, m_omega, t), 0 < t <= t_max.

    The operators that do not depend on t -- M_omega, Q^{-1}, Q^{-T} and
    K = C^{-1} Q^{-T} with M_omega = C C^T -- are built once, at t_max's
    digits (and M_omega refused there if its factor stops short); each t
    iterates and stops at its own.
    """
    dps = _zeta_dps(mus, t_max)
    n = len(mus)
    modes = np.asarray(modes, dtype=float)
    perm = np.arange(n)  # row order of float64 partial pivoting
    for i, p in enumerate(sla.lu_factor(modes, check_finite=False)[1]):
        perm[[i, p]] = perm[[p, i]]
    with mp.workdps(dps):
        prec = mp.mp.prec
        Q, M = ([[_float_pair(x) for x in row] for row in a] for a in (modes, m_omega))
        C = _cholesky(M, prec)
        if len(C) < n:
            raise NumericError(
                "generalized_min_eig_mp: subdomain mass matrix not positive-definite "
                f"at working precision (dps={dps})")
        # Q[perm] = L U, so Q^{-1} = U^{-1} L^{-1} P: row i of U^{-1} is column
        # i of (U^T)^{-1}, and column j of Q^{-1} is column perm^{-1}[j] of U^{-1} L^{-1}
        l_cols, ut_cols = (_lower_inverse(F, prec)[1] for F in _lu([Q[p] for p in perm], prec))
        l_cols = [l_cols[c] for c in np.argsort(perm)]
        q_inv = [_Vec(_dot(u, c, prec) for c in l_cols) for u in ut_cols]
        q_inv_t = [_Vec(r.pairs[j] for r in q_inv) for j in range(n)]
        k = [_Vec(_dot(r, q, prec) for q in q_inv) for r in _lower_inverse(C, prec)[0]]
        k_t = [_Vec(r.pairs[j] for r in k) for j in range(n)]  # K = C^{-1} Q^{-T}
        M = [_Vec(row) for row in M]

    def solve(t):
        dps = _zeta_dps(mus, t)
        with mp.workdps(dps):
            prec = mp.mp.prec
            e = [_pair(mp.e ** (mp.mpf(float(mu)) * mp.mpf(t))) for mu in mus]

            def scaled(rows, v):
                # D^{-1} (rows v), D = diag(e^{mu t})
                return _Vec([_div(p, ei, prec) for p, ei in zip(_matvec(rows, v, prec), e)])

            def step(v):
                # A^{-1} B v = Q^{-T} D^{-1} K^T K D^{-1} Q^{-1} M v
                mv = _Vec(_matvec(M, v, prec))
                y = scaled(k_t, _Vec(_matvec(k, scaled(q_inv, mv), prec)))
                return _Vec(_matvec(q_inv_t, y, prec)), mv

            theta, _ = _min_pencil_eigpair(step, _Vec([_ONE] * n), dps)
            if theta[0] <= 0:
                raise NumericError(
                    "generalized_min_eig_mp: nonpositive eigenvalue at working precision; "
                    f"increase dps (got {float(_mpf(theta)):.3e} at dps={dps})")
            return float(mp.log(_mpf(theta)) / 2)

    return solve


def generalized_min_eig_mp(mus, modes, m_omega, t):
    """Smallest generalized eigenvalue of (E M E) v = theta M v, E = exp(L t).

    mus and modes are the float64 eigendecomposition of the generator,
    treated as exact; m_omega must be SPD at float64 entry precision.
    Working precision adapts to the dynamic range 2 t (mu_max - mu_min).
    Returns log(theta)/2 as a float.
    """
    return zeta_solver(mus, modes, m_omega, t)(t)
