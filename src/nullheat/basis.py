"""Dirichlet sine eigenbasis on an interval, restricted Gram matrices, quadrature.

Everything downstream is built on the analytic eigenpairs of -d^2/dx^2 with
zero boundary values on (0, ell):

    lambda_j = ((j+1) pi / ell)^2,   psi_j(x) = sqrt(2/ell) sin((j+1) pi x / ell)

with 0-based mode index j.  The Gram (mass) matrix of the eigenfunctions
restricted to a subinterval is assembled from the closed-form antiderivatives
of sine products; composite Gauss-Legendre quadrature is provided separately
and serves as the independent cross-check of those closed forms.  Every
Gauss-Legendre rule of the library is built here, once per order.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
from numpy.polynomial.legendre import legder, legval

from .errors import ArgumentError, IllConditionedError, NumericError

QUADRATURE_ORDER = 8  # Gauss-Legendre points per panel of the library's rules
MAX_MODES = 2048  # the largest truncation N of any model (a dense build: ~2 s, ~192 MiB)

_PSD_TOL = 1e-12


@dataclass(frozen=True)
class Domain:
    """Interval Omega = (0, length) with control subinterval omega = (omega_lo, omega_hi)."""

    length: float
    omega_lo: float
    omega_hi: float

    def __post_init__(self):
        if not (np.isfinite(self.length) and self.length > 0):
            raise ArgumentError(f"Domain: length must be positive and finite, got {self.length}")
        if not (np.isfinite(self.omega_lo) and np.isfinite(self.omega_hi)):
            raise ArgumentError("Domain: omega endpoints must be finite")
        if not (0.0 <= self.omega_lo < self.omega_hi <= self.length):
            raise ArgumentError(
                f"Domain: need 0 <= omega_lo < omega_hi <= length, got "
                f"({self.omega_lo}, {self.omega_hi}) in (0, {self.length})"
            )

    @property
    def omega(self):
        return (self.omega_lo, self.omega_hi)


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """First n_modes Dirichlet eigenpairs on a domain."""

    domain: Domain
    n_modes: int
    lambdas: np.ndarray = field(repr=False)


def build_basis(domain, n_modes):
    """Return the basis of the first n_modes (truncation level 1 <= N <=
    MAX_MODES) analytic Dirichlet eigenpairs on domain."""
    n_modes = _validate_int(n_modes, "build_basis", "n_modes", 1, MAX_MODES)
    j = np.arange(1, n_modes + 1, dtype=float)
    lambdas = (j * np.pi / domain.length) ** 2
    return SpectralBasis(domain=domain, n_modes=n_modes, lambdas=lambdas)


def eval_mode(basis, j, x):
    """Evaluate the j-th (0-based) eigenfunction at x (scalar or array).

    psi_j(x) = sqrt(2/ell) sin((j+1) pi x / ell); x must lie in [0, ell].
    """
    if not (0 <= j < basis.n_modes):
        raise ArgumentError(f"eval_mode: mode index {j} out of range [0, {basis.n_modes})")
    x = np.asarray(x, dtype=float)
    ell = basis.domain.length
    if np.any(x < 0.0) or np.any(x > ell):
        raise ArgumentError(f"eval_mode: x outside [0, {ell}]")
    out = np.sqrt(2.0 / ell) * np.sin((j + 1) * np.pi * x / ell)
    return float(out) if out.ndim == 0 else out


def positive_sign(v):
    """v, or each column of a 2-D v, flipped so that its largest-magnitude
    entry (the first on ties) is positive: the one sign convention of every
    eigenvector and witness the library returns."""
    v = np.asarray(v)
    k = np.expand_dims(np.argmax(np.abs(v), axis=0), 0)
    return np.where(np.take_along_axis(v, k, axis=0) < 0, -v, v)


def restricted_mass_matrix(basis, lo, hi):
    """Gram matrix M[i, j] = int_lo^hi psi_i psi_j dx, by closed form.

    The i == j and i != j branches use the sine-product antiderivatives

        int psi_m^2        = x/ell - sin(2 m pi x / ell) / (2 m pi)
        int psi_m psi_n    = [sin((m-n) pi x / ell)/(m-n)
                              - sin((m+n) pi x / ell)/(m+n)] / pi

    (1-based mode numbers m, n).  No quadrature is involved; quadrature is
    the cross-check, not the source of truth, because downstream constants
    hinge on eigenvalues of this matrix that are many orders below 1.

    Returns a symmetric n_modes x n_modes array with spectrum in [0, 1].
    """
    ell = basis.domain.length
    if not (0.0 <= lo < hi <= ell):
        raise ArgumentError(
            f"restricted_mass_matrix: need 0 <= lo < hi <= {ell}, got ({lo}, {hi})"
        )
    return gram_closed_form(basis.n_modes, lo, hi, ell)


def _validate_mass(m_omega, n, op):
    """m_omega as a float array, refused unless it is an n x n finite,
    symmetric (to 1e-13) and positive semidefinite (to _PSD_TOL relative)
    matrix: the one check of every consumer of a caller's M_omega.

    The rule is lambda_min >= -_PSD_TOL max(1, lambda_max).  The fast path
    factors M + delta I by Cholesky (LAPACK potrf on the lower triangle, the
    one eigvalsh reads), delta = _PSD_TOL max(1, max diag M) / 2 (Higham,
    "Analysis of the Cholesky decomposition of a semi-definite matrix",
    1990).  If it succeeds, lambda_min > -delta up to the factorization's
    backward error; since max diag M <= lambda_max, the matrix then meets the
    rule with a margin of _PSD_TOL max(1, max diag M) / 2 left for that error,
    whose elementwise bound (n + 1) u max diag M (u = 2^-53) stays below the
    margin for n up to about 4500.  If it fails, eigvalsh decides as before,
    so eigenvalues are computed only for refusals and borderline matrices,
    and a refusal reports the same lambda_min.
    """
    m_omega = np.asarray(m_omega, dtype=float)
    if m_omega.shape != (n, n):
        raise ArgumentError(f"{op}: mass matrix shape {m_omega.shape} does not match {n} modes")
    if not np.all(np.isfinite(m_omega)):
        raise NumericError(f"{op}: mass matrix contains non-finite entries")
    asym = float(np.max(np.abs(m_omega - m_omega.T)))
    if asym > 1e-13:
        raise ArgumentError(f"{op}: mass matrix asymmetric (defect {asym:.3e})")
    shifted = np.array(m_omega, order="F")  # always a copy: potrf overwrites it
    diag = shifted.reshape(-1, order="F")[:: n + 1]  # a view of the diagonal
    diag += 0.5 * _PSD_TOL * max(1.0, float(diag.max()))
    if sla.lapack.dpotrf(shifted, lower=1, clean=0, overwrite_a=1)[1] == 0:
        return m_omega
    w = np.linalg.eigvalsh(m_omega)
    if w[0] < -_PSD_TOL * max(1.0, float(w[-1])):
        raise IllConditionedError(
            f"{op}: subdomain mass matrix is not positive semidefinite",
            eigenvalue=float(w[0]),
        )
    return m_omega


def _validate_state(u0, n, op):
    """u0 as a float array, refused unless it is a finite coefficient N-vector."""
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (n,):
        raise ArgumentError(f"{op}: u0 has shape {u0.shape}, expected ({n},)")
    if not np.all(np.isfinite(u0)):
        raise ArgumentError(f"{op}: u0 must be finite")
    return u0


def _validate_int(value, op, name, minimum=None, maximum=None):
    """value as an int, refused unless it is an integer in [minimum, maximum]
    (None leaves that end open): the one range rule of every integer argument.
    A float that holds one, such as 64.0, is refused, and so is a bool."""
    positive = "a positive integer" if minimum == 1 else None
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        rule = positive or "an integer"
    elif minimum is not None and value < minimum:
        rule = positive or f">= {minimum}"
    elif maximum is not None and value > maximum:
        rule = f"<= {maximum}"
    else:
        return int(value)
    raise ArgumentError(f"{op}: {name} must be {rule}, got {value!r}")


def _validate_time(t, op, name="T", allow_zero=False):
    """t as a float, refused unless it is finite and > 0 (>= 0 with
    allow_zero): the one check of every caller's time or horizon."""
    if not ((t >= 0 if allow_zero else t > 0) and np.isfinite(t)):
        rule = ">= 0" if allow_zero else "positive"
        raise ArgumentError(f"{op}: {name} must be {rule} and finite, got {t}")
    return float(t)


def gram_closed_form(n, lo, hi, ell, sin=np.sin, pi=np.pi, dtype=float):
    """restricted_mass_matrix's closed form from tables of 2n sines.

    sh[k], sl[k] = sin(k pi hi / ell), sin(k pi lo / ell) for k = 1..2n.  An
    upper-triangle entry's m - n = -k term is (sl[k] - sh[k]) / -k by the
    exact odd symmetry of sine, so even zero entries keep their sign.  Float64
    by default; dtype=object, sin = np.frompyfunc(mp.sin, 1, 1), pi = +mp.pi
    and mpf endpoints evaluate the same closed form in mp.
    """
    k = np.arange(1, 2 * n + 1).astype(dtype)
    sh, sl = sin(k * pi * hi / ell), sin(k * pi * lo / ell)  # index k - 1
    up, dn = (sl - sh) / -k, (sh - sl) / k  # the m - n = -k and m + n = k terms
    m = np.arange(1, n + 1)
    d = np.abs(m[:, None] - m[None, :])
    np.fill_diagonal(d, 1)  # placeholder; the diagonal is set below
    M = (up[d - 1] - dn[m[:, None] + m[None, :] - 1]) / pi
    M[np.diag_indices(n)] = (hi - lo) / ell - (sh[2 * m - 1] - sl[2 * m - 1]) / (k[2 * m - 1] * pi)
    return M


@lru_cache(maxsize=None)
def _gauss_legendre(order):
    """numpy's leggauss(order) bit for bit in O(order^2), as read-only arrays
    built once per order: the companion matrix of L_order is tridiagonal with a
    zero diagonal (Golub and Welsch, Math. Comp. 23, 1969), so LAPACK sterf
    replaces the dense eigvalsh; the Newton step and weights are numpy's."""
    c = np.array([0] * order + [1])
    scl = 1. / np.sqrt(2 * np.arange(order) + 1)
    x = sla.eigvalsh_tridiagonal(np.zeros(order), np.arange(1, order) * scl[:-1] * scl[1:],
                                 lapack_driver="sterf")
    df = legval(x, legder(c))
    x -= legval(x, c) / df
    fm = legval(x, c[1:])
    w = 1 / (fm / np.abs(fm).max() * (df / np.abs(df).max()))
    w = (w + w[::-1]) / 2
    x, w = (x - x[::-1]) / 2, w * (2. / w.sum())
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_quadrature(f, lo, hi, panels):
    """Composite QUADRATURE_ORDER-point Gauss-Legendre approximation of
    int_lo^hi f(x) dx.

    f is called once per panel on the array of mapped nodes and returns the
    integrand's values with the nodes on its last axis, which is summed: a
    scalar integrand gives a float, an array-valued one an array.  Exact for
    polynomials of degree <= 2 * QUADRATURE_ORDER - 1 on each panel, up to
    roundoff.
    """
    if not lo < hi:
        raise ArgumentError(f"gauss_quadrature: need lo < hi, got ({lo}, {hi})")
    panels = _validate_int(panels, "gauss_quadrature", "panels", 1)
    weights = _gauss_legendre(QUADRATURE_ORDER)[1]
    edges = np.linspace(lo, hi, panels + 1)
    nodes = gauss_rule(edges, QUADRATURE_ORDER)[0].reshape(panels, QUADRATURE_ORDER)
    total = 0.0
    for a, b, x in zip(edges[:-1], edges[1:], nodes):
        total += 0.5 * (b - a) * np.sum(weights * np.asarray(f(x), dtype=float), axis=-1)
    return total


def gauss_rule(edges, order):
    """Nodes and weights of the order-point Gauss-Legendre rule on each panel
    [edges[i], edges[i + 1]], concatenated across panels."""
    nodes, weights = _gauss_legendre(order)
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1, None], edges[1:, None]
    return (0.5 * (b - a) * nodes + 0.5 * (a + b)).ravel(), (0.5 * (b - a) * weights).ravel()


def _graded_time_nodes(T, rate):
    """Composite GL nodes on [0, T] with geometric grading toward 0.

    The integrands are sums of e^{s tau} with s as negative as 2 mu_N, so the
    panel ladder starts at ~1/(4 rate) and doubles; each panel then sees at
    most a couple of e-folds and order-16 nodes integrate it to roundoff.
    """
    first = min(T, 0.25 / max(rate, 1.0 / T))
    edges = [0.0, first]
    while edges[-1] < T:
        edges.append(min(T, edges[-1] * 2.0))
    return gauss_rule(edges, 16)
