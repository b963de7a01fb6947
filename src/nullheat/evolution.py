"""The coupled generator L = -diag(lambda) + K and its exact semigroup.

L is symmetric, so one eigendecomposition L = Q diag(mu) Q^T serves every
downstream need: exact propagation e^{Lt} v, the operator norm e^{mu_1 t},
closed-form observability Gramians, and the left-inverse constant

    zeta(t) = largest constant with  zeta(t) ||v||_omega <= ||e^{Lt} v||_omega

on the truncated span.  zeta is the square root of the smallest generalized
eigenvalue of (e^{Lt})^T M_omega (e^{Lt}) v = theta M_omega v; the subdomain
mass matrix must be safely positive definite for that problem to mean
anything, hence the conditioning gate.  theta_min sinks below the float64
cancellation floor eps * ||A|| once t * (lambda_N - lambda_1) is large, and
no float64 ratio test bounds the error of a float solve above that floor, so
every t > 0 is solved at adaptive extended precision (_highprec.zeta_solver).
The fastest mode q_N gives zeta(t) <= e^{mu_N t}, so a zeta below float64's
range is refused from that bound before any eigensolve (the conditioning
gate's eigvalsh of M_omega runs first).  left_inverse_constants takes a list
of horizons: the mass matrix is validated and gated once per list, and one
extended-precision solver serves every t > 0 of it.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from . import _highprec
from .basis import _validate_mass, _validate_time, positive_sign
from .errors import ArgumentError, IllConditionedError, NumericError, OverflowRefusalError

CONDITIONING_GATE = 1e-14
BACKWARD_EXP_GUARD = 700.0
# exp() below this is at most the smallest subnormal float64
_LOG_UNDERFLOW = -745.0


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenpairs of the generator, mus descending, eigenvectors in columns."""

    mus: np.ndarray
    modes: np.ndarray = field(repr=False)

    @property
    def n_modes(self):
        return self.mus.size

    def semigroup(self, t):
        """The dense matrix e^{Lt} = Q diag(e^{mu t}) Q^T."""
        return self.modes @ (np.exp(self.mus * t)[:, None] * self.modes.T)


def assemble_generator(basis, kmat):
    """L = -diag(lambda) + K, exactly symmetric."""
    if kmat.n_modes != basis.n_modes:
        raise ArgumentError(
            f"assemble_generator: kernel matrix is {kmat.n_modes}x{kmat.n_modes} "
            f"but the basis has {basis.n_modes} modes"
        )
    lmat = kmat.matrix.copy()
    lmat[np.diag_indices_from(lmat)] -= basis.lambdas
    return lmat


def decompose(lmat):
    """Full symmetric eigendecomposition of the generator array, mus descending.

    Sign convention: the largest-magnitude entry of each eigenvector is
    positive (first such index on ties), which makes the output reproducible
    across runs.
    """
    try:
        mus, modes = np.linalg.eigh(lmat)
    except np.linalg.LinAlgError as exc:  # not expected for symmetric input
        raise NumericError(f"decompose: eigensolver failed ({exc})") from exc
    mus = mus[::-1].copy()
    modes = modes[:, ::-1].copy()
    modes = positive_sign(modes)
    dec = SpectralDecomposition(mus=mus, modes=modes)
    resid = np.max(np.abs(modes @ (mus[:, None] * modes.T) - lmat))
    scale = 1.0 + np.max(np.abs(lmat))
    if resid > 1e-9 * scale:
        raise NumericError(f"decompose: reconstruction residual {resid:.3e} exceeds tolerance")
    return dec


def propagate(dec, state, t):
    """Apply e^{Lt} to a coefficient vector; t = 0 is the identity.  A state
    whose squared norm overflows float64 is refused."""
    t = _validate_time(t, "propagate", "t", allow_zero=True)
    state = np.asarray(state, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        out = dec.modes @ (np.exp(dec.mus * t) * (dec.modes.T @ state))
        if np.isfinite(out @ out):
            return out
    raise NumericError(f"propagate: state overflows float64 at t={t:g}")


def propagate_backward(dec, state, t):
    """Apply e^{-Lt}; refuses once t * spread(mu) would overflow exp(), and
    any result that is not finite (e^{-mu_N t} overflows past -mu_N t = 709.8
    whatever the spread).

    The left inverse is unbounded in the continuum limit, so an explicit
    refusal beats silently propagating infinities.
    """
    t = _validate_time(t, "propagate_backward", "t", allow_zero=True)
    spread = float(dec.mus[0] - dec.mus[-1])
    if t * spread > BACKWARD_EXP_GUARD:
        raise OverflowRefusalError(
            f"propagate_backward: t * spread(mu) = {t * spread:.1f} exceeds the "
            f"overflow guard {BACKWARD_EXP_GUARD:g}; the backward solve is not "
            "representable at this precision"
        )
    state = np.asarray(state, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        out = dec.modes @ (np.exp(-dec.mus * t) * (dec.modes.T @ state))
    if np.all(np.isfinite(out)):
        return out
    raise OverflowRefusalError(f"propagate_backward: state overflows float64 at t={t:g}")


def semigroup_norm(dec, t):
    """Exact operator norm of e^{Lt} on the truncation: e^{mu_1 t}."""
    t = _validate_time(t, "semigroup_norm", "t", allow_zero=True)
    return float(np.exp(dec.mus[0] * t))


def left_inverse_constant(dec, m_omega, t, method="auto"):
    """Largest zeta with zeta ||v||_omega <= ||e^{Lt} v||_omega on the span.

    Computed as sqrt of the smallest generalized eigenvalue of
    (e^{Lt})^T M_omega (e^{Lt}) v = theta M_omega v, at extended precision
    for every t > 0.  Refused before any eigensolve once the bound
    log zeta <= mu_N t is an e-fold past underflow.  method survives from
    the removed float64 route for callers that still pass it: "auto" and
    "mp" both name the one route, any other value is refused.
    """
    if method not in ("auto", "mp"):
        raise ArgumentError(f"left_inverse_constant: unknown method {method!r}")
    return left_inverse_constants(dec, m_omega, [t])[0]


def left_inverse_constants(dec, m_omega, ts):
    """[left_inverse_constant(dec, m_omega, t) for t in ts], bit for bit and
    refusal for refusal: the first t refused raises, after the t before it.
    M_omega is validated and gated once, and every t > 0 shares one
    extended-precision solver, built at the largest t's digits
    (_highprec.zeta_solver); t = 0 gives 1.0 (e^0 = I)."""
    checked, refusal = [], None
    try:
        for t in ts:
            t = _validate_time(t, "left_inverse_constant", "t", allow_zero=True)
            if not checked:
                m_omega = _gated_mass(dec, m_omega)
            bound = float(dec.mus[-1]) * t
            if bound < _LOG_UNDERFLOW - 1.0:  # the e-fold covers the float Q taken as exact
                _refuse_underflow(f"log zeta <= mu_N t = {bound:.1f}")
            checked.append(t)
    except (ArgumentError, NumericError) as exc:  # raised once the t before it are done
        refusal = exc
    zetas = []
    if any(checked):
        solve = _highprec.zeta_solver(dec.mus, dec.modes, m_omega, max(checked))
    for t in checked:
        if t == 0.0:
            zetas.append(1.0)
            continue
        log_zeta = solve(t)
        if log_zeta < _LOG_UNDERFLOW:
            _refuse_underflow(f"log zeta = {log_zeta:.1f}")
        zetas.append(math.exp(log_zeta))
    if refusal is not None:
        raise refusal
    return zetas


def _gated_mass(dec, m_omega):
    m_omega = _validate_mass(m_omega, dec.n_modes, "left_inverse_constant")
    w_m = np.linalg.eigvalsh(m_omega)
    if w_m[0] < CONDITIONING_GATE:
        raise IllConditionedError(
            "left_inverse_constant: subdomain mass matrix below the conditioning "
            f"gate {CONDITIONING_GATE:g}; shrink the truncation or enlarge omega",
            eigenvalue=float(w_m[0]),
        )
    return m_omega


def _refuse_underflow(detail):
    raise NumericError(f"left_inverse_constant: zeta underflows float64 ({detail}); "
                       "reduce t or the truncation level")
