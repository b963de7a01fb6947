"""Observability constants: spectral packets, Gramians, and the cost kappa_T.

Three nested quantities are produced here, each as the *extremal* constant of
its inequality on the truncated system rather than as an assembled chain of
non-explicit constants (the chain can then be verified as an upper bound and
its slack measured):

* spectral packet constant: the smallest C with
      sum_{lambda_j <= r} |c_j|^2 <= C ||sum c_j psi_j||^2_{L2(omega)},
  i.e. 1 / (smallest eigenvalue of the leading block of the restricted Gram
  matrix).  Its -log grows like sqrt(r), which the sweep fits.

* observability Gramian  G_T = int_0^T e^{Lt} M_omega e^{Lt} dt, in closed
  form through the eigendecomposition: with W = Q^T M_omega Q,
      G_T = Q (W o Phi) Q^T,   Phi[a, b] = phi(mu_a + mu_b, T),
      phi(s, T) = (e^{sT} - 1) / s = expm1(sT) / s,
  which expm1 keeps accurate for tiny |sT|, and phi(0, T) = T.  W does not
  depend on T: a sweep over horizons forms it once per truncation.

* cost of control  kappa_T = largest generalized eigenvalue of
      e^{2LT} w = kappa G_T w,
  the smallest constant with ||e^{LT} u||^2 <= kappa_T u^T G_T u.  Only that
  top eigenpair is solved for (LAPACK's xSYGVX after the Cholesky reduction).

The sweep over horizons reproduces the blow-up of kappa_T as T -> 0 under
the frequency-coupled truncation N(T) = #{j : lambda_j <= 1/T} + margin,
and fits log kappa_T against both 1/sqrt(T) and 1/T.
Every "modes with lambda <= r" of the library, here and in the staged
control, is _count_modes: inclusive, on the eigenvalue table's formula.
"""

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import _highprec
from .basis import (MAX_MODES, _validate_int, _validate_mass, _validate_time, build_basis,
                    positive_sign, restricted_mass_matrix)
from .errors import ArgumentError, IllConditionedError, NumericError
from .evolution import (SpectralDecomposition, _zeta_pencil, assemble_generator, decompose,
                        left_inverse_constants)
from .kernels import project_kernel

COUPLING_FIXED = "fixed"
COUPLING_RESOLVENT = "r-equals-1-over-T"

_MP_ESCALATION = 1e-6  # float64 c_min below this (relative) is recomputed in mp
_FALLBACK_RIDGE_SCALE = 1e-12
CHAIN_GRID_POINTS = 20  # proof_chain_report's t grid: T i / 20, i = 1..20


@dataclass(frozen=True, eq=False)
class ObsReport:
    r: float
    n_modes: int
    c_min: float
    specobs_constant: float
    witness: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class CostReport:
    """kappa_T and its witness; gramian_min_eig, the smallest eigenvalue of G_T in
    the generator's eigencoordinates (W o Phi), is computed on first read."""
    T: float
    n_used: int
    kappa: float
    witness: np.ndarray = field(repr=False)
    gram: "_EigenGramian" = field(repr=False)

    @functools.cached_property
    def gramian_min_eig(self):
        return float(np.linalg.eigvalsh(self.gram.gramian(self.T))[0])


def _phi(s, T):
    """(e^{sT} - 1)/s elementwise as expm1(sT)/s, with the limit T at s = 0."""
    s = np.asarray(s, dtype=float)
    out = np.full_like(s, float(T))
    nz = s != 0.0
    with np.errstate(over="ignore"):
        out[nz] = np.expm1(s[nz] * T) / s[nz]
    return out


def _count_modes(domain, r, op, name="cutoff r"):
    """#{j >= 1 : (j pi / ell)^2 <= r} on build_basis's float formula, so r =
    lambda_k counts mode k, read at the j within two of sqrt(r) ell / pi."""
    if not np.isfinite(r):
        raise ArgumentError(f"{op}: {name} must be finite, got {r}")
    ell = domain.length
    j = max(np.floor(np.sqrt(max(r, 0.0)) * ell / np.pi), 2.0) + np.arange(-1.0, 3.0)
    return int(j[0]) - 1 + int(np.count_nonzero((j * np.pi / ell) ** 2 <= r))


def spectral_obs_constant(basis, omega, r):
    """Smallest constant of the spectral packet inequality at cutoff r.

    The constant is 1/c_min where c_min is the smallest eigenvalue of the
    leading n_modes block of the restricted Gram matrix, and the minimizing
    coefficient vector is returned as witness.  c_min decays exponentially
    in the mode count and is recomputed at extended precision once it drops
    below the float64-trustable range (_highprec.gram_block_solver).
    """
    return _packet_reports(basis, omega, [r])[0]


def spectral_obs_constants(basis, omega, r_list):
    """spectral_obs_constant at every cutoff of r_list, in order, bit for bit,
    from one float64 Gram matrix and one extended-precision block solver."""
    return _packet_reports(basis, omega, r_list)


def _packet_reports(basis, omega, r_list, op="spectral_obs_constant"):
    counts = [_count_modes(basis.domain, r, op) for r in r_list]
    lo, hi = omega
    M = restricted_mass_matrix(basis, lo, hi)
    # one mp Gram matrix for the largest cutoff serves every leading block
    solve = _highprec.gram_block_solver(
        min(basis.n_modes, max(counts, default=0)), lo, hi, basis.domain.length)
    reports = []
    for r, n in zip(r_list, counts):
        if n == 0:
            raise ArgumentError(f"{op}: cutoff r = {r:g} is below the first eigenvalue "
                                f"{basis.lambdas[0]:g}; the packet is empty")
        if n > basis.n_modes:
            raise ArgumentError(f"{op}: cutoff r = {r:g} needs {n} modes but the basis "
                                f"holds {basis.n_modes}")
        w, vecs = np.linalg.eigh(M[:n, :n])
        c_min = float(w[0])
        witness = vecs[:, 0]
        if c_min < _MP_ESCALATION * max(float(w[-1]), 1e-300):
            lam, witness = solve(n, witness if c_min > 0 else None)
            c_min = float(lam)
        else:
            witness = positive_sign(witness)
        reports.append(ObsReport(r=float(r), n_modes=n, c_min=c_min,
                                 specobs_constant=1.0 / c_min, witness=witness))
    return reports


def witness_identity_residual(basis, omega, report):
    """Relative defect of sum |c*|^2 = constant * ||sum c*_j psi_j||^2_omega.

    Evaluated at extended precision: the omega-norm of the extremal packet is
    c_min * ||c||^2, which sits below the float64 quadratic-form rounding
    floor for deep cutoffs.
    """
    lo, hi = omega
    q = _highprec.rayleigh_quotient_mp(
        report.n_modes, lo, hi, basis.domain.length, report.witness)
    ratio = float(q) * report.specobs_constant
    return abs(ratio - 1.0)


@dataclass(frozen=True)
class LineFit:
    intercept: float
    slope: float
    residual: float


@dataclass(frozen=True, eq=False)
class SpecObsSweep:
    reports: list
    sqrt_fit: LineFit   # -log c_min ~ a + b sqrt(r)
    linear_fit: LineFit  # -log c_min ~ a + b r
    preferred: str


def _line_fit(x, y):
    X = np.vstack([np.ones_like(x), x]).T
    coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = float(np.linalg.norm(y - X @ coef))
    return LineFit(intercept=float(coef[0]), slope=float(coef[1]), residual=resid)


def specobs_sweep_and_fit(basis, omega, r_list):
    """Fit -log c_min(r) against sqrt(r), with the linear-in-r fit as the
    competing model.  Needs >= 5 cutoffs spanning a factor >= 16."""
    r_list = [float(r) for r in r_list]
    if len(r_list) < 5:
        raise ArgumentError("specobs_sweep_and_fit: need at least 5 cutoffs")
    if max(r_list) < 16.0 * min(r_list):
        raise ArgumentError(
            "specobs_sweep_and_fit: cutoffs must span a factor of at least 16"
        )
    return fit_specobs_sweep(_packet_reports(basis, omega, r_list, "specobs_sweep_and_fit"))


def fit_specobs_sweep(reports):
    """specobs_sweep_and_fit's fits on reports already computed, in cutoff
    order; the cutoffs themselves are not re-checked."""
    if len({rep.n_modes for rep in reports}) < 2:
        raise ArgumentError(
            "specobs_sweep_and_fit: fewer than 2 distinct mode counts; "
            "insufficient data for a fit"
        )
    r = np.array([rep.r for rep in reports])
    y = -np.log(np.array([rep.c_min for rep in reports]))
    sqrt_fit = _line_fit(np.sqrt(r), y)
    linear_fit = _line_fit(r, y)
    preferred = "sqrt" if sqrt_fit.residual <= linear_fit.residual else "linear"
    return SpecObsSweep(reports=list(reports), sqrt_fit=sqrt_fit,
                        linear_fit=linear_fit, preferred=preferred)


def build_model(domain, kernel, n_modes):
    """The n_modes-mode model on domain: (basis, kmat, dec, m_omega).

    The sine basis, the kernel's Galerkin matrix, the eigendecomposition of
    L = -diag(lambda) + K, and the validated Gram matrix of the basis
    restricted to domain.omega.
    """
    basis = build_basis(domain, n_modes)
    kmat = project_kernel(kernel, basis)
    dec = decompose(assemble_generator(basis, kmat))
    m_omega = restricted_mass_matrix(basis, domain.omega_lo, domain.omega_hi)
    return basis, kmat, dec, _validate_mass(m_omega, basis.n_modes, "build_model")


@dataclass(frozen=True, eq=False)
class _EigenGramian:
    """A truncation's Gramians in the eigencoordinates of L = Q diag(mu) Q^T:
    dec and W = Q^T M_omega Q, the part of G_T that does not depend on T,
    formed once from a validated M_omega that is not kept."""
    dec: SpectralDecomposition
    W: np.ndarray

    @classmethod
    def of(cls, dec, m_omega, op):
        """From a caller's M_omega: the one _validate_mass call of entry point op."""
        return cls(dec, dec.modes.T @ _validate_mass(m_omega, dec.n_modes, op) @ dec.modes)

    @classmethod
    def build(cls, domain, kernel, n_modes):
        """build_model's n_modes-mode truncation; its K and M_omega are dropped."""
        _, _, dec, m_omega = build_model(domain, kernel, n_modes)
        return cls(dec, dec.modes.T @ m_omega @ dec.modes)

    def gramian(self, T):
        """Q^T G_T Q = W o Phi, symmetrized."""
        G = self.W * _phi(self.dec.mus[:, None] + self.dec.mus[None, :], T)
        return (G + G.T) / 2


def observability_gramian(dec, m_omega, T):
    """Closed-form G_T = int_0^T e^{Lt} M_omega e^{Lt} dt (symmetric PSD)."""
    T = _validate_time(T, "observability_gramian")
    gram = _EigenGramian.of(dec, m_omega, "observability_gramian")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite G is refused below
        G = dec.modes @ gram.gramian(T) @ dec.modes.T
        G = (G + G.T) / 2
    if not np.all(np.isfinite(G)):
        raise NumericError(f"observability_gramian: Gramian overflows float64 at T={T:g}")
    return G


def observability_cost(dec, m_omega, T):
    """Cost of control: the largest kappa with e^{2LT} w = kappa G_T w.

    The maximizing initial state is returned as witness (unit norm); kappa_T
    is the smallest constant for which the observability inequality holds on
    the truncation, and only its eigenpair is solved for.  A Gramian whose
    Cholesky fails gets a ridge of 1e-12 trace(G)/N, added once and
    announced only by a RuntimeWarning; such a kappa_T is not a bound.
    """
    T = _validate_time(T, "observability_cost")
    return _cost(_EigenGramian.of(dec, m_omega, "observability_cost"), T)


def _cost(gram, T):
    # observability_cost on an _EigenGramian; the ridge warning names the
    # line that called observability_cost
    dec = gram.dec
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are refused below
        G = gram.gramian(T)
        A = np.diag(np.exp(2.0 * dec.mus * T))
    if not (np.all(np.isfinite(G)) and np.all(np.isfinite(A))):
        raise NumericError(f"observability_cost: Gramian or e^(2LT) overflows float64 at T={T:g}")
    top = dict(subset_by_index=[dec.n_modes - 1] * 2, driver="gvx", check_finite=False)
    try:
        theta, vecs = sla.eigh(A, G, **top)
    except np.linalg.LinAlgError:
        ridge = _FALLBACK_RIDGE_SCALE * float(np.trace(G)) / dec.n_modes
        warnings.warn(
            f"observability_cost: Gramian not factorizable at T={T:g}; "
            f"retrying with ridge {ridge:.3e}",
            RuntimeWarning, stacklevel=3)
        try:
            theta, vecs = sla.eigh(A, G + ridge * np.eye(dec.n_modes), **top)
        except np.linalg.LinAlgError as exc:
            raise IllConditionedError(
                f"observability_cost: Gramian singular even with ridge {ridge:.3e}",
                eigenvalue=float(np.linalg.eigvalsh(G)[0]),
            ) from exc
    witness = dec.modes @ vecs[:, 0]
    witness = positive_sign(witness / np.linalg.norm(witness))
    return CostReport(T=float(T), n_used=dec.n_modes, kappa=float(theta[0]),
                      witness=witness, gram=gram)


# ---------------------------------------------------------------------------
# horizon sweep and blow-up fits

@dataclass(frozen=True, eq=False)
class SweepRow:
    T: float
    n_used: int
    report: CostReport = None
    error: str = None


@dataclass(frozen=True)
class PowerFit:
    """log kappa ~ intercept + coeff * T^{-alpha}.

    on_bound is set on the free fit when the profiled exponent ends within
    the search's final tolerance of 0.05 or 2, the ends of its range: the
    optimum is then the bound, not a blow-up rate.
    """
    alpha: float
    intercept: float
    coeff: float
    residual: float
    on_bound: bool = False


@dataclass(frozen=True, eq=False)
class CostSweep:
    rows: list
    fit_sqrt: PowerFit
    fit_inv: PowerFit
    fit_free: PowerFit
    preferred: str


def _power_fit(Ts, ys, alpha, on_bound=False):
    fit = _line_fit(Ts ** (-alpha), ys)
    return PowerFit(alpha=float(alpha), intercept=fit.intercept,
                    coeff=fit.slope, residual=fit.residual, on_bound=on_bound)


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


def _sign(v):
    return 1.0 if v >= 0.0 else -1.0


def _bounded_brent(func, a, b):
    """Minimise func on [a, b] by Brent's golden-section/parabolic search.

    A step-for-step port of scipy.optimize.minimize_scalar(method="bounded")
    (scipy's _minimize_scalar_bounded, Forsythe-Malcolm-Moler fmin) at its
    defaults xatol = 1e-5 and at most 500 evaluations: the same tolerances,
    steps and bracket updates, so the same evaluation points and the same
    minimiser bit for bit.  Returns (x, tol2), tol2 the final tolerance of the
    stop test at x.
    """
    xatol, maxfun = 1e-5, 500
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # parabola through xf, nfc and fulc
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _sign(xm - xf)
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, tol2


def _free_power_fit(Ts, ys):
    # profile least squares over the exponent with _bounded_brent, which
    # returns what scipy's bounded minimize_scalar does; restricted to the
    # blow-up regime (kappa > 1): the model a + C T^{-alpha} with C > 0
    # describes growth, and pre-asymptotic rows with kappa < 1 otherwise drag
    # alpha toward the degenerate logarithmic limit
    grow = ys > 0.0
    if np.count_nonzero(grow) >= 3:
        Ts, ys = Ts[grow], ys[grow]
    lo, hi = 0.05, 2.0
    alpha, tol2 = _bounded_brent(lambda a: _power_fit(Ts, ys, a).residual, lo, hi)
    return _power_fit(Ts, ys, alpha, on_bound=min(alpha - lo, hi - alpha) < tol2)


def truncation_for_horizon(domain, T, margin=8):
    """Frequency-coupled truncation: modes with lambda <= 1/T, plus margin."""
    T = _validate_time(T, "truncation_for_horizon")
    margin = _validate_int(margin, "truncation_for_horizon", "margin", 0)
    return _count_modes(domain, 1.0 / T, "truncation_for_horizon", "cutoff 1/T") + margin


def cost_sweep(domain, kernel, T_list, coupling=COUPLING_FIXED, n_fixed=None, margin=8):
    """Cost reports across horizons with fixed or T-coupled truncation.

    coupling "fixed" uses n_fixed modes everywhere; coupling
    "r-equals-1-over-T" grows the truncation as the horizon shrinks,
    N(T) = truncation_for_horizon(domain, T, margin), which is what lets the
    small-T blow-up exceed the ~1/T rate a fixed truncation is capped at.

    Returns per-horizon rows (argument and numeric failures are recorded per
    row) plus three fits of log kappa_T: exponents 1/2 and 1 over all rows,
    and the profiled free exponent over the blow-up regime (_free_power_fit).
    """
    T_list = [_validate_time(float(T), "cost_sweep", "horizons") for T in T_list]
    if len(set(T_list)) < 2:
        raise ArgumentError("cost_sweep: need at least 2 distinct horizons to fit")
    margin = _validate_int(margin, "cost_sweep", "margin", 0)
    if coupling == COUPLING_FIXED:
        n_fixed = _validate_int(n_fixed, "cost_sweep", "n_fixed", 1, MAX_MODES)  # and a missing one
        n_of_T = dict.fromkeys(T_list, n_fixed)
    elif coupling == COUPLING_RESOLVENT:
        n_of_T = {T: truncation_for_horizon(domain, T, margin) for T in T_list}
    else:
        raise ArgumentError(
            f"cost_sweep: unknown coupling {coupling!r} "
            f"(expected {COUPLING_FIXED!r} or {COUPLING_RESOLVENT!r})"
        )

    # one _EigenGramian per distinct truncation, or the error string that stopped its build
    models = {}
    for n in dict.fromkeys(n_of_T.values()):
        try:
            models[n] = _EigenGramian.build(domain, kernel, n)
        except (ArgumentError, NumericError) as exc:
            models[n] = f"{type(exc).__name__}: {exc}"

    rows = []
    for T in sorted(T_list, key=lambda T: -T):  # T descending, stable
        n = n_of_T[T]
        if isinstance(models[n], str):
            rows.append(SweepRow(T=T, n_used=n, error=models[n]))
            continue
        try:
            rows.append(SweepRow(T=T, n_used=n, report=_cost(models[n], T)))
        except (ArgumentError, NumericError) as exc:  # recorded per row, never fatal
            rows.append(SweepRow(T=T, n_used=n, error=f"{type(exc).__name__}: {exc}"))

    good = [row for row in rows if row.report is not None]
    if len({row.T for row in good}) < 2:
        raise NumericError("cost_sweep: fewer than 2 successful horizons; cannot fit")
    Ts = np.array([row.T for row in good])
    ys = np.log(np.array([row.report.kappa for row in good]))
    fit_sqrt = _power_fit(Ts, ys, 0.5)
    fit_inv = _power_fit(Ts, ys, 1.0)
    fit_free = _free_power_fit(Ts, ys)
    preferred = "sqrt" if fit_sqrt.residual <= fit_inv.residual else "inv"
    return CostSweep(rows=rows, fit_sqrt=fit_sqrt, fit_inv=fit_inv,
                     fit_free=fit_free, preferred=preferred)


# ---------------------------------------------------------------------------
# estimate-chain audit

@dataclass(frozen=True)
class ChainRow:
    t: float
    zeta: float
    log_chain_bound: float
    log_extremal_quotient: float


def proof_chain_report(basis, dec, r, T):
    """Audit the estimate chain pointwise in t on (0, T].

    For packets supported on modes with lambda_j <= r, chaining the three
    certified factors -- the semigroup norm at T, the spectral packet
    constant at r, and the left-inverse constant at t -- bounds the quotient
    ||e^{LT} u||^2 / ||e^{Lt} u||^2_omega from above.  Each grid row carries
    the log of that chained bound next to the log of the true extremal
    quotient (a generalized eigenvalue on the packet block); the chain must
    dominate at every t.  No single t is selected: the full grid is returned.
    C_r, zeta and the quotient all read the one window basis.domain.omega.
    """
    T = _validate_time(T, "proof_chain_report")
    obs = _packet_reports(basis, basis.domain.omega, [r], "proof_chain_report")[0]
    m_omega = restricted_mass_matrix(basis, *basis.domain.omega)
    n_r = obs.n_modes
    log_prefix = 2.0 * dec.mus[0] * T + np.log(obs.specobs_constant)
    e2 = dec.semigroup(2.0 * T)
    S = e2[:n_r, :n_r]
    ts = [T * i / CHAIN_GRID_POINTS for i in range(1, CHAIN_GRID_POINTS + 1)]
    rows = []
    for t, zeta in zip(ts, left_inverse_constants(dec, m_omega, ts)):
        R = _zeta_pencil(dec, m_omega, t)[:n_r, :n_r]
        try:
            theta = sla.eigh(S, R, eigvals_only=True)
        except np.linalg.LinAlgError as exc:
            raise IllConditionedError(
                f"proof_chain_report: packet block of the zeta pencil not positive "
                f"definite in float64 at t={t:g}", eigenvalue=float(np.linalg.eigvalsh(R)[0])
            ) from exc
        log_q = float(np.log(theta[-1]))
        rows.append(ChainRow(t=t, zeta=zeta,
                             log_chain_bound=log_prefix - 2.0 * np.log(zeta),
                             log_extremal_quotient=log_q))
    return rows
