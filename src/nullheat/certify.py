"""The certificate suite: every inequality the library claims, re-checked.

Each check returns (ok, detail) and is registered in CHECKS; run_all executes
them in order with a seeded generator, producing deterministic rows for the
pass/fail table.  The checks pair each closed-form route with an independent
oracle (dense midpoint rules, Crank-Nicolson stepping, brute-force time
quadrature, random-vector inequalities) and pin every tolerance explicitly.

Within one run_all, the checks share what they would otherwise rebuild: each
(domain, kernel, N) model comes from _model and the 26-mode packet sweep on
omega = (0.3, 0.8) from _packet_sweep, both computed once per run and handed
out with their arrays read-only.  The memo behind them lives only while
run_all runs; a check called on its own computes everything itself, and no
library function caches.
"""

import contextvars

import numpy as np

from .basis import (Domain, _validate_int, build_basis, eval_mode, gauss_quadrature,
                    restricted_mass_matrix)
from .bundled import bundled_kernels
from .control import control_cost, hum_control, lr_staged_control, simulate_controlled
from .errors import (ArgumentError, ConfigError, KernelFormatError, NumericError,
                     OverflowRefusalError)
from .evolution import (assemble_generator, left_inverse_constants, propagate,
                        propagate_backward, semigroup_norm)
from .kernels import GaussianKernel, SeparableKernel, ZeroKernel, project_kernel
from . import oracles
from .observability import (COUPLING_RESOLVENT, build_model, cost_sweep,
                            fit_specobs_sweep, observability_cost,
                            observability_gramian, proof_chain_report,
                            spectral_obs_constant, spectral_obs_constants,
                            specobs_sweep_and_fit, witness_identity_residual)

DEFAULT_DOMAIN = Domain(length=1.0, omega_lo=0.3, omega_hi=0.8)
_PACKET_CUTOFFS = tuple(((n + 0.5) * np.pi) ** 2 for n in range(2, 25))
_KAPPA_SCALAR = lambda T: 2 * np.pi ** 2 * np.exp(-2 * np.pi ** 2 * T) / (
    1 - np.exp(-2 * np.pi ** 2 * T))


# a dict while run_all runs in this thread or task, else None
_RUN_MEMO = contextvars.ContextVar("certify_run_memo", default=None)


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


def _shared(key, compute):
    # compute() once per run_all; outside a run, every call computes afresh
    memo = _RUN_MEMO.get()
    if memo is None:
        return compute()
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _model(domain, kernel, n):
    """build_model(domain, kernel, n) with its arrays read-only, built once
    per run_all for each (domain, kernel, n)."""
    def compute():
        model = build_model(domain, kernel, n)
        basis, kmat, dec, m_omega = model
        _read_only(basis.lambdas, kmat.matrix, dec.mus, dec.modes, m_omega)
        return model
    return _shared(("model", domain, kernel, n), compute)


def _packet_sweep():
    """(basis, cutoffs, reports): the 26-mode basis on DEFAULT_DOMAIN, the 23
    cutoffs ((n + 1/2) pi)^2, n = 2..24, and their spectral_obs_constants on
    (0.3, 0.8), computed once per run_all."""
    def compute():
        basis = build_basis(DEFAULT_DOMAIN, 26)
        reports = tuple(spectral_obs_constants(basis, (0.3, 0.8), _PACKET_CUTOFFS))
        _read_only(basis.lambdas, *(rep.witness for rep in reports))
        return basis, _PACKET_CUTOFFS, reports
    return _shared(("packet-sweep",), compute)


def check_eigenvalues_exact(rng):
    basis = build_basis(Domain(np.pi, 0.5, 1.5), 4)
    err = np.max(np.abs(basis.lambdas - np.array([1.0, 4.0, 9.0, 16.0])))
    basis1 = build_basis(DEFAULT_DOMAIN, 1)
    err = max(err, abs(basis1.lambdas[0] - np.pi ** 2))
    return err == 0.0, f"max eigenvalue defect {err:.2e}"


def check_mode_normalization(rng):
    basis = build_basis(DEFAULT_DOMAIN, 8)
    val = gauss_quadrature(lambda x: eval_mode(basis, 3, x) ** 2, 0.0, 1.0, 8)
    return abs(val - 1.0) <= 1e-12, f"|int psi_3^2 - 1| = {abs(val - 1):.2e}"


def check_mass_identity_full_domain(rng):
    basis = build_basis(DEFAULT_DOMAIN, 32)
    M = restricted_mass_matrix(basis, 0.0, 1.0)
    defect = np.max(np.abs(M - np.eye(32)))
    return defect <= 1e-14, f"||M_Omega - I||_max = {defect:.2e}"


def _gram_by_quadrature(basis, lo, hi, panels):
    """int_lo^hi psi_i psi_j dx for all mode pairs by composite 8-point Gauss-
    Legendre, in eval_mode's arithmetic."""
    ell, modes = basis.domain.length, np.arange(1, basis.n_modes + 1)[:, None]
    psi = lambda x: np.sqrt(2.0 / ell) * np.sin(modes * np.pi * x / ell)
    return gauss_quadrature(lambda x: psi(x)[:, None] * psi(x)[None, :], lo, hi, panels)


def check_mass_gram_consistency(rng):
    basis = build_basis(DEFAULT_DOMAIN, 16)
    worst = 0.0
    for _ in range(10):
        lo, hi = np.sort(rng.uniform(0.0, 1.0, size=2))
        if hi - lo < 1e-3:
            hi = min(1.0, lo + 1e-3)
        M = restricted_mass_matrix(basis, lo, hi)
        panels = max(1, int(np.ceil((hi - lo) * 16)))
        defect = np.abs(M - _gram_by_quadrature(basis, lo, hi, panels))
        worst = max(worst, float(np.max(defect[np.triu_indices(16)])))
    return worst <= 1e-10, f"max closed-form vs quadrature defect {worst:.2e}"


def check_mass_spectrum_bounds(rng):
    worst_lo, worst_hi = 0.0, 0.0
    for n in (8, 16, 32):
        basis = build_basis(DEFAULT_DOMAIN, n)
        for lo, hi in ((0.3, 0.8), (0.0, 0.5), (0.45, 0.55)):
            w = np.linalg.eigvalsh(restricted_mass_matrix(basis, lo, hi))
            worst_lo = min(worst_lo, float(w[0]))
            worst_hi = max(worst_hi, float(w[-1]))
    ok = worst_lo >= -1e-12 and worst_hi <= 1.0 + 1e-12
    return ok, f"spectrum within [{worst_lo:.2e}, {worst_hi:.8f}]"


def check_mass_monotonicity(rng):
    basis = build_basis(DEFAULT_DOMAIN, 12)
    M1 = restricted_mass_matrix(basis, 0.4, 0.7)
    M2 = restricted_mass_matrix(basis, 0.3, 0.8)
    C = rng.standard_normal((100, 12))
    q1 = np.einsum("ij,jk,ik->i", C, M1, C)
    q2 = np.einsum("ij,jk,ik->i", C, M2, C)
    worst = float(np.max(q1 - q2))
    return worst <= 1e-12, f"max quadratic-form excess {worst:.2e}"


def check_hs_domination(rng):
    worst = -np.inf
    for name, kernel in bundled_kernels():
        for n in (4, 8, 16, 32):
            kmat = _model(DEFAULT_DOMAIN, kernel, n)[1]
            if kmat.hs_of_k == 0.0:
                ok_here = kmat.frobenius == 0.0
                worst = max(worst, 0.0 if ok_here else 1.0)
                continue
            rel = max(kmat.spectral_radius / kmat.frobenius if kmat.frobenius else 0.0,
                      kmat.frobenius / (kmat.hs_of_k * (1 + 1e-8)))
            worst = max(worst, rel)
    return worst <= 1.0, f"max domination ratio {worst:.10f}"


def check_truncation_monotone(rng):
    ok = True
    detail = []
    for name, kernel in bundled_kernels():
        fr = []
        for n in (4, 8, 16, 32):
            fr.append(_model(DEFAULT_DOMAIN, kernel, n)[1].frobenius)
        ok = ok and all(b >= a - 1e-12 for a, b in zip(fr, fr[1:]))
        detail.append(f"{name}:{fr[-1]:.4f}")
    return ok, "Frobenius ladder " + " ".join(detail)


def check_separable_exact(rng):
    kernel = SeparableKernel(g_coeffs=np.array([1.0, 0.0, -0.5]),
                             h_coeffs=np.array([0.25, 1.5]))
    basis = build_basis(DEFAULT_DOMAIN, 8)
    K = project_kernel(kernel, basis).matrix
    K_quad = oracles.midpoint_project_kernel(kernel, basis, n_points=4096)
    defect = float(np.max(np.abs(K - K_quad)))
    g = np.zeros(8); g[:3] = kernel.g_coeffs
    h = np.zeros(8); h[:2] = kernel.h_coeffs
    closed = 0.5 * (np.outer(g, h) + np.outer(h, g))
    exact = float(np.max(np.abs(K - closed)))
    return exact <= 1e-14 and defect <= 1e-6, \
        f"closed-form defect {exact:.2e}, midpoint-oracle defect {defect:.2e}"


def check_projection_symmetric_bitwise(rng):
    # K == K^T for every bundled kernel; the Gaussians are also symmetric
    # about ell/2, which makes K[m, n] vanish for m + n odd: those entries
    # must read 0.0 exactly, not rounding noise
    ok, gaussians, zeros = True, 0, 0
    odd = np.add.outer(np.arange(16), np.arange(16)) % 2 == 1
    for name, kernel in bundled_kernels():
        K = _model(DEFAULT_DOMAIN, kernel, 16)[1].matrix
        ok = ok and np.array_equal(K, K.T)
        if isinstance(kernel, GaussianKernel):
            gaussians += 1
            zeros += int(np.count_nonzero(K[odd] == 0.0))
    total = gaussians * int(np.count_nonzero(odd))
    return ok and 0 < zeros == total, (
        f"K == K^T bitwise for all bundled kernels; {zeros} of {total} odd m + n "
        f"entries of the {gaussians} Gaussians exactly 0.0")


def check_gaussian_projection_oracle(rng):
    # midpoint-rule error is O(h^2) and scales with the kernel peak; 4096
    # points per axis brings the oracle itself under the 1e-6 target
    kernel = GaussianKernel(amplitude=5.0, width=0.2)
    basis, kmat = _model(DEFAULT_DOMAIN, kernel, 16)[:2]
    mid = oracles.midpoint_projection(kernel, basis, n_points=4096)
    defect = float(np.max(np.abs(kmat.matrix - mid.matrix)))
    hs_mid = mid.hs_of_k
    return defect <= 1e-6 and abs(kmat.hs_of_k - hs_mid) <= 1e-6, \
        f"entry defect {defect:.2e}, hs defect {abs(kmat.hs_of_k - hs_mid):.2e}"


def check_grid_roundtrip(rng):
    kernel = bundled_kernels()[4][1]
    basis, kmat = _model(DEFAULT_DOMAIN, kernel, 16)[:2]
    K_mid = oracles.midpoint_project_kernel(kernel, basis, n_points=1024)
    defect = float(np.max(np.abs(kmat.matrix - K_mid)))
    return defect <= 1e-5, f"grid interpolant projection defect {defect:.2e}"


def check_semigroup_law(rng):
    dec = _model(DEFAULT_DOMAIN, GaussianKernel(5.0, 0.2), 16)[2]
    v = rng.standard_normal(16)
    worst = 0.0
    for s in (0.01, 0.1, 1.0):
        for t in (0.01, 0.1, 1.0):
            lhs = propagate(dec, v, s + t)
            rhs = propagate(dec, propagate(dec, v, s), t)
            worst = max(worst, float(np.linalg.norm(lhs - rhs) /
                                     max(np.linalg.norm(lhs), 1e-300)))
    return worst <= 1e-9, f"max relative law defect {worst:.2e}"


def check_growth_bound(rng):
    lam1 = np.pi ** 2
    worst = -np.inf
    for name, kernel in bundled_kernels():
        _, kmat, dec, _ = _model(DEFAULT_DOMAIN, kernel, 32)
        for t in np.linspace(0.1, 5.0, 50):
            bound = np.exp((-lam1 + kmat.hs_of_k) * t) * (1 + 1e-10)
            ratio = semigroup_norm(dec, t) / bound
            worst = max(worst, ratio)
    return worst <= 1.0, f"max norm/bound ratio {worst:.12f}"


def check_weyl(rng):
    worst = -np.inf
    for name, kernel in bundled_kernels():
        for n in (4, 8, 16, 32):
            basis, kmat, dec, _ = _model(DEFAULT_DOMAIN, kernel, n)
            shift = np.max(np.abs(dec.mus + basis.lambdas))
            worst = max(worst, shift - kmat.frobenius)
    return worst <= 1e-10, f"max |mu_j + lambda_j| - ||K||_F = {worst:.2e}"


def check_left_inverse(rng):
    ok = True
    details = []
    for kernel in (ZeroKernel(), GaussianKernel(5.0, 0.2)):
        for n, ts in ((8, (0.01, 0.05, 0.1)), (16, (0.005, 0.02))):
            _, _, dec, m_omega = _model(DEFAULT_DOMAIN, kernel, n)
            z0, *zetas = left_inverse_constants(dec, m_omega, (0.0,) + ts)
            ok = ok and z0 == 1.0
            for t, zeta in zip(ts, zetas):
                ok = ok and zeta > 0.0
                V = rng.standard_normal((100, n))
                et = dec.semigroup(t)
                EV = V @ et.T
                lhs = zeta * np.sqrt(np.einsum("ij,jk,ik->i", V, m_omega, V))
                rhs = np.sqrt(np.einsum("ij,jk,ik->i", EV, m_omega, EV))
                ok = ok and bool(np.all(lhs <= rhs + 1e-10))
            details.append(f"n={n} zeta({ts[-1]})={zeta:.3e}")
    return ok, "; ".join(details)


def check_propagation_oracle(rng):
    worst = 0.0
    for name, kernel in bundled_kernels():
        basis, kmat, dec, _ = _model(DEFAULT_DOMAIN, kernel, 32)
        lmat = assemble_generator(basis, kmat)
        v = rng.standard_normal(32)
        exact = propagate(dec, v, 0.1)
        cn = oracles.crank_nicolson_propagate(lmat, v, 0.1, steps=10_000)
        worst = max(worst, float(np.linalg.norm(exact - cn) / np.linalg.norm(exact)))
    return worst <= 1e-6, f"max relative defect vs Crank-Nicolson {worst:.2e}"


def check_backward_roundtrip(rng):
    # the 1e-8 roundtrip guarantee holds for t * spread(mu) <= 30
    dec = _model(DEFAULT_DOMAIN, GaussianKernel(5.0, 0.2), 6)[2]
    v = rng.standard_normal(6)
    w = propagate(dec, propagate_backward(dec, v, 0.05), 0.05)
    defect = float(np.linalg.norm(w - v) / np.linalg.norm(v))
    try:
        propagate_backward(dec, v, 10.0)
        refused = False
    except OverflowRefusalError:
        refused = True
    return defect <= 1e-8 and refused, f"roundtrip defect {defect:.2e}, guard fired {refused}"


def check_packet_constants(rng):
    full = build_basis(Domain(1.0, 0.0, 1.0), 8)
    rep_full = spectral_obs_constant(full, (0.0, 1.0), 200.0)
    ok = abs(rep_full.c_min - 1.0) <= 1e-12
    basis, _, reports = _packet_sweep()
    cs = np.array([rep.c_min for rep in reports])
    ok = ok and bool(np.all(cs > 0.0)) and bool(np.all(np.diff(cs) < 0.0))
    y = -np.log(cs)
    ok = ok and bool(np.all(np.diff(y, 2) > -1e-9))
    worst_wit = max(witness_identity_residual(basis, (0.3, 0.8), rep)
                    for rep in (reports[0], reports[10], reports[-1]))
    ok = ok and worst_wit <= 1e-8
    return ok, (f"c_min range [{cs[-1]:.3e}, {cs[0]:.3e}], "
                f"worst witness defect {worst_wit:.2e}")


def check_packet_inequality(rng):
    basis = build_basis(DEFAULT_DOMAIN, 16)
    rep = spectral_obs_constant(basis, (0.3, 0.8), ((12.5 * np.pi) ** 2))
    M = restricted_mass_matrix(basis, 0.3, 0.8)[: rep.n_modes, : rep.n_modes]
    q = oracles.sampled_min_packet_quotient(basis, M, 100, rng)
    ok = rep.specobs_constant * q * (1 + 1e-10) >= 1.0
    return ok, f"100 random packets within constant {rep.specobs_constant:.3e}"


def check_packet_fit(rng):
    _, rs, reports = _packet_sweep()
    sweep = fit_specobs_sweep(reports)
    ok = sweep.preferred == "sqrt"
    half = specobs_sweep_and_fit(
        build_basis(Domain(1.0, 0.425, 0.675), 26), (0.425, 0.675), rs)
    ok = ok and half.sqrt_fit.slope > sweep.sqrt_fit.slope
    return ok, (f"sqrt residual {sweep.sqrt_fit.residual:.3f} vs linear "
                f"{sweep.linear_fit.residual:.3f}; slope grows "
                f"{sweep.sqrt_fit.slope:.3f} -> {half.sqrt_fit.slope:.3f} on half omega")


def check_gramian_psd_taylor(rng):
    _, _, dec, m_omega = _model(DEFAULT_DOMAIN, GaussianKernel(5.0, 0.2), 12)
    G = observability_gramian(dec, m_omega, 0.4)
    w = np.linalg.eigvalsh(G)
    ok = w[0] >= -1e-12 * max(w[-1], 1.0)
    ok = ok and float(np.max(np.abs(G - G.T))) <= 1e-13
    T = 1e-5
    G_small = observability_gramian(dec, m_omega, T)
    lnorm = float(np.linalg.norm(
        dec.modes @ (dec.mus[:, None] * dec.modes.T), 2))
    bound = 10.0 * T ** 2 * lnorm * float(np.linalg.norm(m_omega, 2))
    defect = float(np.max(np.abs(G_small - T * m_omega)))
    ok = ok and defect <= bound
    return ok, f"min eig {w[0]:.2e}; Taylor defect {defect:.2e} <= {bound:.2e}"


def check_gramian_oracle(rng):
    _, _, dec, m_omega = _model(DEFAULT_DOMAIN, GaussianKernel(5.0, 0.2), 16)
    G = observability_gramian(dec, m_omega, 0.25)
    G_quad = oracles.gramian_time_quadrature(dec, m_omega, 0.25, n_nodes=2000)
    rel = float(np.linalg.norm(G - G_quad) / np.linalg.norm(G))
    return rel <= 1e-8, f"relative Frobenius defect {rel:.2e}"


def check_cost_scalar_oracle(rng):
    _, _, dec, m_omega = _model(Domain(1.0, 0.0, 1.0), ZeroKernel(), 1)
    worst = 0.0
    for T in (0.05, 0.1, 0.5, 1.0):
        rep = observability_cost(dec, m_omega, T)
        worst = max(worst, abs(rep.kappa - _KAPPA_SCALAR(T)) / _KAPPA_SCALAR(T))
    return worst <= 1e-8, f"max relative defect vs closed form {worst:.2e}"


def check_cost_inequality_witness(rng):
    _, _, dec, m_omega = _model(DEFAULT_DOMAIN, GaussianKernel(5.0, 0.2), 16)
    T = 0.5
    rep = observability_cost(dec, m_omega, T)
    G = observability_gramian(dec, m_omega, T)
    ok = oracles.sampled_max_cost_quotient(dec, m_omega, G, T, 100, rng) <= rep.kappa * (1 + 1e-8)
    elt = dec.semigroup(T)
    w = rep.witness
    ident = abs(rep.kappa * (w @ G @ w) - np.sum((elt @ w) ** 2)) / (
        rep.kappa * (w @ G @ w))
    ok = ok and ident <= 1e-8
    return ok, f"witness identity defect {ident:.2e}"


def check_cost_monotonicity(rng):
    basis, _, dec, m_omega = _model(DEFAULT_DOMAIN, GaussianKernel(5.0, 0.2), 12)
    kappas = [observability_cost(dec, m_omega, T).kappa for T in (0.8, 0.4, 0.2, 0.1)]
    ok = bool(np.all(np.diff(kappas) > 0.0))  # increasing as T decreases
    nested = []
    for lo, hi in ((0.35, 0.65), (0.3, 0.8), (0.1, 0.9)):
        m_omega = restricted_mass_matrix(basis, lo, hi)
        nested.append(observability_cost(dec, m_omega, 0.3).kappa)
    ok = ok and nested[0] >= nested[1] >= nested[2]
    return ok, (f"kappa rises {kappas[0]:.3e} -> {kappas[-1]:.3e} as T drops; "
                f"falls {nested[0]:.3e} -> {nested[-1]:.3e} as omega grows")


def check_chain_dominance(rng):
    basis, _, dec, _ = _model(DEFAULT_DOMAIN, GaussianKernel(5.0, 0.2), 8)
    rows = proof_chain_report(basis, dec, r=9.5 * np.pi ** 2, T=0.1)
    margins = [row.log_chain_bound - row.log_extremal_quotient for row in rows]
    ok = all(m >= -1e-9 for m in margins)
    return ok, f"min log margin {min(margins):.3f} over {len(rows)} grid points"


def check_null_control_unstable(rng):
    _, _, dec, m_omega = _model(DEFAULT_DOMAIN, GaussianKernel(20.0, 0.15), 32)
    ok = dec.mus[0] > 0.0
    u0 = np.zeros(32)
    u0[0] = 1.0
    T = 0.5
    free = float(np.linalg.norm(propagate(dec, u0, T)))
    ok = ok and free > 1.0
    result = hum_control(dec, m_omega, u0, T, nt=4097, ridge=0.0)
    ok = ok and result.terminal_residual <= 1e-6 and result.ridge_used == 0.0
    sim = simulate_controlled(dec, m_omega, u0, result.control_coeffs, T, nt_fine=16385)
    ok = ok and abs(sim.terminal_norm - result.terminal_residual) <= 1e-5
    kappa = observability_cost(dec, m_omega, T).kappa
    ok = ok and result.cost_sq <= kappa * (1 + 1e-6)
    return ok, (f"mu_1 = {dec.mus[0]:.3f}, free growth {free:.1f}x, residual "
                f"{result.terminal_residual:.2e}, simulated {sim.terminal_norm:.2e}, "
                f"cost {result.cost_sq:.4f} <= kappa {kappa:.4f}")


def check_duality_sharpness(rng):
    _, _, dec, m_omega = _model(DEFAULT_DOMAIN, GaussianKernel(20.0, 0.15), 32)
    T = 0.5
    rep = observability_cost(dec, m_omega, T)
    u0 = propagate(dec, rep.witness, T)
    u0 = u0 / np.linalg.norm(u0)
    result = hum_control(dec, m_omega, u0, T, nt=64)
    rel = abs(result.cost_sq / rep.kappa - 1.0)
    ok = rel <= 1e-4
    V = rng.standard_normal((100, 32))
    worst = 0.0
    for v in V:
        res = hum_control(dec, m_omega, v, T, nt=16)
        worst = max(worst, res.cost_sq / (rep.kappa * float(v @ v)))
    ok = ok and worst <= 1 + 1e-6
    return ok, f"extremal ratio defect {rel:.2e}; max random ratio {worst:.8f}"


def check_control_linearity(rng):
    _, _, dec, m_omega = _model(DEFAULT_DOMAIN, GaussianKernel(5.0, 0.2), 12)
    u = rng.standard_normal(12)
    v = rng.standard_normal(12)
    a, b = 0.7, -1.3
    T = 0.4
    cu = hum_control(dec, m_omega, u, T, nt=32)
    cv = hum_control(dec, m_omega, v, T, nt=32)
    cw = hum_control(dec, m_omega, a * u + b * v, T, nt=32)
    mix = a * cu.control_coeffs + b * cv.control_coeffs
    defect = float(np.max(np.abs(cw.control_coeffs - mix)))
    c2 = hum_control(dec, m_omega, 2 * u, T, nt=32)
    scale = abs(c2.cost_sq - 4 * cu.cost_sq) / (4 * cu.cost_sq)
    zero = hum_control(dec, m_omega, np.zeros(12), T, nt=32)
    ok = (defect <= 1e-9 and scale <= 1e-12
          and zero.cost_sq == 0.0 and zero.terminal_residual == 0.0)
    return ok, f"superposition defect {defect:.2e}, homogeneity defect {scale:.2e}"


def check_control_cost_quadrature(rng):
    _, _, dec, m_omega = _model(DEFAULT_DOMAIN, GaussianKernel(5.0, 0.2), 16)
    u0 = rng.standard_normal(16)
    result = hum_control(dec, m_omega, u0, 0.5, nt=64)
    requad = control_cost(result, m_omega, dec)
    rel = abs(requad - result.cost_sq) / result.cost_sq
    return rel <= 1e-6, f"quadrature vs closed-form cost defect {rel:.2e}"


def check_staged_control(rng):
    ok = True
    details = []
    u0 = np.ones(16) / 4.0
    for name, kernel in (("zero", ZeroKernel()), ("gaussian", GaussianKernel(5.0, 0.2))):
        result = lr_staged_control(DEFAULT_DOMAIN, kernel, u0, T=1.0, stages=4,
                                   r0=np.pi ** 2, nt=1025)
        res = [stage.residual_after_passive for stage in result.stage_log]
        ok = ok and all(b < a for a, b in zip([1.0] + res[:-1], res))
        ok = ok and all(s.lowmode_after_active <= 1e-8 for s in result.stage_log)
        ok = ok and result.terminal_residual <= 1e-3
        details.append(f"{name}: final {result.terminal_residual:.2e}")
        if isinstance(kernel, ZeroKernel):
            basis, _, dec, _ = _model(DEFAULT_DOMAIN, kernel, result.control_coeffs.shape[1])
            stage = result.stage_log[1]
            half = stage.t_end - stage.t_mid
            lam = basis.lambdas
            # passive halves decay every mode exactly when K = 0
            v = rng.standard_normal(basis.n_modes)
            w = propagate(dec, v, half)
            defect = float(np.max(np.abs(w - v * np.exp(-lam * half))))
            ok = ok and defect <= 1e-10
    return ok, "; ".join(details)


def check_blowup_sweep(rng):
    sweep = cost_sweep(DEFAULT_DOMAIN, ZeroKernel(),
                       [0.4, 0.2, 0.1, 0.05, 0.025],
                       coupling=COUPLING_RESOLVENT, margin=8)
    kappas = [row.report.kappa for row in sweep.rows]
    ok = all(b > a for a, b in zip(kappas, kappas[1:]))  # rows are T-descending
    ok = ok and 0.3 < sweep.fit_free.alpha < 1.2
    return ok, (f"kappa {kappas[0]:.3e} -> {kappas[-1]:.3e}; alpha_hat "
                f"{sweep.fit_free.alpha:.3f}; residuals sqrt {sweep.fit_sqrt.residual:.3f} "
                f"/ inv {sweep.fit_inv.residual:.3f}")


CHECKS = [
    ("eigenvalues-exact", check_eigenvalues_exact),
    ("mode-normalization", check_mode_normalization),
    ("mass-identity-full-domain", check_mass_identity_full_domain),
    ("mass-gram-consistency", check_mass_gram_consistency),
    ("mass-spectrum-bounds", check_mass_spectrum_bounds),
    ("mass-monotonicity", check_mass_monotonicity),
    ("hs-domination", check_hs_domination),
    ("truncation-monotone", check_truncation_monotone),
    ("separable-exact", check_separable_exact),
    ("projection-symmetric-bitwise", check_projection_symmetric_bitwise),
    ("gaussian-projection-oracle", check_gaussian_projection_oracle),
    ("grid-projection-oracle", check_grid_roundtrip),
    ("semigroup-law", check_semigroup_law),
    ("growth-bound", check_growth_bound),
    ("weyl-shift", check_weyl),
    ("left-inverse", check_left_inverse),
    ("propagation-oracle", check_propagation_oracle),
    ("backward-roundtrip", check_backward_roundtrip),
    ("packet-constants", check_packet_constants),
    ("packet-inequality", check_packet_inequality),
    ("packet-fit", check_packet_fit),
    ("gramian-psd-taylor", check_gramian_psd_taylor),
    ("gramian-oracle", check_gramian_oracle),
    ("cost-scalar-oracle", check_cost_scalar_oracle),
    ("cost-inequality-witness", check_cost_inequality_witness),
    ("cost-monotonicity", check_cost_monotonicity),
    ("chain-dominance", check_chain_dominance),
    ("null-control-unstable", check_null_control_unstable),
    ("duality-sharpness", check_duality_sharpness),
    ("control-linearity", check_control_linearity),
    ("control-cost-quadrature", check_control_cost_quadrature),
    ("staged-control", check_staged_control),
    ("blowup-sweep", check_blowup_sweep),
]


def run_all(seed=20260809):
    """Run every registered check with a seeded generator.

    Returns a list of (name, ok, detail) rows in registry order; the
    generator is re-seeded per check so single checks reproduce exactly.
    A check that raises one of the package's errors gives a failed row; any
    other exception is a bug and propagates.

    The checks share one memo for the length of the run: each (domain,
    kernel, N) model and the (0.3, 0.8) packet sweep are computed once, with
    read-only arrays, so a check that writes into one raises rather than
    alter a later check.  The memo is dropped when run_all returns; the next
    run, like a check called on its own, computes everything afresh.
    """
    seed = _validate_int(seed, "run_all", "seed", 0)
    token = _RUN_MEMO.set({})
    try:
        rows = []
        for name, fn in CHECKS:
            rng = np.random.default_rng(seed)
            try:
                ok, detail = fn(rng)
            except (ArgumentError, ConfigError, KernelFormatError, NumericError) as exc:
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            rows.append((name, bool(ok), detail))
        return rows
    finally:
        _RUN_MEMO.reset(token)
