"""Acceptance suite: one test per verification target, stated tolerances only.

Each test prints a single summary line so a plain run (pytest -s) reads as a
pass/fail table for the eleven targets.
"""

import time

import numpy as np

from nullheat import (COUPLING_RESOLVENT, Domain, GaussianKernel, ZeroKernel,
                      assemble_generator, build_basis, cost_sweep, decompose,
                      hum_control, left_inverse_constant, lr_staged_control,
                      observability_cost, project_kernel, propagate,
                      restricted_mass_matrix, semigroup_norm,
                      simulate_controlled, specobs_sweep_and_fit,
                      witness_identity_residual)
from nullheat import cli, oracles
from nullheat.bundled import bundled_kernels

DOMAIN = Domain(1.0, 0.3, 0.8)


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _dec(kernel, n, domain=DOMAIN):
    basis = build_basis(domain, n)
    kmat = project_kernel(kernel, basis)
    return basis, kmat, decompose(assemble_generator(basis, kmat))


def test_criterion_01_scalar_cost_oracle():
    t0 = time.perf_counter()
    domain = Domain(1.0, 0.0, 1.0)
    basis, _, dec = _dec(ZeroKernel(), 1, domain)
    m_omega = restricted_mass_matrix(basis, 0.0, 1.0)
    lam = np.pi ** 2
    worst = 0.0
    for T in (0.05, 0.1, 0.5, 1.0):
        closed = 2 * lam * np.exp(-2 * lam * T) / (1 - np.exp(-2 * lam * T))
        kappa = observability_cost(dec, m_omega, T).kappa
        worst = max(worst, abs(kappa - closed) / closed)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    _report(1, ok, f"scalar cost oracle: max rel defect {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_growth_bound_certificate():
    t0 = time.perf_counter()
    lam1 = np.pi ** 2
    worst = -np.inf
    for name, kernel in bundled_kernels():
        basis, kmat, dec = _dec(kernel, 32)
        for t in np.linspace(0.1, 5.0, 50):
            bound = np.exp((-lam1 + kmat.hs_of_k) * t) * (1 + 1e-10)
            worst = max(worst, semigroup_norm(dec, t) / bound)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 5.0
    _report(2, ok, f"growth bound: max norm/bound ratio {worst:.12f} over 5 kernels "
                   f"x 50 times, {elapsed:.2f}s")


def test_criterion_03_eigenvalue_shift_certificate():
    worst = -np.inf
    for name, kernel in bundled_kernels():
        for n in (4, 8, 16, 32):
            basis, kmat, dec = _dec(kernel, n)
            worst = max(worst, float(np.max(np.abs(dec.mus + basis.lambdas)))
                        - kmat.frobenius)
    ok = worst <= 1e-10
    _report(3, ok, f"eigenvalue shift: max excess over Frobenius bound {worst:.2e}")


def test_criterion_04_packet_constant_behavior():
    t0 = time.perf_counter()
    basis = build_basis(DOMAIN, 26)
    rs = [((n + 0.5) * np.pi) ** 2 for n in range(2, 25)]
    sweep = specobs_sweep_and_fit(basis, (0.3, 0.8), rs)
    cs = np.array([rep.c_min for rep in sweep.reports])
    counts = [rep.n_modes for rep in sweep.reports]
    ok = counts == list(range(2, 25))
    ok = ok and bool(np.all(cs > 0.0)) and bool(np.all(np.diff(cs) < 0.0))
    ok = ok and sweep.sqrt_fit.residual < sweep.linear_fit.residual
    worst_wit = max(witness_identity_residual(basis, (0.3, 0.8), rep)
                    for rep in sweep.reports)
    ok = ok and worst_wit <= 1e-8
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(4, ok, f"packet constants 2..24 modes: c_min in [{cs[-1]:.2e}, {cs[0]:.2e}], "
                   f"sqrt fit {sweep.sqrt_fit.residual:.2f} < linear "
                   f"{sweep.linear_fit.residual:.2f}, witness defect {worst_wit:.1e}, "
                   f"{elapsed:.2f}s")


def test_criterion_05_gramian_oracle():
    basis, _, dec = _dec(GaussianKernel(5.0, 0.2), 16)
    m_omega = restricted_mass_matrix(basis, 0.3, 0.8)
    from nullheat import observability_gramian
    G = observability_gramian(dec, m_omega, 0.25)
    G_quad = oracles.gramian_time_quadrature(dec, m_omega, 0.25, n_nodes=2000)
    rel = float(np.linalg.norm(G - G_quad) / np.linalg.norm(G))
    ok = rel <= 1e-8
    _report(5, ok, f"gramian closed form vs 2000-node time quadrature: "
                   f"rel Frobenius defect {rel:.2e}")


def test_criterion_06_null_control_unstable_system():
    t0 = time.perf_counter()
    basis, _, dec = _dec(GaussianKernel(20.0, 0.15), 32)
    ok = dec.mus[0] > 0.0
    m_omega = restricted_mass_matrix(basis, 0.3, 0.8)
    u0 = np.zeros(32)
    u0[0] = 1.0
    T = 0.5
    result = hum_control(dec, m_omega, u0, T, nt=4097, ridge=0.0)
    ok = ok and result.terminal_residual <= 1e-6
    sim = simulate_controlled(dec, m_omega, u0, result.control_coeffs, T,
                              nt_fine=16385)
    ok = ok and abs(sim.terminal_norm - result.terminal_residual) <= 1e-5
    kappa = observability_cost(dec, m_omega, T).kappa
    ok = ok and result.cost_sq <= kappa * (1 + 1e-6)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(6, ok, f"unstable null control: mu_1 {dec.mus[0]:.3f} > 0, residual "
                   f"{result.terminal_residual:.1e}, simulated {sim.terminal_norm:.1e}, "
                   f"cost {result.cost_sq:.4f} <= kappa {kappa:.4f}, {elapsed:.2f}s")


def test_criterion_07_duality_sharpness():
    basis, _, dec = _dec(GaussianKernel(20.0, 0.15), 32)
    m_omega = restricted_mass_matrix(basis, 0.3, 0.8)
    T = 0.5
    rep = observability_cost(dec, m_omega, T)
    u0 = propagate(dec, rep.witness, T)
    u0 = u0 / np.linalg.norm(u0)
    result = hum_control(dec, m_omega, u0, T, nt=64)
    rel = abs(result.cost_sq / rep.kappa - 1.0)
    ok = rel <= 1e-4
    _report(7, ok, f"duality sharpness: |cost/kappa - 1| = {rel:.2e}")


def test_criterion_08_blowup_under_coupled_truncation():
    t0 = time.perf_counter()
    sweep = cost_sweep(DOMAIN, ZeroKernel(), [0.4, 0.2, 0.1, 0.05, 0.025],
                       coupling=COUPLING_RESOLVENT, margin=8)
    kappas = [row.report.kappa for row in sweep.rows]
    ok = all(b > a for a, b in zip(kappas, kappas[1:]))
    ok = ok and 0.3 < sweep.fit_free.alpha < 1.2
    ok = ok and sweep.fit_sqrt.residual > 0 and sweep.fit_inv.residual > 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(8, ok, f"blow-up sweep: kappa {kappas[0]:.2e} -> {kappas[-1]:.2e}, "
                   f"alpha_hat {sweep.fit_free.alpha:.3f} in (0.3, 1.2), residuals "
                   f"sqrt {sweep.fit_sqrt.residual:.2f} / inv {sweep.fit_inv.residual:.2f}, "
                   f"{elapsed:.2f}s")


def test_criterion_09_staged_construction():
    t0 = time.perf_counter()
    u0 = np.ones(16) / 4.0
    details = []
    ok = True
    for name, kernel in (("zero", ZeroKernel()), ("gaussian", GaussianKernel(5.0, 0.2))):
        result = lr_staged_control(DOMAIN, kernel, u0, T=1.0, stages=4,
                                   r0=np.pi ** 2, nt=1025)
        residuals = [s.residual_after_passive for s in result.stage_log]
        ok = ok and all(b < a for a, b in zip([1.0] + residuals[:-1], residuals))
        ok = ok and all(s.lowmode_after_active <= 1e-8 for s in result.stage_log)
        ok = ok and result.terminal_residual <= 1e-3
        details.append(f"{name} final {result.terminal_residual:.1e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(9, ok, f"staged control: {'; '.join(details)}, monotone stage log, "
                   f"low modes annihilated, {elapsed:.2f}s")


def test_criterion_10_left_inverse_certificate():
    rng = np.random.default_rng(20260809)
    ok = True
    tested = []
    for kernel in (ZeroKernel(), GaussianKernel(5.0, 0.2)):
        for n, ts in ((8, (0.01, 0.05, 0.1)), (16, (0.005, 0.02))):
            basis, _, dec = _dec(kernel, n)
            m_omega = restricted_mass_matrix(basis, 0.3, 0.8)
            ok = ok and left_inverse_constant(dec, m_omega, 0.0) == 1.0
            for t in ts:
                zeta = left_inverse_constant(dec, m_omega, t)
                ok = ok and zeta > 0.0
                V = rng.standard_normal((100, n))
                et = dec.modes @ (np.exp(dec.mus * t)[:, None] * dec.modes.T)
                EV = V @ et.T
                lhs = zeta * np.sqrt(np.einsum("ij,jk,ik->i", V, m_omega, V))
                rhs = np.sqrt(np.einsum("ij,jk,ik->i", EV, m_omega, EV))
                ok = ok and bool(np.all(lhs <= rhs + 1e-10))
                tested.append(zeta)
    _report(10, ok, f"left-inverse constant: identity at t=0, positive at "
                    f"{len(tested)} (config, t) pairs, min {min(tested):.1e}, "
                    f"100-draw inequality holds with 1e-10 slack")


def test_criterion_11_deterministic_reruns(tmp_path):
    from nullheat.bundled import default_config_path
    cfg_path = str(default_config_path())
    outputs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        rc = cli.main(["certify-all", cfg_path,
                       "--set", f"output.dir={out}",
                       "--set", "seeds.oracle=424242"])
        assert rc == 0, f"certify-all exited {rc}"
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        # the echo records the resolved config, whose output.dir necessarily
        # names this run's directory; normalize that single line
        echo = files["config.echo.cfg"].decode().splitlines()
        files["config.echo.cfg"] = "\n".join(
            line for line in echo if not line.startswith("output.dir")).encode()
        outputs.append(files)
    ok = outputs[0] == outputs[1] and "certify.csv" in outputs[0]
    rows = outputs[0]["certify.csv"].decode().splitlines()[1:]
    all_pass = all(",pass," in row for row in rows)
    ok = ok and all_pass
    _report(11, ok, f"certify-all twice with the same seed: byte-identical, "
                    f"{len(rows)} certificate rows all passing")
