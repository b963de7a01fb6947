import tracemalloc

import numpy as np
import pytest

from nullheat import (ArgumentError, Domain, GaussianKernel, IllConditionedError,
                      NumericError, ZeroKernel, assemble_generator, build_basis, build_model, control_cost,
                      controlled_state_norms, decompose, hum_control,
                      lr_staged_control, observability_cost, observability_gramian,
                      parse_config, project_kernel, propagate, restricted_mass_matrix,
                      simulate_controlled)
from nullheat import control, observability
from nullheat.bundled import default_config_path


def _dec(domain, kernel, n):
    basis = build_basis(domain, n)
    return basis, decompose(assemble_generator(basis, project_kernel(kernel, basis)))


def _per_step_reference(dec, m_omega, u0, coeffs, T, nt_fine, dtype=float):
    """simulate_controlled's scheme as one exponential step per loop iteration,
    in dtype: the source samples W f interpolated at each step's 4 Gauss nodes,
    then u <- e^{L dt} u + b."""
    mus, Q = dec.mus.astype(dtype), dec.modes.astype(dtype)
    g = coeffs.astype(dtype) @ Q @ (Q.T @ m_omega.astype(dtype) @ Q).T
    nt = coeffs.shape[0]
    dt = dtype(T) / (nt_fine - 1)
    h = dtype(T) / (nt - 1)
    g_nodes, g_weights = (x.astype(dtype) for x in np.polynomial.legendre.leggauss(4))
    tau = (g_nodes + 1) * dt / 2
    wq = g_weights * dt / 2
    t_nodes = np.arange(nt_fine - 1)[:, None] * dt + tau      # steps x 4
    idx = np.minimum((t_nodes / h).astype(int), nt - 2)
    frac = ((t_nodes - idx * h) / h)[:, :, None]
    g_at = (1 - frac) * g[idx] + frac * g[idx + 1]           # steps x 4 x N
    b = np.einsum("q,qn,sqn->sn", wq, np.exp(np.outer(dt - tau, mus)), g_at)
    decay = np.exp(mus * dt)
    u = np.empty((nt_fine, mus.size), dtype=dtype)
    u[0] = Q.T @ u0.astype(dtype)
    for s in range(nt_fine - 1):
        u[s + 1] = decay * u[s] + b[s]
    return u @ Q.T


class TestHumControl:
    def test_zero_initial_state(self, stable_pipeline):
        _, _, dec, m_omega = stable_pipeline
        res = hum_control(dec, m_omega, np.zeros(16), 0.5, nt=32)
        assert res.cost_sq == 0.0
        assert res.terminal_residual == 0.0
        assert np.max(np.abs(res.control_coeffs)) == 0.0

    def test_scalar_closed_form(self):
        # single mode, full window: p = -e^{-lam T} u0 / g with
        # g = (1 - e^{-2 lam T}) / (2 lam), and cost = kappa_T u0^2
        domain = Domain(1.0, 0.0, 1.0)
        basis, dec = _dec(domain, ZeroKernel(), 1)
        m_omega = restricted_mass_matrix(basis, 0.0, 1.0)
        T, u0 = 0.3, np.array([2.0])
        lam = np.pi ** 2
        g = (1 - np.exp(-2 * lam * T)) / (2 * lam)
        res = hum_control(dec, m_omega, u0, T, nt=16)
        assert res.multiplier[0] == pytest.approx(-np.exp(-lam * T) * 2.0 / g,
                                                  rel=1e-12)
        kappa = observability_cost(dec, m_omega, T).kappa
        assert res.cost_sq == pytest.approx(kappa * 4.0, rel=1e-10)

    def test_exact_null_identity(self, stable_pipeline, rng):
        basis, _, dec, m_omega = stable_pipeline
        u0 = rng.standard_normal(16)
        T = 0.5
        res = hum_control(dec, m_omega, u0, T, nt=32)
        G = observability_gramian(dec, m_omega, T)
        p = np.asarray(res.multiplier)
        terminal = propagate(dec, u0, T) + G @ p
        assert np.linalg.norm(terminal) <= 1e-8 * np.linalg.norm(u0)
        assert res.terminal_residual <= 1e-8

    def test_control_profile_endpoints(self, stable_pipeline):
        _, _, dec, m_omega = stable_pipeline
        u0 = np.eye(16)[0]
        T = 0.5
        res = hum_control(dec, m_omega, u0, T, nt=32)
        p = np.asarray(res.multiplier)
        assert np.allclose(res.control_coeffs[-1], p, rtol=1e-12)
        assert np.allclose(res.control_coeffs[0], propagate(dec, p, T), rtol=1e-9)

    def test_nullcond_inequality_random(self, stable_pipeline, rng):
        _, _, dec, m_omega = stable_pipeline
        T = 0.5
        kappa = observability_cost(dec, m_omega, T).kappa
        for _ in range(20):
            u0 = rng.standard_normal(16)
            res = hum_control(dec, m_omega, u0, T, nt=16)
            assert res.cost_sq <= kappa * float(u0 @ u0) * (1 + 1e-6)

    def test_linearity_and_homogeneity(self, stable_pipeline, rng):
        _, _, dec, m_omega = stable_pipeline
        u = rng.standard_normal(16)
        v = rng.standard_normal(16)
        a, b = 0.7, -1.3
        cu = hum_control(dec, m_omega, u, 0.4, nt=32)
        cv = hum_control(dec, m_omega, v, 0.4, nt=32)
        cw = hum_control(dec, m_omega, a * u + b * v, 0.4, nt=32)
        assert np.max(np.abs(cw.control_coeffs
                             - a * cu.control_coeffs - b * cv.control_coeffs)) <= 1e-9
        c2 = hum_control(dec, m_omega, 2 * u, 0.4, nt=32)
        assert c2.cost_sq == pytest.approx(4 * cu.cost_sq, rel=1e-12)

    def test_ridge_validation(self, stable_pipeline):
        _, _, dec, m_omega = stable_pipeline
        with pytest.raises(ArgumentError):
            hum_control(dec, m_omega, np.ones(16), 0.5, nt=32, ridge=-1e-9)
        with pytest.raises(ArgumentError):
            hum_control(dec, m_omega, np.ones(16), 0.5, nt=8)
        with pytest.raises(ArgumentError):
            hum_control(dec, m_omega, np.ones(16), -0.5, nt=32)

    def test_explicit_ridge_shrinks_cost(self, stable_pipeline):
        _, _, dec, m_omega = stable_pipeline
        u0 = np.eye(16)[0]
        exact = hum_control(dec, m_omega, u0, 0.5, nt=32, ridge=0.0)
        ridged = hum_control(dec, m_omega, u0, 0.5, nt=32, ridge=1e-6)
        assert ridged.cost_sq < exact.cost_sq
        assert ridged.ridge_used == 1e-6

    def test_unfactorizable_gramian_refused_at_zero_ridge(self, domain):
        # float64 Cholesky of G_T fails at N = 80; no ridge is added unasked
        _, _, dec, m_omega = build_model(domain, ZeroKernel(), 80)
        with pytest.raises(IllConditionedError) as err:
            hum_control(dec, m_omega, np.eye(80)[0], 0.5, ridge=0.0)
        assert err.value.eigenvalue is not None
        assert "tolerances.ridge" in str(err.value)

    def test_stated_ridge_is_the_ridge_used(self, domain):
        _, _, dec, m_omega = build_model(domain, ZeroKernel(), 80)
        result = hum_control(dec, m_omega, np.eye(80)[0], 0.5, ridge=1e-12)
        assert result.ridge_used == 1e-12


class TestControlledStateNorms:
    @pytest.mark.parametrize("amplitude, width, n", [(5.0, 0.2, 16), (20.0, 0.15, 32)],
                             ids=["stable", "unstable"])
    def test_starts_at_one_and_ends_at_terminal_residual(self, domain, amplitude, width, n):
        _, _, dec, m_omega = build_model(domain, GaussianKernel(amplitude, width), n)
        u0 = np.eye(n)[0]
        result = hum_control(dec, m_omega, u0, 0.5, nt=64)
        norms = controlled_state_norms(dec, m_omega, u0, result)
        assert len(norms) == 64
        assert abs(norms[0] - 1.0) <= 1e-14
        assert abs(norms[-1] - result.terminal_residual) <= 1e-10

    def test_wrong_initial_state_shape_refused(self, domain):
        _, _, dec, m_omega = build_model(domain, GaussianKernel(5.0, 0.2), 8)
        result = hum_control(dec, m_omega, np.eye(8)[0], 0.5, nt=16)
        with pytest.raises(ArgumentError, match=r"^controlled_state_norms: u0 has shape"):
            controlled_state_norms(dec, m_omega, np.ones(3), result)

    def test_staged_result_refused(self, domain):
        kernel = GaussianKernel(5.0, 0.2)
        _, _, dec, m_omega = build_model(domain, kernel, 8)
        staged = lr_staged_control(domain, kernel, np.ones(8) / 8, T=1.0, stages=2,
                                   r0=np.pi ** 2, margin=6, nt=65)
        with pytest.raises(ArgumentError, match=r"^controlled_state_norms: multiplier"):
            controlled_state_norms(dec, m_omega, np.ones(8) / 8, staged)


class TestSimulateControlled:
    def test_free_decay_matches_propagate(self, stable_pipeline, rng):
        _, _, dec, m_omega = stable_pipeline
        u0 = rng.standard_normal(16)
        T = 0.4
        zero_ctrl = np.zeros((65, 16))
        sim = simulate_controlled(dec, m_omega, u0, zero_ctrl, T, nt_fine=257)
        for idx in (0, 16, 32, 64):
            t = sim.times[idx]
            assert np.allclose(sim.states[idx], propagate(dec, u0, t), atol=1e-10)
        assert sim.terminal_norm == pytest.approx(
            np.linalg.norm(propagate(dec, u0, T)), abs=1e-10)

    def test_single_mode_free_decay_norm(self, domain):
        basis, dec = _dec(domain, ZeroKernel(), 8)
        m_omega = restricted_mass_matrix(basis, 0.3, 0.8)
        u0 = np.eye(8)[0]
        T = 0.5
        sim = simulate_controlled(dec, m_omega, u0, np.zeros((33, 8)), T, nt_fine=129)
        assert sim.terminal_norm == pytest.approx(np.exp(-np.pi ** 2 * T), abs=1e-10)

    def test_confirms_hum_terminal_state(self, stable_pipeline):
        _, _, dec, m_omega = stable_pipeline
        u0 = np.eye(16)[0]
        T = 0.5
        res = hum_control(dec, m_omega, u0, T, nt=2049)
        sim = simulate_controlled(dec, m_omega, u0, res.control_coeffs, T,
                                  nt_fine=8193)
        assert abs(sim.terminal_norm - res.terminal_residual) <= 1e-5

    @pytest.mark.parametrize("nt, nt_fine",
                             [(65, 257), (13, 13), (13, 37), (2, 2), (5, 9), (3, 301)],
                             ids=["r4", "r1", "r3", "one-step", "r2", "r150"])
    def test_scan_matches_per_step_reference(self, domain, rng, nt, nt_fine):
        # unstable coupling (mus[0] > 0): the scan must not amplify roundoff
        _, _, dec, m_omega = build_model(domain, GaussianKernel(20.0, 0.15), 16)
        assert dec.mus[0] > 0
        u0 = rng.standard_normal(16)
        coeffs = rng.standard_normal((nt, 16))
        sim = simulate_controlled(dec, m_omega, u0, coeffs, 0.5, nt_fine=nt_fine)
        r = (nt_fine - 1) // (nt - 1)
        ref = _per_step_reference(dec, m_omega, u0, coeffs, 0.5, nt_fine)[::r]
        assert sim.states.shape == ref.shape == (nt, 16)
        assert np.max(np.abs(sim.states - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert sim.terminal_norm == pytest.approx(np.linalg.norm(ref[-1]), rel=1e-12)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                        reason="np.longdouble is no wider than float64 on this platform")
    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("kernel", [GaussianKernel(20.0, 0.15), GaussianKernel(5.0, 0.2)],
                             ids=["unstable", "stable"])
    def test_full_size_matches_long_double_reference(self, domain, rng, kernel, n):
        # the audit's own size: the scan must stay at the roundoff of float64 stepping,
        # which a sequential recurrence over the unstable coupling does not
        _, _, dec, m_omega = build_model(domain, kernel, n)
        u0 = rng.standard_normal(n)
        coeffs = rng.standard_normal((4097, n))
        sim = simulate_controlled(dec, m_omega, u0, coeffs, 0.5, nt_fine=16385)
        ref = _per_step_reference(dec, m_omega, u0, coeffs, 0.5, 16385, dtype=np.longdouble)[::4]
        scale = float(np.max(np.abs(ref)))
        assert float(np.max(np.abs(sim.states - ref))) <= 1e-14 * scale
        assert abs(sim.terminal_norm - float(np.sqrt(np.sum(ref[-1] ** 2)))) <= 1e-14 * scale

    def test_holds_no_fine_grid_array(self, domain, rng):
        # the audit's size: states at the 4097 control times only, no 16385 x N array
        _, _, dec, m_omega = build_model(domain, GaussianKernel(20.0, 0.15), 32)
        u0 = rng.standard_normal(32)
        coeffs = rng.standard_normal((4097, 32))
        tracemalloc.start()
        try:
            sim = simulate_controlled(dec, m_omega, u0, coeffs, 0.5, nt_fine=16385)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 16385 * 32 * 8   # a 16385 x 32 float64 array is 4 MiB
        assert sim.states.shape == (4097, 32)
        assert np.array_equal(sim.times, np.linspace(0.0, 0.5, 4097))

    def test_grid_refinement_contract(self, stable_pipeline):
        _, _, dec, m_omega = stable_pipeline
        with pytest.raises(ArgumentError):
            simulate_controlled(dec, m_omega, np.ones(16), np.zeros((33, 16)),
                                0.5, nt_fine=100)


class TestStagedControl:
    def test_low_modes_annihilated_exactly(self, domain):
        # initial state inside the first cutoff: stage 0 finishes the job
        u0 = np.array([1.0])
        res = lr_staged_control(domain, ZeroKernel(), u0, T=1.0, stages=2,
                                r0=np.pi ** 2, margin=6, nt=65)
        assert res.stage_log[0].lowmode_after_active <= 1e-10
        assert res.terminal_residual <= 1e-8

    @pytest.mark.parametrize("kernel", [ZeroKernel(), GaussianKernel(5.0, 0.2)],
                             ids=["zero", "gaussian"])
    def test_staged_sixteen_modes(self, domain, kernel):
        u0 = np.ones(16) / 4.0
        res = lr_staged_control(domain, kernel, u0, T=1.0, stages=4,
                                r0=np.pi ** 2, nt=1025)
        residuals = [s.residual_after_passive for s in res.stage_log]
        assert all(b < a for a, b in zip([1.0] + residuals[:-1], residuals))
        assert all(s.lowmode_after_active <= 1e-8 for s in res.stage_log)
        assert res.terminal_residual <= 1e-3
        assert res.cost_sq > 0 and np.isfinite(res.cost_sq)

    def test_schedule_geometry(self, domain):
        res = lr_staged_control(domain, ZeroKernel(), np.ones(8) / 8, T=1.0,
                                stages=3, r0=np.pi ** 2, margin=4, nt=65)
        for k, stage in enumerate(res.stage_log):
            assert stage.t_end - stage.t_start == pytest.approx(2.0 ** -(k + 1))
            assert stage.t_mid == pytest.approx((stage.t_start + stage.t_end) / 2)
            assert stage.r_k == pytest.approx(np.pi ** 2 * 4.0 ** k)
        assert res.stage_log[-1].t_end == pytest.approx(1.0 - 2.0 ** -3)

    @pytest.mark.parametrize("length", [1.0, 3.0])
    def test_n_low_counts_eigenvalues_up_to_r_k_inclusive(self, length):
        # r0 = lambda_2 controls modes 1 and 2; one float below it only mode 1
        domain = Domain(length, 0.3 * length, 0.8 * length)
        lambdas = build_basis(domain, 16).lambdas
        # the last cutoff 16 r0 holds 8 modes, or 7 one float below: N = 16 either way
        for r0, first, margin in ((lambdas[1], 2, 8), (np.nextafter(lambdas[1], 0.0), 1, 9)):
            res = lr_staged_control(domain, ZeroKernel(), np.ones(4) / 2, T=1.0,
                                    stages=3, r0=r0, margin=margin, nt=65)
            assert res.stage_log[0].n_low == first
            assert [s.n_low for s in res.stage_log] == [
                int(np.count_nonzero(lambdas <= s.r_k)) for s in res.stage_log]

    @pytest.mark.parametrize("u0_size", [2, 30])
    @pytest.mark.parametrize("margin", [0, 8])
    @pytest.mark.parametrize("length", [1.0, 3.0])
    def test_truncation_is_the_last_cutoffs_count_plus_margin(self, length, margin, u0_size):
        # N = max(#{lambda_j <= r0 4^(stages - 1)} + margin, len(u0)): 4 modes
        # below 16 pi^2 at length 1, 12 at length 3; 30 entries outgrow both
        domain = Domain(length, 0.3 * length, 0.8 * length)
        count = int(np.count_nonzero(build_basis(domain, 64).lambdas <= 16 * np.pi ** 2))
        assert count == 4 * length
        res = lr_staged_control(domain, ZeroKernel(), np.ones(u0_size), T=1.0, stages=3,
                                r0=np.pi ** 2, margin=margin, nt=65)
        assert res.control_coeffs.shape == (65, max(count + margin, u0_size))
        assert res.stage_log[-1].n_low == count

    def test_passive_half_exact_decay_zero_kernel(self, domain, rng):
        basis, dec = _dec(domain, ZeroKernel(), 12)
        v = rng.standard_normal(12)
        half = 0.125
        w = propagate(dec, v, half)
        assert np.max(np.abs(w - v * np.exp(-basis.lambdas * half))) <= 1e-10

    def test_cost_comparable_to_one_shot(self, domain):
        u0 = np.ones(16) / 4.0
        staged = lr_staged_control(domain, GaussianKernel(5.0, 0.2), u0, T=1.0,
                                   stages=4, r0=np.pi ** 2, nt=257)
        basis, dec = _dec(domain, GaussianKernel(5.0, 0.2), 16)
        m_omega = restricted_mass_matrix(basis, 0.3, 0.8)
        one_shot = hum_control(dec, m_omega, u0, 1.0, nt=257)
        assert one_shot.cost_sq <= staged.cost_sq  # minimal-energy is minimal

    def test_one_mass_in_eigencoords_for_every_stage_bitwise(self, monkeypatch):
        # default.cfg's control-lr run against a reference that forms each
        # stage's Gramian from M_omega, W = Q^T M_omega Q included
        cfg = parse_config(default_config_path())
        domain = cfg.domain()

        def run():
            return lr_staged_control(domain, cfg.kernel(), np.asarray(cfg.u0, dtype=float),
                                     cfg.horizon, stages=cfg.stages,
                                     r0=float((np.pi / domain.length) ** 2),
                                     margin=cfg.margin, nt=cfg.nt)

        res = run()
        stages = []

        gramian = observability._EigenGramian.gramian

        def per_stage(gram, tau):
            dec = gram.dec
            m_omega = restricted_mass_matrix(build_basis(domain, dec.n_modes),
                                             domain.omega_lo, domain.omega_hi)
            stages.append(tau)
            return gramian(type(gram)(dec, dec.modes.T @ m_omega @ dec.modes), tau)

        monkeypatch.setattr(observability._EigenGramian, "gramian", per_stage)
        ref = run()
        assert len(stages) == cfg.stages
        assert len(res.multiplier) == len(ref.multiplier) == cfg.stages
        assert all(a.tobytes() == b.tobytes() for a, b in zip(res.multiplier, ref.multiplier))
        assert res.control_coeffs.tobytes() == ref.control_coeffs.tobytes()
        assert [vars(s) for s in res.stage_log] == [vars(s) for s in ref.stage_log]
        assert (res.cost_sq, res.terminal_residual) == (ref.cost_sq, ref.terminal_residual)

    def test_argument_validation(self, domain):
        with pytest.raises(ArgumentError):
            lr_staged_control(domain, ZeroKernel(), np.ones(4), T=1.0, stages=1,
                              r0=np.pi ** 2)
        with pytest.raises(ArgumentError):
            lr_staged_control(domain, ZeroKernel(), np.ones(4), T=1.0, stages=2,
                              r0=1.0)
        with pytest.raises(ArgumentError):  # one float below lambda_1: no mode to control
            lr_staged_control(domain, ZeroKernel(), np.ones(4), T=1.0, stages=2,
                              r0=np.nextafter(build_basis(domain, 1).lambdas[0], 0.0))


class TestStagedRefusals:
    def test_overflowing_stage_gramian_is_a_numeric_error(self, domain):
        # e^{mu tau} overflows at amplitude 1e4: refused like HUM, not a scipy ValueError
        with pytest.raises(NumericError, match="stage 0 low-mode block: Gramian contains"):
            lr_staged_control(domain, GaussianKernel(1e4, 0.2), np.ones(4), T=1.0,
                              stages=2, r0=np.pi ** 2, margin=6, nt=65)

    def test_staged_refusal_names_no_ridge(self):
        # control-lr reads no tolerances.ridge, so its refusal does not ask for one
        with pytest.raises(IllConditionedError) as err:
            control._solve_gramian(np.zeros((2, 2)), np.ones(2), None, "lr_staged_control: stage 3")
        assert str(err.value).startswith("lr_staged_control: stage 3: Gramian not factorizable")
        assert "ridge" not in str(err.value)


class TestControlCost:
    def test_zero_control(self, stable_pipeline):
        _, _, dec, m_omega = stable_pipeline
        res = hum_control(dec, m_omega, np.zeros(16), 0.5, nt=32)
        assert control_cost(res, m_omega, dec) == 0.0

    def test_matches_closed_form(self, stable_pipeline, rng):
        _, _, dec, m_omega = stable_pipeline
        u0 = rng.standard_normal(16)
        res = hum_control(dec, m_omega, u0, 0.5, nt=32)
        requad = control_cost(res, m_omega, dec)
        assert requad == pytest.approx(res.cost_sq, rel=1e-6)

    def test_staged_cost_requadrature(self, domain):
        u0 = np.ones(12) / np.sqrt(12)
        res = lr_staged_control(domain, GaussianKernel(5.0, 0.2), u0, T=1.0,
                                stages=3, r0=np.pi ** 2, nt=257)
        basis, dec = _dec(domain, GaussianKernel(5.0, 0.2), 12)
        m_omega = restricted_mass_matrix(basis, 0.3, 0.8)
        requad = control_cost(res, m_omega, dec)
        assert requad == pytest.approx(res.cost_sq, rel=1e-6)


class TestUnstableKernel:
    def test_uncontrolled_grows_controlled_dies(self, domain):
        basis, dec = _dec(domain, GaussianKernel(20.0, 0.15), 32)
        assert dec.mus[0] > 0
        m_omega = restricted_mass_matrix(basis, 0.3, 0.8)
        u0 = np.eye(32)[0]
        T = 0.5
        assert np.linalg.norm(propagate(dec, u0, T)) > 1.0
        res = hum_control(dec, m_omega, u0, T, nt=64)
        assert res.terminal_residual <= 1e-6
