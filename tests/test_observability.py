import dataclasses
import gc
import warnings
import weakref

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.optimize import minimize_scalar  # reference for _bounded_brent; src/ never imports it

from nullheat import (ArgumentError, COUPLING_FIXED, COUPLING_RESOLVENT, Domain,
                      GaussianKernel, NumericError, ZeroKernel, assemble_generator, build_basis,
                      build_model, control_cost, controlled_state_norms, cost_sweep, decompose,
                      hum_control, left_inverse_constants, lr_staged_control, observability_cost,
                      observability_gramian, project_kernel, proof_chain_report,
                      propagate, restricted_mass_matrix, simulate_controlled,
                      spectral_obs_constant, spectral_obs_constants, specobs_sweep_and_fit,
                      truncation_for_horizon, witness_identity_residual)
from nullheat import _highprec, cli, control, evolution, observability, oracles, parse_config
from nullheat import basis as basis_module
from nullheat.bundled import bundled_kernels, default_config_path
from nullheat.basis import _validate_mass
from nullheat.errors import IllConditionedError
from nullheat.observability import _phi


def kappa_scalar(T):
    lam = np.pi ** 2
    return 2 * lam * np.exp(-2 * lam * T) / (1 - np.exp(-2 * lam * T))


def _dec(domain, kernel, n):
    basis = build_basis(domain, n)
    return basis, decompose(assemble_generator(basis, project_kernel(kernel, basis)))


class TestSpectralObsConstant:
    def test_full_window_unit_constant(self):
        domain = Domain(1.0, 0.0, 1.0)
        basis = build_basis(domain, 8)
        rep = spectral_obs_constant(basis, (0.0, 1.0), 300.0)
        assert rep.c_min == pytest.approx(1.0, abs=1e-12)
        assert rep.specobs_constant == pytest.approx(1.0, abs=1e-12)

    def test_single_mode_closed_form(self, domain):
        basis = build_basis(domain, 4)
        rep = spectral_obs_constant(basis, (0.3, 0.8), np.pi ** 2)
        assert rep.n_modes == 1
        closed = 0.5 - (np.sin(1.6 * np.pi) - np.sin(0.6 * np.pi)) / (2 * np.pi)
        assert rep.c_min == pytest.approx(closed, rel=1e-13)

    def test_mode_count_formula(self, domain):
        basis = build_basis(domain, 16)
        for r in (400.0, 987.0, 1500.0):
            rep = spectral_obs_constant(basis, (0.3, 0.8), r)
            assert rep.n_modes == int(np.floor(np.sqrt(r) / np.pi))

    def test_brute_force_bound_n6(self, domain, rng):
        # the sampled minimum bounds c_min from above; at six modes the
        # eigenvalue gaps (ratio ~5.6 per mode) keep 1e6 random draws from
        # landing within a few percent, so closeness is asserted at n=3
        basis = build_basis(domain, 8)
        rep = spectral_obs_constant(basis, (0.3, 0.8), 400.0)
        assert rep.n_modes == 6
        M = restricted_mass_matrix(basis, 0.3, 0.8)[:6, :6]
        sampled = oracles.sampled_min_packet_quotient(basis, M, 1_000_000, rng)
        assert rep.c_min <= sampled * (1 + 1e-10)

    def test_brute_force_close_n3(self, domain, rng):
        basis = build_basis(domain, 4)
        rep = spectral_obs_constant(basis, (0.3, 0.8), (3.5 * np.pi) ** 2)
        assert rep.n_modes == 3
        M = restricted_mass_matrix(basis, 0.3, 0.8)[:3, :3]
        sampled = oracles.sampled_min_packet_quotient(basis, M, 1_000_000, rng)
        assert rep.c_min <= sampled * (1 + 1e-10)
        assert sampled <= rep.c_min * 1.05

    def test_empty_window_rejected(self, domain):
        basis = build_basis(domain, 4)
        with pytest.raises(ArgumentError):
            spectral_obs_constant(basis, (0.3, 0.8), 0.5 * np.pi ** 2)

    def test_basis_too_small(self, domain):
        basis = build_basis(domain, 2)
        with pytest.raises(ArgumentError):
            spectral_obs_constant(basis, (0.3, 0.8), 400.0)

    def test_witness_identity_deep(self, domain):
        basis = build_basis(domain, 24)
        for n_target in (5, 15, 24):
            r = ((n_target + 0.5) * np.pi) ** 2
            rep = spectral_obs_constant(basis, (0.3, 0.8), r)
            assert rep.n_modes == n_target
            assert witness_identity_residual(basis, (0.3, 0.8), rep) <= 1e-8

    def test_random_packet_inequality(self, domain, rng):
        basis = build_basis(domain, 12)
        rep = spectral_obs_constant(basis, (0.3, 0.8), ((10.5) * np.pi) ** 2)
        M = restricted_mass_matrix(basis, 0.3, 0.8)[: rep.n_modes, : rep.n_modes]
        C = rng.standard_normal((100, rep.n_modes))
        lhs = np.einsum("ij,ij->i", C, C)
        rhs = rep.specobs_constant * np.einsum("ij,jk,ik->i", C, M, C)
        assert np.all(lhs <= rhs * (1 + 1e-10))


def _factor(M, dps=_highprec.DPS):
    # rows of pairs of the Cholesky factor of M's longest positive-definite
    # leading block, as gram_block_solver forms it
    with mp.workdps(dps):
        return _highprec._cholesky(_highprec._pair_rows(M), mp.mp.prec)


def _inverse(factor, dps=_highprec.DPS):
    # the factor's inverse in the form smallest_eigenpair_mp's inverse= takes
    with mp.workdps(dps):
        return _highprec._lower_inverse(factor, mp.mp.prec)


class TestPacketPrimitive:
    """One mp Gram matrix and one Cholesky factor for a sweep of cutoffs."""

    def test_cholesky_matches_mpmath_bitwise(self):
        M = _highprec.mass_matrix_mp(18, 0.3, 0.8, 1.0)
        factor = _factor(M)
        with mp.workdps(50):
            ref = mp.cholesky(mp.matrix(M.tolist()))
        assert len(factor) == 18
        assert all(factor[i][j] == _highprec._pair(ref[i, j])
                   for i in range(18) for j in range(i + 1))

    def test_leading_rows_factor_leading_blocks(self):
        M = _highprec.mass_matrix_mp(24, 0.3, 0.8, 1.0)
        big = _factor(M)
        for n in (1, 5, 13, 24):
            assert big[:n] == _factor(M[:n, :n])

    def test_sweep_equals_per_cutoff_bitwise(self, domain):
        basis = build_basis(domain, 26)
        rs = [((n + 0.5) * np.pi) ** 2 for n in range(2, 25)]
        sweep = spectral_obs_constants(basis, (0.3, 0.8), rs)
        for r, rep in zip(rs, sweep):
            alone = spectral_obs_constant(basis, (0.3, 0.8), r)
            assert (rep.r, rep.n_modes, rep.c_min) == (alone.r, alone.n_modes, alone.c_min)
            assert np.array_equal(rep.witness, alone.witness)
        # each cutoff alone: its own mp Gram matrix and its own factor
        M = restricted_mass_matrix(basis, 0.3, 0.8)
        deep = 0
        for rep in sweep:
            n = rep.n_modes
            w, vecs = np.linalg.eigh(M[:n, :n])
            if w[0] >= 1e-6 * w[-1]:
                continue
            deep += 1
            lam, vec = _highprec.smallest_eigenpair_mp(
                _highprec.mass_matrix_mp(n, 0.3, 0.8, 1.0),
                start=vecs[:, 0] if w[0] > 0 else None)
            assert rep.c_min == float(lam)
            assert np.array_equal(rep.witness, vec)
        assert deep >= 10

    def test_deep_packets_escalate_to_their_own_precision(self, domain, monkeypatch):
        # window (0.1, 0.4): c_min 5.5e-37 .. 6.9e-45, below 10^(16 - 50), so
        # each is re-solved at a precision chosen from its 50-digit estimate;
        # checked against mpmath's full eigensolve at 120 digits
        basis = build_basis(domain, 26)
        rs = [((n + 0.5) * np.pi) ** 2 for n in range(20, 25)]
        smallest, precisions = _highprec.smallest_eigenpair_mp, []

        def recording(M, **kwargs):
            precisions.append(kwargs.get("dps", _highprec.DPS))
            return smallest(M, **kwargs)

        monkeypatch.setattr(_highprec, "smallest_eigenpair_mp", recording)
        reports = spectral_obs_constants(basis, (0.1, 0.4), rs)
        assert precisions == [50, 66, 50, 68, 50, 70, 50, 72, 50, 74]
        for rep in reports:
            M = _highprec.mass_matrix_mp(rep.n_modes, 0.1, 0.4, 1.0, 120)
            with mp.workdps(120):
                ref = float(min(mp.eigsy(mp.matrix(M.tolist()), eigvals_only=True)))
            assert rep.c_min == pytest.approx(ref, rel=1e-12, abs=0), rep.n_modes
        # the shallower window keeps one 50-digit solve per cutoff
        precisions.clear()
        spectral_obs_constants(basis, (0.3, 0.8), rs)
        assert set(precisions) == {50}

    def test_unfactorable_block_fails_only_its_cutoff(self):
        # the factor stops at the first non-positive pivot: smaller blocks
        # still get their eigenpair from its leading rows, larger ones an error
        A = np.array([[mp.mpf(int(i == j)) for j in range(6)] for i in range(6)], dtype=object)
        A[3, 3] = mp.mpf(-1)
        factor = _factor(A)
        assert len(factor) == 3
        inverse = _inverse(factor)
        lam, vec = _highprec.smallest_eigenpair_mp(A[:3, :3], inverse=inverse)
        assert abs(lam - 1) < mp.mpf(10) ** -40 and np.linalg.norm(vec) == pytest.approx(1.0)
        with pytest.raises(NumericError):
            _highprec.smallest_eigenpair_mp(A[:4, :4], inverse=inverse)
        with pytest.raises(NumericError):
            _highprec.smallest_eigenpair_mp(A)

    def test_nonconvergence_is_an_error(self, monkeypatch):
        M = _highprec.mass_matrix_mp(8, 0.3, 0.8, 1.0)
        monkeypatch.setattr(_highprec, "MAX_ITER", 2)
        with pytest.raises(NumericError, match=r"no convergence in 2 steps"):
            _highprec.smallest_eigenpair_mp(M)

    def test_unresolved_eigenvalue_is_refused(self):
        # 50 digits give 1.66e-51; the 64-mode truth is 2.84e-54
        with pytest.raises(IllConditionedError) as err:
            _highprec.smallest_eigenpair_mp(_highprec.mass_matrix_mp(64, 0.3, 0.8, 1.0))
        assert err.value.eigenvalue == pytest.approx(1.66e-51, rel=1e-2)

    def test_refused_packet_is_resolved_at_its_own_precision(self):
        basis = build_basis(Domain(1.0, 0.3, 0.8), 64)
        rep = spectral_obs_constant(basis, (0.3, 0.8), float(basis.lambdas[-1]))
        lam, _ = _highprec.smallest_eigenpair_mp(
            _highprec.mass_matrix_mp(64, 0.3, 0.8, 1.0, 100), dps=100)
        assert rep.n_modes == 64 and rep.c_min == float(lam)

    def test_packets_past_the_shared_factor(self, tmp_path):
        # the 50-digit factor of the (0.3, 0.8) Gram matrix stops after 66
        # rows; a longer block is re-solved from its own, at 100 digits
        assert len(_factor(_highprec.mass_matrix_mp(80, 0.3, 0.8, 1.0))) == 66
        out = tmp_path / "obs"
        assert cli.main(["obs-constant", str(default_config_path()), "--output", str(out),
                         "--set", "truncation.n=80"]) == 0
        _, n_modes, c_min_80, _ = (out / "obs.csv").read_text().splitlines()[1].split(",")
        assert n_modes == "80"
        basis = build_basis(Domain(1.0, 0.3, 0.8), 68)
        c_min_68 = spectral_obs_constant(basis, (0.3, 0.8), float(basis.lambdas[-1])).c_min
        for n, c_min in ((68, c_min_68), (80, float(c_min_80))):
            lam, _ = _highprec.smallest_eigenpair_mp(
                _highprec.mass_matrix_mp(n, 0.3, 0.8, 1.0, 130), dps=130)
            assert c_min == float(lam), n

    def test_escalated_blocks_share_one_factor_per_precision(self, monkeypatch):
        # the 50-digit factor stops after 66 rows, so cutoffs n = 67..80 all
        # run at 100 digits: each on the leading rows of one 80-row matrix,
        # factor and inverse, equal bit for bit to a block's own; the inverse
        # is formed at 100 digits only, never of the short 50-digit factor
        basis = build_basis(Domain(1.0, 0.3, 0.8), 80)
        rs = [((n + 0.5) * np.pi) ** 2 for n in range(67, 81)]
        built, mass = [], _highprec.mass_matrix_mp
        formed, inverse = [], _highprec._lower_inverse

        def counted(n, lo, hi, ell, dps=_highprec.DPS):
            built.append((n, dps))
            return mass(n, lo, hi, ell, dps)

        def counted_inverse(L, prec):
            formed.append(mp.libmp.prec_to_dps(prec))
            return inverse(L, prec)

        monkeypatch.setattr(_highprec, "mass_matrix_mp", counted)
        monkeypatch.setattr(_highprec, "_lower_inverse", counted_inverse)
        reports = spectral_obs_constants(basis, (0.3, 0.8), rs)
        assert built == [(80, 50), (80, 100)]
        assert formed == [100]
        M = restricted_mass_matrix(basis, 0.3, 0.8)
        for rep in reports:
            n = rep.n_modes
            w, vecs = np.linalg.eigh(M[:n, :n])
            Mn = mass(n, 0.3, 0.8, 1.0, 100)
            lam, vec = _highprec.smallest_eigenpair_mp(
                Mn, start=vecs[:, 0] if w[0] > 0 else None,
                inverse=_inverse(_factor(Mn, 100), 100), dps=100)
            assert rep.c_min == float(lam), n
            assert np.array_equal(rep.witness, vec), n
        assert [rep.n_modes for rep in reports] == list(range(67, 81))

    @pytest.mark.parametrize("omega, ns, precisions", [
        ((0.3, 0.8), range(2, 25), [50]),
        ((0.1, 0.4), range(20, 25), [50, 66, 68, 70, 72, 74]),
    ])
    def test_one_inverse_per_precision(self, domain, omega, ns, precisions, monkeypatch):
        # the shared factor's inverse serves every block at its digits; a
        # refused block is re-solved on its own matrix, factor and inverse
        formed, inverse = [], _highprec._lower_inverse

        def counted(L, prec):
            formed.append(mp.libmp.prec_to_dps(prec))
            return inverse(L, prec)

        monkeypatch.setattr(_highprec, "_lower_inverse", counted)
        spectral_obs_constants(build_basis(domain, 26), omega,
                               [((n + 0.5) * np.pi) ** 2 for n in ns])
        assert formed == precisions

    @pytest.mark.parametrize("omega, ns, sizes", [
        ((0.3, 0.8), range(2, 25), [24]),
        ((0.1, 0.4), range(20, 25), [24, 20, 21, 22, 23, 24]),
    ])
    def test_sweep_shares_one_gram_matrix(self, domain, omega, ns, sizes, monkeypatch):
        # one 50-digit matrix for the largest cutoff; only a refused block
        # builds its own, at its own precision
        built, mass = [], _highprec.mass_matrix_mp

        def counted(n, *args, **kwargs):
            built.append(n)
            return mass(n, *args, **kwargs)

        monkeypatch.setattr(_highprec, "mass_matrix_mp", counted)
        spectral_obs_constants(build_basis(domain, 26), omega,
                               [((n + 0.5) * np.pi) ** 2 for n in ns])
        assert built == sizes


class TestSpecObsSweep:
    def test_one_mode_count_refused(self, domain):
        # both cutoffs sit below lambda_2 = 4 pi^2: one mode each, one point to fit
        reports = spectral_obs_constants(build_basis(domain, 4), (0.3, 0.8), [12.0, 30.0])
        with pytest.raises(ArgumentError, match="fewer than 2 distinct mode counts"):
            observability.fit_specobs_sweep(reports)

    def test_flat_on_full_window(self):
        domain = Domain(1.0, 0.0, 1.0)
        basis = build_basis(domain, 16)
        rs = [((n + 0.5) * np.pi) ** 2 for n in (2, 4, 6, 10, 14)]
        sweep = specobs_sweep_and_fit(basis, (0.0, 1.0), rs)
        assert abs(sweep.sqrt_fit.slope) <= 1e-12

    def test_sqrt_beats_linear_and_convex(self, domain):
        basis = build_basis(domain, 26)
        rs = [((n + 0.5) * np.pi) ** 2 for n in range(2, 25)]
        sweep = specobs_sweep_and_fit(basis, (0.3, 0.8), rs)
        cs = np.array([rep.c_min for rep in sweep.reports])
        assert np.all(cs > 0)
        assert np.all(np.diff(cs) < 0)
        y = -np.log(cs)
        assert np.all(np.diff(y, 2) > -1e-9)   # convex in the mode count
        assert sweep.sqrt_fit.residual < sweep.linear_fit.residual
        assert sweep.preferred == "sqrt"

    def test_halving_window_raises_slope(self, domain):
        rs = [((n + 0.5) * np.pi) ** 2 for n in range(2, 15)]
        full = specobs_sweep_and_fit(build_basis(domain, 16), (0.3, 0.8), rs)
        halfdom = Domain(1.0, 0.425, 0.675)
        half = specobs_sweep_and_fit(build_basis(halfdom, 16), (0.425, 0.675), rs)
        assert half.sqrt_fit.slope > full.sqrt_fit.slope

    def test_too_few_cutoffs(self, domain):
        basis = build_basis(domain, 8)
        with pytest.raises(ArgumentError):
            specobs_sweep_and_fit(basis, (0.3, 0.8), [100.0, 200.0, 400.0, 1600.0])

    def test_insufficient_span(self, domain):
        basis = build_basis(domain, 8)
        with pytest.raises(ArgumentError):
            specobs_sweep_and_fit(basis, (0.3, 0.8), [100.0, 110, 120, 130, 140])

    def test_degenerate_mode_counts(self, domain):
        basis = build_basis(domain, 26)
        lam1 = np.pi ** 2
        rs = [lam1 * f for f in (1.0, 1.5, 2.0, 3.0, 17.0)]  # spans 17x, 2 counts
        sweep = specobs_sweep_and_fit(basis, (0.3, 0.8), rs)
        assert len({rep.n_modes for rep in sweep.reports}) >= 2
        with pytest.raises(ArgumentError):
            specobs_sweep_and_fit(basis, (0.3, 0.8),
                                  [lam1 * f for f in (1.0, 1.2, 1.5, 2.0, 17.0)][:4]
                                  + [lam1 * 1.1])


class TestPhi:
    def test_within_two_ulp_of_mp_expm1(self):
        # T = 1/4 keeps every product s T exact, so the reference sees the
        # same argument as expm1; s = 0 must give the limit T
        T = 0.25
        small = np.geomspace(1e-14, 1e-3, 45)
        x = np.concatenate([small, -small, np.linspace(-50.0, 5.0, 221), [0.0]])
        s = x / T
        got = _phi(s, T)
        with mp.workdps(50):
            ref = np.array([float(mp.expm1(mp.mpf(si) * mp.mpf(T)) / mp.mpf(si))
                            if si != 0.0 else T for si in s])
        assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))
        assert got[-1] == T


class TestGramian:
    def test_scalar_closed_form(self):
        domain = Domain(1.0, 0.0, 1.0)
        basis, dec = _dec(domain, ZeroKernel(), 1)
        m_omega = restricted_mass_matrix(basis, 0.0, 1.0)
        for T in (0.1, 0.5):
            G = observability_gramian(dec, m_omega, T)
            lam = np.pi ** 2
            assert G[0, 0] == pytest.approx((1 - np.exp(-2 * lam * T)) / (2 * lam),
                                            rel=1e-13)

    def test_small_horizon_taylor(self, stable_pipeline):
        basis, kmat, dec, m_omega = stable_pipeline
        T = 1e-5
        G = observability_gramian(dec, m_omega, T)
        lmat = assemble_generator(basis, kmat)
        bound = 10 * T ** 2 * np.linalg.norm(lmat, 2) * np.linalg.norm(m_omega, 2)
        assert np.max(np.abs(G - T * m_omega)) <= bound

    def test_time_quadrature_oracle(self, stable_pipeline):
        _, _, dec, m_omega = stable_pipeline
        G = observability_gramian(dec, m_omega, 0.25)
        G_quad = oracles.gramian_time_quadrature(dec, m_omega, 0.25, n_nodes=2000)
        rel = np.linalg.norm(G - G_quad) / np.linalg.norm(G)
        assert rel <= 1e-8

    @pytest.mark.parametrize("n_nodes", [-1, 0, 2000.0, "2000"])
    def test_time_quadrature_n_nodes_must_be_a_positive_integer(self, stable_pipeline, n_nodes):
        _, _, dec, m_omega = stable_pipeline
        with pytest.raises(ArgumentError, match="n_nodes must be a positive integer"):
            oracles.gramian_time_quadrature(dec, m_omega, 0.25, n_nodes=n_nodes)

    def test_time_quadrature_rule_is_numpys_leggauss_bitwise(self):
        for n in (1, 2, 3, 4, 5, 8, 16, 63, 64, 100, 257, 1000, 2000, 2500):
            x, w = basis_module._gauss_legendre(n)
            x_ref, w_ref = leggauss(n)
            assert x.tobytes() == x_ref.tobytes(), n
            assert w.tobytes() == w_ref.tobytes(), n

    def test_psd_and_symmetric(self, stable_pipeline):
        _, _, dec, m_omega = stable_pipeline
        G = observability_gramian(dec, m_omega, 0.4)
        assert np.max(np.abs(G - G.T)) <= 1e-13
        w = np.linalg.eigvalsh(G)
        assert w[0] >= -1e-12 * max(1.0, w[-1])

    def test_invalid_horizon(self, stable_pipeline):
        _, _, dec, m_omega = stable_pipeline
        with pytest.raises(ArgumentError):
            observability_gramian(dec, m_omega, 0.0)


class TestObservabilityCost:
    def test_scalar_oracle(self):
        domain = Domain(1.0, 0.0, 1.0)
        basis, dec = _dec(domain, ZeroKernel(), 1)
        m_omega = restricted_mass_matrix(basis, 0.0, 1.0)
        for T in (0.05, 0.1, 0.5, 1.0):
            rep = observability_cost(dec, m_omega, T)
            assert rep.kappa == pytest.approx(kappa_scalar(T), rel=1e-8)
        # closed form evaluates to 3.18434 at T = 0.1
        assert observability_cost(dec, m_omega, 0.1).kappa == pytest.approx(
            3.18434, abs=1e-4)

    def test_witness_identity(self, stable_pipeline):
        _, _, dec, m_omega = stable_pipeline
        T = 0.5
        rep = observability_cost(dec, m_omega, T)
        G = observability_gramian(dec, m_omega, T)
        w = rep.witness
        lhs = np.sum(propagate(dec, w, T) ** 2)
        rhs = rep.kappa * (w @ G @ w)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_random_state_inequality(self, stable_pipeline, rng):
        _, _, dec, m_omega = stable_pipeline
        T = 0.5
        rep = observability_cost(dec, m_omega, T)
        G = observability_gramian(dec, m_omega, T)
        V = rng.standard_normal((100, 16))
        for v in V:
            lhs = np.sum(propagate(dec, v, T) ** 2)
            assert lhs <= rep.kappa * (v @ G @ v) * (1 + 1e-8)

    def test_sampled_oracle_two_sided_small(self, rng):
        # random search resolves the extremum only when the generalized
        # spectrum near the top is tame; N=3 qualifies
        domain = Domain(1.0, 0.3, 0.8)
        basis, dec = _dec(domain, GaussianKernel(5.0, 0.2), 3)
        m_omega = restricted_mass_matrix(basis, 0.3, 0.8)
        T = 0.25
        rep = observability_cost(dec, m_omega, T)
        G = observability_gramian(dec, m_omega, T)
        sampled = oracles.sampled_max_cost_quotient(dec, m_omega, G, T, 100_000, rng)
        assert sampled <= rep.kappa * (1 + 1e-10)
        assert sampled >= rep.kappa * 0.98

    def test_sampled_oracle_lower_bound_large(self, stable_pipeline, rng):
        _, _, dec, m_omega = stable_pipeline
        T = 0.5
        rep = observability_cost(dec, m_omega, T)
        G = observability_gramian(dec, m_omega, T)
        sampled = oracles.sampled_max_cost_quotient(dec, m_omega, G, T, 100_000, rng)
        assert sampled <= rep.kappa * (1 + 1e-10)

    def test_monotone_in_horizon_and_window(self, domain):
        basis, dec = _dec(domain, GaussianKernel(5.0, 0.2), 12)
        kappas = [observability_cost(
            dec, restricted_mass_matrix(basis, 0.3, 0.8), T).kappa
            for T in (0.8, 0.4, 0.2, 0.1)]
        assert all(b > a for a, b in zip(kappas, kappas[1:]))
        nested = [observability_cost(
            dec, restricted_mass_matrix(basis, lo, hi), 0.3).kappa
            for lo, hi in ((0.35, 0.65), (0.3, 0.8), (0.1, 0.9))]
        assert nested[0] >= nested[1] >= nested[2]


class TestCostTopPair:
    """_cost solves only for the top eigenpair of (e^{2LT}, G_T), and G_T's
    smallest eigenvalue is computed only when a report's gramian_min_eig is read."""

    @staticmethod
    def _full_spectrum_reference(gram, T):
        # the full generalized eigendecomposition, on the same ridge rule
        dec, G = gram.dec, gram.gramian(T)
        A = np.diag(np.exp(2.0 * dec.mus * T))
        try:
            theta, vecs = sla.eigh(A, G)
        except np.linalg.LinAlgError:
            ridge = observability._FALLBACK_RIDGE_SCALE * float(np.trace(G)) / dec.n_modes
            theta, vecs = sla.eigh(A, G + ridge * np.eye(dec.n_modes))
        witness = dec.modes @ vecs[:, -1]
        return float(theta[-1]), witness / np.linalg.norm(witness)

    @pytest.mark.parametrize("n", [1, 16, 64, 128, 256])
    @pytest.mark.parametrize("kernel", [ZeroKernel(), GaussianKernel(5.0, 0.2),
                                        GaussianKernel(20.0, 0.15)],
                             ids=["zero", "stable", "unstable"])
    def test_matches_full_spectrum_solve(self, domain, kernel, n):
        gram = observability._EigenGramian.build(domain, kernel, n)
        for T in (0.5, 0.1, 0.02):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # the known ridge rows
                rep = observability._cost(gram, T)
            kappa, witness = self._full_spectrum_reference(gram, T)
            assert abs(rep.kappa - kappa) <= 8 * np.finfo(float).eps * kappa
            sign = 1.0 if rep.witness @ witness >= 0 else -1.0
            assert np.max(np.abs(rep.witness - sign * witness)) <= 1e-8

    def test_gramian_min_eig_computed_once_on_first_read(self, domain, monkeypatch):
        kernel, Ts = GaussianKernel(5.0, 0.2), [0.4, 0.1, 0.025]
        gram = observability._EigenGramian.build(domain, kernel, 16)
        # what the report stored before it was computed on first read
        refs = [float(np.linalg.eigvalsh(gram.gramian(T))[0]) for T in Ts]
        calls = []

        def eigvalsh(a, eigvalsh=np.linalg.eigvalsh):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        sweep = cost_sweep(domain, kernel, Ts, coupling=COUPLING_FIXED, n_fixed=16)
        assert calls == []
        for k, (row, ref) in enumerate(zip(sweep.rows, refs)):
            assert row.report.gramian_min_eig == ref
            assert calls == [(16, 16)] * (k + 1)
            assert row.report.gramian_min_eig == ref
            assert calls == [(16, 16)] * (k + 1)

    def test_refusal_carries_the_smallest_eigenvalue(self, stable_pipeline, monkeypatch):
        _, _, dec, m_omega = stable_pipeline
        G = observability._EigenGramian.of(dec, m_omega, "observability_cost").gramian(0.5)

        def eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(observability.sla, "eigh", eigh)
        with pytest.warns(RuntimeWarning, match="retrying with ridge"):
            with pytest.raises(IllConditionedError, match="singular even with ridge") as err:
                observability_cost(dec, m_omega, 0.5)
        assert err.value.eigenvalue == float(np.linalg.eigvalsh(G)[0])


class TestCostSweep:
    def test_fixed_scalar_inverse_horizon_limit(self):
        domain = Domain(1.0, 0.0, 1.0)
        sweep = cost_sweep(domain, ZeroKernel(), [0.01, 0.003, 0.001],
                           coupling=COUPLING_FIXED, n_fixed=1)
        for row in sweep.rows:
            assert row.report.kappa == pytest.approx(kappa_scalar(row.T), rel=1e-8)
        # kappa ~ 1/T in the small-horizon limit at fixed truncation
        last = sweep.rows[-1]
        assert last.T * last.report.kappa == pytest.approx(1.0, abs=0.02)

    def test_rows_sorted_descending_and_monotone(self, domain):
        sweep = cost_sweep(domain, GaussianKernel(5.0, 0.2),
                           [0.05, 0.4, 0.1, 0.2], coupling=COUPLING_FIXED, n_fixed=8)
        Ts = [row.T for row in sweep.rows]
        assert Ts == sorted(Ts, reverse=True)
        kappas = [row.report.kappa for row in sweep.rows]
        assert all(b > a for a, b in zip(kappas, kappas[1:]))

    def test_mode_count_is_the_eigenvalue_table(self):
        # lambda_k counts mode k, the next float below it does not, on the
        # table build_basis computes
        for ell in (1.0, 0.7, 2.5):
            lambdas = build_basis(Domain(ell, 0.0, ell), 199).lambdas
            for k, lam in enumerate(lambdas, start=1):
                assert observability._count_modes(Domain(ell, 0.0, ell), lam, "op") == k
                assert observability._count_modes(
                    Domain(ell, 0.0, ell), np.nextafter(lam, 0.0), "op") == k - 1

    def test_frequency_coupled_truncation(self, domain):
        assert truncation_for_horizon(domain, 0.4) == 8
        assert truncation_for_horizon(domain, 0.1) == 9
        assert truncation_for_horizon(domain, 0.025) == 10
        # T = 1 / lambda_11: lambda_11 <= 1/T, so mode 11 is in
        assert truncation_for_horizon(domain, 1 / (11 * np.pi) ** 2, margin=0) == 11
        sweep = cost_sweep(domain, ZeroKernel(), [0.4, 0.2, 0.1, 0.05, 0.025],
                           coupling=COUPLING_RESOLVENT)
        assert [row.n_used for row in sweep.rows] == [8, 8, 9, 9, 10]

    def test_blowup_fit_attached_and_residuals(self, domain):
        sweep = cost_sweep(domain, ZeroKernel(), [0.4, 0.2, 0.1, 0.05, 0.025],
                           coupling=COUPLING_RESOLVENT)
        assert sweep.fit_sqrt.alpha == 0.5
        assert sweep.fit_inv.alpha == 1.0
        assert sweep.fit_sqrt.residual > 0 and sweep.fit_inv.residual > 0

    def test_per_row_failure_not_fatal(self, domain):
        # an unstable generator overflows exp(2 mu T) at an absurd horizon;
        # that row errors while the rest of the sweep survives
        with np.errstate(over="ignore"):
            sweep = cost_sweep(domain, GaussianKernel(20.0, 0.15),
                               [0.5, 0.25, 1000.0], coupling=COUPLING_FIXED,
                               n_fixed=8)
        good = [row for row in sweep.rows if row.report is not None]
        bad = [row for row in sweep.rows if row.error is not None]
        assert len(good) == 2 and len(bad) == 1
        assert bad[0].T == 1000.0

    def test_overflow_row_is_a_numeric_error(self, domain):
        with np.errstate(over="ignore"):
            sweep = cost_sweep(domain, GaussianKernel(20.0, 0.15),
                               [0.5, 0.25, 1000.0], coupling=COUPLING_FIXED,
                               n_fixed=8)
        assert sweep.rows[0].T == 1000.0  # rows are T-descending
        assert sweep.rows[0].error.startswith("NumericError: observability_cost:")

    def test_unexpected_error_propagates(self, domain, monkeypatch):
        def broken(gram, T):
            raise TypeError("not a numeric failure")

        monkeypatch.setattr(observability, "_cost", broken)
        with pytest.raises(TypeError, match="not a numeric failure"):
            cost_sweep(domain, ZeroKernel(), [0.4, 0.2], coupling=COUPLING_FIXED,
                       n_fixed=4)

    def test_fewer_than_two_distinct_horizons_refused_before_any_model(self, domain,
                                                                      monkeypatch):
        def built(*args):
            raise AssertionError("a model was built")

        monkeypatch.setattr(observability, "build_model", built)
        for Ts in ([0.5, 0.5], [0.5], []):
            with pytest.raises(ArgumentError, match="need at least 2 distinct horizons"):
                cost_sweep(domain, ZeroKernel(), Ts, coupling=COUPLING_FIXED, n_fixed=16)

    def test_unknown_coupling_refused(self, domain):
        with pytest.raises(ArgumentError, match="unknown coupling 'free'"):
            cost_sweep(domain, ZeroKernel(), [0.5, 0.25], coupling="free", n_fixed=4)

    def test_fewer_than_two_successful_rows_refused(self, domain):
        # amplitude 1e4 overflows e^(2LT) at both horizons
        with pytest.raises(NumericError, match="fewer than 2 successful horizons"):
            cost_sweep(domain, GaussianKernel(1e4, 0.15), [0.5, 0.25],
                       coupling=COUPLING_FIXED, n_fixed=16)

    def test_successful_rows_at_one_horizon_refused(self, domain):
        # T = 1000 overflows; the two rows left share T = 0.25, one point to fit
        with pytest.raises(NumericError, match="fewer than 2 successful horizons"):
            cost_sweep(domain, GaussianKernel(20.0, 0.15), [1000.0, 0.25, 0.25],
                       coupling=COUPLING_FIXED, n_fixed=8)

    def test_nonpositive_horizon_rejected(self, domain):
        with pytest.raises(ArgumentError):
            cost_sweep(domain, ZeroKernel(), [0.5, -1.0], coupling=COUPLING_FIXED,
                       n_fixed=4)


def _counting(func, calls):
    def counted(a):
        calls.append(float(a))
        return func(a)
    return counted


def _assert_same_search(func):
    """_bounded_brent and scipy's bounded minimize_scalar on (0.05, 2): the
    same minimiser and the same evaluation points."""
    port, ref = [], []
    x, _ = observability._bounded_brent(_counting(func, port), 0.05, 2.0)
    res = minimize_scalar(_counting(func, ref), bounds=(0.05, 2.0), method="bounded")
    assert x == res.x
    assert res.nfev == len(ref) and port == ref


class TestBoundedBrent:
    """_bounded_brent against scipy.optimize.minimize_scalar(method="bounded"),
    bit for bit: same minimiser, same evaluation points."""

    @given(st.lists(st.tuples(st.floats(1e-3, 1.0), st.floats(-50.0, 50.0)),
                    min_size=2, max_size=8, unique_by=lambda p: p[0]))
    def test_profile_residual_matches_scipy(self, points):
        Ts = np.array([T for T, _ in points])
        ys = np.array([y for _, y in points])
        _assert_same_search(lambda a: observability._power_fit(Ts, ys, a).residual)

    @pytest.mark.parametrize("func", [
        lambda a: a,                  # minimum at the lower bound
        lambda a: -a,                 # minimum at the upper bound
        lambda a: (a - 0.7) ** 2,     # interior minimum
        lambda a: 1.0,                # constant
    ], ids=["lower-bound", "upper-bound", "interior", "constant"])
    def test_fixed_cases_match_scipy(self, func):
        _assert_same_search(func)


def _default_cfg_sweep(**overrides):
    cfg = parse_config(default_config_path(), overrides=overrides)
    return cost_sweep(cfg.domain(), cfg.kernel(), list(cfg.horizon_list),
                      coupling=cfg.coupling, n_fixed=cfg.n_modes, margin=cfg.margin)


class TestFreeFitOnBound:
    def test_margin0_resolvent_sweep_sits_on_the_lower_bound(self):
        sweep = _default_cfg_sweep(**{"truncation.coupling": COUPLING_RESOLVENT,
                                      "truncation.margin": "0"})
        assert sweep.fit_free.on_bound
        assert sweep.fit_free.alpha == pytest.approx(0.05, abs=1e-5)

    def test_default_sweep_is_interior(self):
        sweep = _default_cfg_sweep()
        assert not sweep.fit_free.on_bound
        assert 0.05 < sweep.fit_free.alpha < 2.0
        assert not sweep.fit_sqrt.on_bound and not sweep.fit_inv.on_bound


class TestEigenGramian:
    """_EigenGramian owns a truncation's dec and W and nothing else."""

    def test_fields_are_dec_and_W(self):
        assert [f.name for f in dataclasses.fields(observability._EigenGramian)] == ["dec", "W"]

    def test_each_entry_point_validates_its_mass_once(self, stable_pipeline, monkeypatch):
        _, _, dec, m_omega = stable_pipeline
        u0, T = np.eye(dec.n_modes)[0], 0.5
        result = hum_control(dec, m_omega, u0, T)
        validated = []

        def counted(m, n, op):
            validated.append(op)
            return _validate_mass(m, n, op)

        for module in (observability, control):  # wherever a direct call could hide
            if hasattr(module, "_validate_mass"):
                monkeypatch.setattr(module, "_validate_mass", counted)
        calls = {
            "observability_gramian": lambda: observability_gramian(dec, m_omega, T),
            "observability_cost": lambda: observability_cost(dec, m_omega, T),
            "hum_control": lambda: hum_control(dec, m_omega, u0, T),
            "controlled_state_norms": lambda: controlled_state_norms(dec, m_omega, u0, result),
            "simulate_controlled": lambda: simulate_controlled(
                dec, m_omega, u0, result.control_coeffs, T, 127),
            "control_cost": lambda: control_cost(result, m_omega, dec),
        }
        for op, call in calls.items():
            validated.clear()
            call()
            assert validated == [op]

    def test_sweep_and_staged_control_keep_no_kernel_or_mass(self, domain, monkeypatch):
        refs = []

        def recorded(*args):
            model = build_model(*args)
            refs.extend(weakref.ref(part) for part in (model[1], model[3]))  # K, M_omega
            return model

        monkeypatch.setattr(observability, "build_model", recorded)
        kernel = GaussianKernel(5.0, 0.2)
        sweep = cost_sweep(domain, kernel, [0.4, 0.2], coupling=COUPLING_FIXED, n_fixed=8)
        staged = lr_staged_control(domain, kernel, np.ones(4), 1.0, stages=2, r0=np.pi ** 2)
        gc.collect()
        assert len(refs) == 4 and all(ref() is None for ref in refs)
        assert sweep.rows[0].report.gram.W.shape == (8, 8) and staged.stage_log


class TestBuildModel:
    @pytest.mark.parametrize("n", [4, 16, 32])
    @pytest.mark.parametrize("kernel", [kernel for _, kernel in bundled_kernels()],
                             ids=[name for name, _ in bundled_kernels()])
    def test_equals_hand_built_chain_bitwise(self, domain, kernel, n):
        basis, kmat, dec, m_omega = build_model(domain, kernel, n)
        ref_basis = build_basis(domain, n)
        ref_kmat = project_kernel(kernel, ref_basis)
        ref_dec = decompose(assemble_generator(ref_basis, ref_kmat))
        ref_m = restricted_mass_matrix(ref_basis, domain.omega_lo, domain.omega_hi)
        assert np.array_equal(basis.lambdas, ref_basis.lambdas)
        assert kmat.matrix.tobytes() == ref_kmat.matrix.tobytes()
        assert kmat.hs_of_k == ref_kmat.hs_of_k
        assert dec.mus.tobytes() == ref_dec.mus.tobytes()
        assert dec.modes.tobytes() == ref_dec.modes.tobytes()
        assert m_omega.tobytes() == ref_m.tobytes()


class TestSweepSharesModels:
    """cost_sweep builds one model per distinct truncation."""

    @pytest.fixture
    def built(self, monkeypatch):
        sizes = []

        def counted(lmat):
            sizes.append(lmat.shape[0])
            return decompose(lmat)

        monkeypatch.setattr(observability, "decompose", counted)
        return sizes

    def test_fixed_sweep_builds_one_model(self, domain, built, monkeypatch):
        projected = []

        def counted_projection(spec, basis, **kw):
            projected.append(basis.n_modes)
            return project_kernel(spec, basis, **kw)

        monkeypatch.setattr(observability, "project_kernel", counted_projection)
        sweep = cost_sweep(domain, GaussianKernel(5.0, 0.2), [0.4, 0.2, 0.1],
                           coupling=COUPLING_FIXED, n_fixed=8)
        assert built == [8] and projected == [8]
        assert all(row.report is not None for row in sweep.rows)

    def test_fixed_sweep_validates_its_mass_matrix_once(self, domain, monkeypatch):
        validated = []

        def counted(m_omega, n, op):
            validated.append((n, op))
            return _validate_mass(m_omega, n, op)

        monkeypatch.setattr(observability, "_validate_mass", counted)
        sweep = cost_sweep(domain, GaussianKernel(5.0, 0.2), [0.4, 0.2, 0.1],
                           coupling=COUPLING_FIXED, n_fixed=8)
        assert validated == [(8, "build_model")]
        assert all(row.report is not None for row in sweep.rows)

    def test_resolvent_sweep_builds_one_model_per_truncation(self, domain, built):
        cost_sweep(domain, ZeroKernel(), [0.4, 0.2, 0.1, 0.05, 0.025],
                   coupling=COUPLING_RESOLVENT)
        assert built == [8, 9, 10]

    @pytest.mark.parametrize("kernel", [ZeroKernel(), GaussianKernel(5.0, 0.2),
                                        GaussianKernel(20.0, 0.15)],
                             ids=["zero", "stable", "unstable"])
    def test_rows_equal_per_row_models_bitwise(self, domain, kernel):
        Ts = [0.4, 0.2, 0.1, 0.05, 0.025, 0.01]
        sweep = cost_sweep(domain, kernel, Ts, coupling=COUPLING_RESOLVENT)
        assert [row.T for row in sweep.rows] == sorted(Ts, reverse=True)
        for row in sweep.rows:
            basis, dec = _dec(domain, kernel, row.n_used)
            ref = observability_cost(
                dec, restricted_mass_matrix(basis, domain.omega_lo, domain.omega_hi), row.T)
            assert row.report.kappa == ref.kappa
            assert row.report.gramian_min_eig == ref.gramian_min_eig
            assert row.report.witness.tobytes() == ref.witness.tobytes()

    @pytest.mark.parametrize("n", [16, 64, 128])
    @pytest.mark.parametrize("kernel", [ZeroKernel(), GaussianKernel(5.0, 0.2),
                                        GaussianKernel(20.0, 0.15)],
                             ids=["zero", "stable", "unstable"])
    def test_fixed_rows_equal_per_row_models_bitwise(self, domain, kernel, n):
        # one W per truncation gives each row the bits of observability_cost on
        # M_omega, the ridge rows and their warnings included
        Ts = [0.5, 0.1, 0.02]
        with warnings.catch_warnings(record=True) as swept:
            warnings.simplefilter("always", RuntimeWarning)
            sweep = cost_sweep(domain, kernel, Ts, coupling=COUPLING_FIXED, n_fixed=n)
        basis, dec = _dec(domain, kernel, n)
        m_omega = restricted_mass_matrix(basis, domain.omega_lo, domain.omega_hi)
        with warnings.catch_warnings(record=True) as per_row:
            warnings.simplefilter("always", RuntimeWarning)
            refs = [observability_cost(dec, m_omega, T) for T in Ts]
        assert [str(w.message) for w in swept] == [str(w.message) for w in per_row]
        if n == 128 and isinstance(kernel, ZeroKernel):  # the known ridge rows
            assert swept and all("retrying with ridge" in str(w.message) for w in swept)
        for row, ref in zip(sweep.rows, refs):
            assert row.T == ref.T and row.n_used == n
            assert row.report.kappa == ref.kappa
            assert row.report.gramian_min_eig == ref.gramian_min_eig
            assert row.report.witness.tobytes() == ref.witness.tobytes()

    def test_failed_model_marks_every_row_of_its_truncation(self, domain, monkeypatch):
        def fail_at_nine(lmat):
            if lmat.shape[0] == 9:
                raise NumericError("forced failure at N = 9")
            return decompose(lmat)

        monkeypatch.setattr(observability, "decompose", fail_at_nine)
        sweep = cost_sweep(domain, ZeroKernel(), [0.4, 0.2, 0.1, 0.05, 0.025],
                           coupling=COUPLING_RESOLVENT)
        for row in sweep.rows:
            if row.n_used == 9:
                assert row.report is None
                assert row.error == "NumericError: forced failure at N = 9"
            else:
                assert row.error is None and row.report.kappa > 0
        assert [row.n_used for row in sweep.rows if row.error] == [9, 9]


class TestProofChain:
    def test_chain_dominates_extremal_quotient(self, domain):
        basis, dec = _dec(domain, GaussianKernel(5.0, 0.2), 8)
        rows = proof_chain_report(basis, dec, r=9.5 * np.pi ** 2, T=0.1)
        assert len(rows) == 20
        for row in rows:
            assert row.zeta > 0
            assert row.log_chain_bound >= row.log_extremal_quotient - 1e-9

    def test_zeta_is_on_the_basis_window(self):
        # the one window: zeta reads the M_omega of basis.domain.omega, bit for bit
        domain = Domain(1.0, 0.1, 0.9)
        basis, dec = _dec(domain, GaussianKernel(5.0, 0.2), 8)
        rows = proof_chain_report(basis, dec, r=9.5 * np.pi ** 2, T=0.1)
        grid = [0.1 * i / 20 for i in range(1, 21)]
        assert [row.t for row in rows] == grid
        want = left_inverse_constants(dec, restricted_mass_matrix(basis, 0.1, 0.9), grid)
        assert np.array([row.zeta for row in rows]).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("n, T", [(8, 0.5), (8, 0.2)] + [
        (n, T) for n in (8, 12, 16) for T in (0.1, 0.05)])
    def test_unfactorable_packet_pencil_is_refused(self, domain, n, T):
        # a packet of the whole truncation: at some grid t the float64 packet
        # block of the zeta pencil is not positive definite, which is refused
        # with its smallest eigenvalue, not left to escape from scipy
        basis, dec = _dec(domain, GaussianKernel(5.0, 0.2), n)
        with pytest.raises(IllConditionedError,
                           match=r"^proof_chain_report: .* at t=[0-9.]+ \(offending eigenvalue"):
            proof_chain_report(basis, dec, r=float(basis.lambdas[-1]), T=T)

    def test_zeta_operators_built_once(self, domain, monkeypatch):
        # one solver, and so one LU of Q, for the grid's 18 escalated
        # horizons, built at the largest one's digits
        basis, dec = _dec(domain, GaussianKernel(5.0, 0.2), 8)
        want = proof_chain_report(basis, dec, r=9.5 * np.pi ** 2, T=0.1)
        built, solves = [], []
        solver, lu = _highprec.zeta_solver, _highprec._lu

        def counted_solver(*args):
            built.append(args[-1])
            solve = solver(*args)
            return lambda t: solves.append(t) or solve(t)

        def counted_lu(*args):
            built.append("lu")
            return lu(*args)

        monkeypatch.setattr(_highprec, "zeta_solver", counted_solver)
        monkeypatch.setattr(_highprec, "_lu", counted_lu)
        rows = proof_chain_report(basis, dec, r=9.5 * np.pi ** 2, T=0.1)
        assert rows == want
        assert built == [max(solves), "lu"] and len(solves) == 18

    def test_packet_pencil_is_the_leading_block_of_zetas(self, domain, rng):
        # (A + A^T) / 2 and its leading block agree with ((A + A^T)[:n, :n]) / 2 bit for bit
        basis, dec = _dec(domain, GaussianKernel(5.0, 0.2), 16)
        m_omega = restricted_mass_matrix(basis, 0.3, 0.8)
        for t in rng.uniform(0.0, 0.2, 8):
            et = dec.semigroup(t)
            emet = et @ m_omega @ et
            for n in (1, 7, 16):
                assert np.array_equal(evolution._zeta_pencil(dec, m_omega, t)[:n, :n],
                                      (emet + emet.T)[:n, :n] / 2)


def _forms_and_bounds(V, G):
    # per-row v @ G @ v, the reference, and |v| |G| |v|^T
    return (np.array([v @ G @ v for v in V]),
            np.array([np.abs(v) @ np.abs(G) @ np.abs(v) for v in V]))


class TestSampledOracleForms:
    """The sampled oracles' quadratic forms v G v^T (one gemm, then a row-wise
    dot) lie within n eps |v| |G| |v|^T of a per-row v @ G @ v loop at n = 8
    (measured at most 2.6 eps), and each oracle's extreme quotient within the
    largest quotient error those bounds allow."""

    N, DRAWS = 8, 2000

    @pytest.fixture
    def model(self, domain):
        _, _, dec, m_omega = build_model(domain, GaussianKernel(5.0, 0.2), self.N)
        return dec, m_omega

    def _assert_extreme(self, got, pick, num, num_err, den, den_err):
        eps = np.finfo(float).eps
        q = num / den
        slack = np.max(np.abs(q) * (num_err / np.abs(num) + den_err / np.abs(den)))
        ref = pick(q)
        assert abs(got - ref) <= slack + 4 * eps * abs(ref)

    def test_forms_within_rounding_of_a_row_loop(self, model):
        dec, m_omega = model
        eps = np.finfo(float).eps
        V = np.random.default_rng(3).standard_normal((self.DRAWS, self.N))
        for G in (m_omega, observability_gramian(dec, m_omega, 0.25)):
            ref, bound = _forms_and_bounds(V, G)
            assert np.all(np.abs(oracles._row_forms(V, G) - ref) <= self.N * eps * bound)

    def test_min_quotient(self, model):
        dec, m_omega = model
        eps = np.finfo(float).eps
        got = oracles.sampled_min_quotient(dec, m_omega, 0.01, self.DRAWS,
                                           np.random.default_rng(5))
        V = np.random.default_rng(5).standard_normal((self.DRAWS, self.N))
        num, num_b = _forms_and_bounds(V @ dec.semigroup(0.01).T, m_omega)
        den, den_b = _forms_and_bounds(V, m_omega)
        self._assert_extreme(got ** 2, np.min, num, self.N * eps * num_b,
                             den, self.N * eps * den_b)

    def test_max_cost_quotient(self, model):
        dec, m_omega = model
        eps = np.finfo(float).eps
        G = observability_gramian(dec, m_omega, 0.25)
        got = oracles.sampled_max_cost_quotient(dec, m_omega, G, 0.25, self.DRAWS,
                                                np.random.default_rng(7))
        V = np.random.default_rng(7).standard_normal((self.DRAWS, self.N))
        num = np.sum((V @ dec.semigroup(0.25).T) ** 2, axis=1)
        den, den_b = _forms_and_bounds(V, G)
        self._assert_extreme(got, np.max, num, self.N * eps * num,
                             den, self.N * eps * den_b)

    def test_min_packet_quotient(self, domain):
        eps = np.finfo(float).eps
        basis = build_basis(domain, self.N)
        m_block = restricted_mass_matrix(basis, 0.3, 0.8)
        got = oracles.sampled_min_packet_quotient(basis, m_block, self.DRAWS,
                                                  np.random.default_rng(11))
        V = np.random.default_rng(11).standard_normal((self.DRAWS, self.N))
        num, num_b = _forms_and_bounds(V, m_block)
        den = np.sum(V * V, axis=1)
        self._assert_extreme(got, np.min, num, self.N * eps * num_b,
                             den, self.N * eps * den)
