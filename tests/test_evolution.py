import mpmath as mp
import numpy as np
import pytest

from nullheat import (ArgumentError, Domain, GaussianKernel, IllConditionedError,
                      KernelMatrix, NumericError, OverflowRefusalError, SeparableKernel,
                      ZeroKernel, assemble_generator, build_basis, decompose,
                      left_inverse_constant, left_inverse_constants, project_kernel,
                      propagate, propagate_backward, restricted_mass_matrix,
                      semigroup_norm, spectral_obs_constants)
from nullheat import _highprec, evolution, oracles
from nullheat.bundled import bundled_kernels
import mp_reference


def _dec(domain, kernel, n):
    basis = build_basis(domain, n)
    kmat = project_kernel(kernel, basis)
    return basis, kmat, decompose(assemble_generator(basis, kmat))


class TestAssemble:
    def test_zero_kernel_diagonal(self):
        basis = build_basis(Domain(np.pi, 1.0, 2.0), 3)
        lmat = assemble_generator(basis, project_kernel(ZeroKernel(), basis))
        assert np.array_equal(lmat, np.diag([-1.0, -4.0, -9.0]))

    def test_rank_one_shift(self, domain):
        basis = build_basis(domain, 4)
        kmat = project_kernel(SeparableKernel(np.array([1.0]), np.array([1.0])), basis)
        lmat = assemble_generator(basis, kmat)
        assert lmat[0, 0] == pytest.approx(-np.pi ** 2 + 1.0, abs=1e-12)
        assert lmat[1, 1] == pytest.approx(-4 * np.pi ** 2, abs=1e-12)

    def test_symmetric_exactly(self, domain):
        basis = build_basis(domain, 12)
        lmat = assemble_generator(basis, project_kernel(GaussianKernel(5.0, 0.2), basis))
        assert np.array_equal(lmat, lmat.T)

    def test_diagonal_dominated_by_shift(self, domain):
        basis = build_basis(domain, 16)
        kmat = project_kernel(GaussianKernel(5.0, 0.2), basis)
        lmat = assemble_generator(basis, kmat)
        assert np.all(np.diag(lmat) <= -basis.lambdas + kmat.hs_of_k + 1e-12)

    def test_dimension_mismatch(self, domain):
        basis = build_basis(domain, 8)
        kmat = project_kernel(ZeroKernel(), build_basis(domain, 4))
        with pytest.raises(ArgumentError):
            assemble_generator(basis, kmat)


class TestDecompose:
    def test_zero_kernel(self, domain):
        basis, _, dec = _dec(domain, ZeroKernel(), 6)
        assert np.allclose(dec.mus, -basis.lambdas, atol=1e-12)
        assert np.allclose(np.abs(dec.modes), np.eye(6), atol=1e-12)

    def test_rank_one_invariant_subspace(self, domain):
        basis, _, dec = _dec(domain, SeparableKernel(np.array([1.0]), np.array([1.0])), 5)
        assert dec.mus[0] == pytest.approx(-np.pi ** 2 + 1.0, abs=1e-12)
        assert abs(dec.modes[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonality_and_reconstruction(self, domain):
        basis, kmat, dec = _dec(domain, GaussianKernel(5.0, 0.2), 16)
        assert np.max(np.abs(dec.modes.T @ dec.modes - np.eye(16))) <= 1e-10
        lmat = assemble_generator(basis, kmat)
        rec = dec.modes @ (dec.mus[:, None] * dec.modes.T)
        assert np.max(np.abs(rec - lmat)) <= 1e-9 * (1 + np.max(np.abs(lmat)))

    def test_weyl_bound_random_symmetric(self, domain, rng):
        basis = build_basis(domain, 10)
        K = rng.standard_normal((10, 10))
        K = (K + K.T) / 2
        K *= 2.0 / np.linalg.norm(K)
        kmat = KernelMatrix(n_modes=10, matrix=K, hs_of_k=2.0)
        dec = decompose(assemble_generator(basis, kmat))
        assert np.max(np.abs(dec.mus + basis.lambdas)) <= 2.0 + 1e-10

    def test_deterministic_sign_convention(self, domain):
        basis, _, dec1 = _dec(domain, GaussianKernel(5.0, 0.2), 12)
        _, _, dec2 = _dec(domain, GaussianKernel(5.0, 0.2), 12)
        assert np.array_equal(dec1.modes, dec2.modes)
        for col in range(12):
            k = np.argmax(np.abs(dec1.modes[:, col]))
            assert dec1.modes[k, col] > 0


class TestPropagate:
    def test_t_zero_identity(self, domain, rng):
        _, _, dec = _dec(domain, GaussianKernel(5.0, 0.2), 8)
        v = rng.standard_normal(8)
        assert np.linalg.norm(propagate(dec, v, 0.0) - v) <= 1e-12

    def test_single_mode_decay(self, domain):
        _, _, dec = _dec(domain, ZeroKernel(), 4)
        e1 = np.array([1.0, 0, 0, 0])
        out = propagate(dec, e1, 0.3)
        assert out[0] == pytest.approx(np.exp(-np.pi ** 2 * 0.3), rel=1e-13)
        assert np.max(np.abs(out[1:])) <= 1e-15

    def test_crank_nicolson_oracle(self, domain, rng):
        for name, kernel in bundled_kernels():
            basis, kmat, dec = _dec(domain, kernel, 16)
            lmat = assemble_generator(basis, kmat)
            v = rng.standard_normal(16)
            exact = propagate(dec, v, 0.1)
            cn = oracles.crank_nicolson_propagate(lmat, v, 0.1, steps=10_000)
            rel = np.linalg.norm(exact - cn) / np.linalg.norm(exact)
            assert rel <= 1e-6, name

    def test_crank_nicolson_matches_mp_scheme(self, domain, rng):
        # reference: the same scheme at 60 digits, S = (I - dt/2 L)^{-1} (I + dt/2 L)
        # formed in mp from the float L and raised to the 10 000th power; a
        # per-step float loop is 1e-13 to 9e-13 away, powering on S 1e-12
        t, steps = 0.1, 10_000
        for name, kernel in bundled_kernels():
            basis, kmat, _ = _dec(domain, kernel, 16)
            lmat = assemble_generator(basis, kmat)
            v = rng.standard_normal(16)
            with mp.workdps(60):
                half = mp.matrix(lmat.tolist()) * (mp.mpf(t) / steps / 2)
                S = mp.inverse(mp.eye(16) - half) * (mp.eye(16) + half)
                ref = np.array([float(x) for x in (S ** steps) * mp.matrix(v.tolist())])
            cn = oracles.crank_nicolson_propagate(lmat, v, t, steps=steps)
            assert np.linalg.norm(cn - ref) <= 1e-13 * np.linalg.norm(ref), name

    @pytest.mark.parametrize("steps", [-3, 0, 2.5, 10_000.0, True, "100"])
    def test_crank_nicolson_steps_must_be_a_positive_integer(self, steps):
        with pytest.raises(ArgumentError, match="steps must be a positive integer"):
            oracles.crank_nicolson_propagate(-np.eye(3), np.ones(3), 0.1, steps=steps)

    def test_semigroup_law(self, domain, rng):
        _, _, dec = _dec(domain, GaussianKernel(5.0, 0.2), 16)
        v = rng.standard_normal(16)
        for s in (0.01, 0.1, 1.0):
            for t in (0.01, 0.1, 1.0):
                lhs = propagate(dec, v, s + t)
                rhs = propagate(dec, propagate(dec, v, s), t)
                assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(lhs)

    def test_negative_t_rejected(self, domain):
        _, _, dec = _dec(domain, ZeroKernel(), 4)
        with pytest.raises(ArgumentError):
            propagate(dec, np.ones(4), -0.1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_state_refused(self, domain):
        # amplitude 1e4 grows e1 like e^(8721 t): at t = 0.0476 the entries
        # (~2e180) are finite but the squared norm is not, and past t = 0.0814
        # the entries overflow too; both are refused without a warning
        _, _, dec = _dec(domain, GaussianKernel(1e4, 0.2), 16)
        e1 = np.eye(16)[0]
        assert np.all(np.isfinite(propagate(dec, e1, 0.04)))
        for t in (3.0 / 63, 0.1):
            with pytest.raises(NumericError, match=f"state overflows float64 at t={t:g}"):
                propagate(dec, e1, t)

    def test_dense_semigroup_applies_like_propagate(self, domain, rng):
        _, _, dec = _dec(domain, GaussianKernel(20.0, 0.15), 16)
        v = rng.standard_normal(16)
        for t in (0.0, 0.01, 0.1, 1.0):
            lhs = dec.semigroup(t) @ v
            assert np.linalg.norm(lhs - propagate(dec, v, t)) <= 1e-13 * np.linalg.norm(lhs)


class TestPropagateBackward:
    def test_t_zero_identity(self, domain, rng):
        _, _, dec = _dec(domain, ZeroKernel(), 4)
        v = rng.standard_normal(4)
        assert np.array_equal(propagate_backward(dec, v, 0.0), v)

    def test_single_mode_growth(self, domain):
        _, _, dec = _dec(domain, ZeroKernel(), 4)
        e1 = np.array([1.0, 0, 0, 0])
        out = propagate_backward(dec, e1, 0.2)
        assert out[0] == pytest.approx(np.exp(np.pi ** 2 * 0.2), rel=1e-13)

    def test_roundtrip(self, domain, rng):
        # guarantee region: t * spread(mu) <= 30
        _, _, dec = _dec(domain, GaussianKernel(5.0, 0.2), 6)
        v = rng.standard_normal(6)
        w = propagate(dec, propagate_backward(dec, v, 0.05), 0.05)
        assert np.linalg.norm(w - v) <= 1e-8 * np.linalg.norm(v)

    def test_overflow_guard(self, domain):
        _, _, dec = _dec(domain, ZeroKernel(), 16)
        with pytest.raises(OverflowRefusalError):
            propagate_backward(dec, np.ones(16), 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kernel, t", [(ZeroKernel(), 2.0), (GaussianKernel(-80.0, 0.15), 2.5)],
                             ids=["zero", "gaussian"])
    def test_overflow_inside_the_spread_guard_refused(self, domain, kernel, t):
        # t * spread(mu) stays below the guard's 700 while -mu_N t passes
        # exp()'s 709.8: e^{-mu_N t} is inf, and the state would hold inf or
        # nan; refused without a warning
        _, _, dec = _dec(domain, kernel, 6)
        assert t * (dec.mus[0] - dec.mus[-1]) <= evolution.BACKWARD_EXP_GUARD
        assert -dec.mus[-1] * t > np.log(np.finfo(float).max)
        with pytest.raises(OverflowRefusalError, match=f"state overflows float64 at t={t:g}"):
            propagate_backward(dec, np.ones(6), t)


class TestSemigroupNorm:
    def test_t_zero_is_one(self, domain):
        _, _, dec = _dec(domain, GaussianKernel(5.0, 0.2), 8)
        assert semigroup_norm(dec, 0.0) == 1.0

    def test_zero_kernel_decay(self, domain):
        _, _, dec = _dec(domain, ZeroKernel(), 8)
        assert semigroup_norm(dec, 0.7) == pytest.approx(np.exp(-np.pi ** 2 * 0.7),
                                                         rel=1e-13)

    def test_growth_bound_all_kernels(self, domain):
        lam1 = np.pi ** 2
        for name, kernel in bundled_kernels():
            basis, kmat, dec = _dec(domain, kernel, 32)
            for t in np.linspace(0.1, 5.0, 50):
                bound = np.exp((-lam1 + kmat.hs_of_k) * t) * (1 + 1e-10)
                assert semigroup_norm(dec, t) <= bound, (name, t)


class TestLeftInverseConstant:
    def test_identity_at_zero(self, stable_pipeline):
        _, _, dec, m_omega = stable_pipeline
        assert left_inverse_constant(dec, m_omega, 0.0) == 1.0

    def test_full_window_zero_kernel(self):
        domain = Domain(1.0, 0.0, 1.0)
        _, _, dec = _dec(domain, ZeroKernel(), 5)
        m_omega = restricted_mass_matrix(build_basis(domain, 5), 0.0, 1.0)
        t = 0.02
        zeta = left_inverse_constant(dec, m_omega, t)
        assert zeta == pytest.approx(np.exp(-25 * np.pi ** 2 * t), rel=1e-10)

    def test_random_vector_inequality(self, domain, rng):
        _, _, dec = _dec(domain, GaussianKernel(5.0, 0.2), 8)
        m_omega = restricted_mass_matrix(build_basis(domain, 8), 0.3, 0.8)
        for t in (0.01, 0.1):
            zeta = left_inverse_constant(dec, m_omega, t)
            assert zeta > 0.0
            V = rng.standard_normal((100, 8))
            et = dec.modes @ (np.exp(dec.mus * t)[:, None] * dec.modes.T)
            EV = V @ et.T
            lhs = zeta * np.sqrt(np.einsum("ij,jk,ik->i", V, m_omega, V))
            rhs = np.sqrt(np.einsum("ij,jk,ik->i", EV, m_omega, EV))
            assert np.all(lhs <= rhs + 1e-10)

    def test_sampled_oracle_bounds_from_above(self, domain, rng):
        # the sampled minimum can only sit above the true constant; it gets
        # close when the generalized spectrum is not too spread (small t),
        # while at larger t exponential gaps keep random search far away
        basis = build_basis(domain, 4)
        _, _, dec = _dec(domain, GaussianKernel(5.0, 0.2), 4)
        m_omega = restricted_mass_matrix(basis, 0.3, 0.8)
        zeta = left_inverse_constant(dec, m_omega, 0.01)
        sampled = oracles.sampled_min_quotient(dec, m_omega, 0.01, 100_000, rng)
        assert zeta <= sampled * (1 + 1e-10)
        assert sampled <= zeta * 1.02

    def test_sampled_oracle_inequality_deep(self, domain, rng):
        _, _, dec = _dec(domain, GaussianKernel(5.0, 0.2), 8)
        m_omega = restricted_mass_matrix(build_basis(domain, 8), 0.3, 0.8)
        zeta = left_inverse_constant(dec, m_omega, 0.1)
        sampled = oracles.sampled_min_quotient(dec, m_omega, 0.1, 100_000, rng)
        assert zeta <= sampled * (1 + 1e-10)

    @pytest.mark.parametrize("kernel, n, t", [(ZeroKernel(), 19, 5e-4),
                                              (GaussianKernel(5.0, 0.2), 16, 1e-3),
                                              (GaussianKernel(5.0, 0.2), 8, 0.01)],
                             ids=["zero-19", "gaussian-16", "gaussian-8"])
    def test_matches_eigsy_reference(self, domain, kernel, n, t):
        # points where a float64 generalized eigensolve of the same pencil,
        # above its 1e-12 ratio floor, was -1.1e-3, +6.7e-6 and +5.9e-8 off
        _, _, dec = _dec(domain, kernel, n)
        m_omega = restricted_mass_matrix(build_basis(domain, n), 0.3, 0.8)
        ref = np.exp(_zeta_eigsy_reference(dec.mus, dec.modes, m_omega, t, 60))
        assert left_inverse_constant(dec, m_omega, t) == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("kernel, n", [(GaussianKernel(5.0, 0.2), 16),
                                           (GaussianKernel(5.0, 0.2), 8), (ZeroKernel(), 19)],
                             ids=["gaussian-16", "gaussian-8", "zero-19"])
    @pytest.mark.parametrize("t", [1e-4, 1e-5, 1e-6])
    def test_short_horizons_match_eigsy_reference(self, domain, kernel, n, t):
        # theta_1 / theta_2 -> 1 as t -> 0: an unshifted inverse iteration
        # needs O(1/t) steps here, more than 200 at (gaussian-8, 1e-5)
        _, _, dec = _dec(domain, kernel, n)
        m_omega = restricted_mass_matrix(build_basis(domain, n), 0.3, 0.8)
        ref = np.exp(_zeta_eigsy_reference(dec.mus, dec.modes, m_omega, t, 60))
        assert left_inverse_constant(dec, m_omega, t) == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("method", ["auto", "mp"])
    def test_methods_name_the_one_route(self, domain, method):
        _, _, dec = _dec(domain, GaussianKernel(5.0, 0.2), 6)
        m_omega = restricted_mass_matrix(build_basis(domain, 6), 0.3, 0.8)
        assert (left_inverse_constant(dec, m_omega, 0.005, method)
                == left_inverse_constants(dec, m_omega, [0.005])[0])

    def test_float_method_refused(self, domain):
        _, _, dec = _dec(domain, GaussianKernel(5.0, 0.2), 6)
        m_omega = restricted_mass_matrix(build_basis(domain, 6), 0.3, 0.8)
        with pytest.raises(ArgumentError, match="unknown method 'float'"):
            left_inverse_constant(dec, m_omega, 0.005, method="float")

    def test_float_method_refused_at_zero(self, stable_pipeline):
        _, _, dec, m_omega = stable_pipeline
        with pytest.raises(ArgumentError, match="unknown method 'float'"):
            left_inverse_constant(dec, m_omega, 0.0, method="float")

    def test_underflow_refused_before_extended_precision(self, domain, monkeypatch):
        # mu_N t = -1010.6 bounds log zeta, so no eigensolve is needed to refuse
        _, _, dec = _dec(domain, GaussianKernel(5.0, 0.2), 16)
        m_omega = restricted_mass_matrix(build_basis(domain, 16), 0.3, 0.8)

        def escalated(*args):
            raise AssertionError("refusal ran the extended-precision eigensolve")

        monkeypatch.setattr(_highprec, "zeta_solver", escalated)
        for method in ("auto", "mp"):
            with pytest.raises(NumericError, match=r"underflows float64 \(log zeta <= "
                                                   r"mu_N t = -1010\.6\)"):
                left_inverse_constant(dec, m_omega, 0.4, method=method)

    def test_conditioning_gate(self, domain):
        _, _, dec = _dec(domain, ZeroKernel(), 32)
        m_omega = restricted_mass_matrix(build_basis(domain, 32), 0.3, 0.8)
        with pytest.raises(IllConditionedError) as err:
            left_inverse_constant(dec, m_omega, 0.1)
        assert err.value.eigenvalue is not None
        assert err.value.eigenvalue < 1e-14


def _each(dec, m_omega, ts):
    # the per-t calls, or the exception the first refused t raises
    try:
        return [left_inverse_constant(dec, m_omega, t) for t in ts]
    except Exception as exc:
        return exc


class TestLeftInverseConstants:
    """One list, one validation and one mp solver: the per-t calls' values,
    bit for bit, and their first refusal."""

    # t = 5 is refused from the bound mu_N t at every N here, -0.1 as an
    # argument; the lists are unsorted so that t_max is not the last t
    LISTS = ((0.0, 0.001, 0.01, 0.05), (0.05, 0.002, 0.02, 0.005),
             (0.01, 0.03, 5.0, 0.02), (0.02, -0.1, 0.01))

    @pytest.mark.parametrize("kernel", [k for _, k in bundled_kernels()],
                             ids=[name for name, _ in bundled_kernels()])
    def test_equals_per_t_calls_bitwise(self, domain, kernel):
        for n in (6, 8, 12, 16, 19):
            _, _, dec = _dec(domain, kernel, n)
            m_omega = restricted_mass_matrix(build_basis(domain, n), 0.3, 0.8)
            for ts in self.LISTS:
                want = _each(dec, m_omega, ts)
                if isinstance(want, list):
                    got = left_inverse_constants(dec, m_omega, ts)
                    assert [z.hex() for z in got] == [z.hex() for z in want], (n, ts)
                    continue
                with pytest.raises(type(want)) as err:
                    left_inverse_constants(dec, m_omega, ts)
                assert str(err.value) == str(want), (n, ts)

    def test_refusal_waits_for_the_t_before_it(self, domain, monkeypatch):
        # an mp failure at the first t surfaces before the second t's refusal
        _, _, dec = _dec(domain, GaussianKernel(5.0, 0.2), 8)
        m_omega = restricted_mass_matrix(build_basis(domain, 8), 0.3, 0.8)

        def failing(mus, modes, m, t_max):
            def solve(t):
                raise NumericError(f"mp failure at t = {t}")
            return solve

        monkeypatch.setattr(_highprec, "zeta_solver", failing)
        for ts in ((0.1, -0.1), (0.1, 5.0)):
            with pytest.raises(NumericError, match=r"^mp failure at t = 0\.1$"):
                left_inverse_constants(dec, m_omega, ts)
        with pytest.raises(ArgumentError, match="t must be"):
            left_inverse_constants(dec, m_omega, (-0.1, 0.1))

    def test_one_validation_and_one_solver_per_list(self, domain, monkeypatch):
        _, _, dec = _dec(domain, GaussianKernel(5.0, 0.2), 8)
        m_omega = restricted_mass_matrix(build_basis(domain, 8), 0.3, 0.8)
        ts = [0.0] + [0.1 * i / 20 for i in range(1, 21)]
        want = [left_inverse_constant(dec, m_omega, t) for t in ts]
        calls, solver = [], _highprec.zeta_solver

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        def counted_solver(*args):
            calls.append(("solver", args[-1]))
            solve = solver(*args)
            return lambda t: calls.append(t) or solve(t)

        monkeypatch.setattr(evolution, "_validate_mass",
                            counted("validate", evolution._validate_mass))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(_highprec, "zeta_solver", counted_solver)
        assert left_inverse_constants(dec, m_omega, ts) == want
        # every t > 0, in order, on the one solver built for the largest; t = 0 needs none
        assert calls == ["validate", "eigvalsh", ("solver", 0.1)] + ts[1:]


def _zeta_eigsy_reference(mus, modes, m_omega, t, dps):
    # reference: the full symmetric mp eigensolve of C^{-1} (E M E) C^{-T},
    # M = C C^T, with E = Q diag(e^{mu t}) Q^T formed explicitly
    with mp.workdps(dps):
        Q = mp.matrix([[mp.mpf(float(x)) for x in row] for row in modes])
        M = mp.matrix([[mp.mpf(float(x)) for x in row] for row in m_omega])
        E = Q * mp.diag([mp.e ** (mp.mpf(float(mu)) * mp.mpf(t)) for mu in mus]) * Q.T
        C = mp.cholesky(M)
        Ci = C ** -1
        S = Ci * (E * M * E) * Ci.T
        w = mp.eigsy((S + S.T) / 2, eigvals_only=True)
        return float(mp.log(min(w)) / 2)


class TestExtendedPrecisionZeta:
    """The mp pencil iteration for zeta against the full mp eigensolve."""

    @pytest.mark.parametrize("kernel, n", [(GaussianKernel(5.0, 0.2), 16),
                                           (GaussianKernel(5.0, 0.2), 8), (ZeroKernel(), 19)],
                             ids=["gaussian-16", "gaussian-8", "zero-19"])
    def test_shifted_steps_do_not_grow_as_t_shrinks(self, domain, kernel, n, monkeypatch):
        # the shift keeps the iteration at about 1/9 a step down to t = 1e-12
        _, _, dec = _dec(domain, kernel, n)
        m_omega = restricted_mass_matrix(build_basis(domain, n), 0.3, 0.8)
        steps, pencil_eigpair = [], _highprec._min_pencil_eigpair

        def counted(step, start, dps):
            def counted_step(v):
                steps[-1] += 1
                return step(v)
            steps.append(0)
            return pencil_eigpair(counted_step, start, dps)

        monkeypatch.setattr(_highprec, "_min_pencil_eigpair", counted)
        for t in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            log_zeta = _highprec.generalized_min_eig_mp(dec.mus, dec.modes, m_omega, t)
            ref_log = _zeta_eigsy_reference(dec.mus, dec.modes, m_omega, t, 60)
            assert log_zeta == pytest.approx(ref_log, rel=1e-12, abs=0)
        assert max(steps) <= 30, steps

    def test_shift_at_or_above_theta_min_is_refused(self, domain, monkeypatch):
        # float64 eigenvalues of H moved up past theta_1 leave H - s I indefinite:
        # its Cholesky factor stops short, and the unshifted iteration, which
        # converges at theta_1 / theta_2 = 0.54 here, gives zeta
        _, _, dec = _dec(domain, GaussianKernel(5.0, 0.2), 6)
        m_omega = restricted_mass_matrix(build_basis(domain, 6), 0.3, 0.8)
        t = 1e-3
        want = _highprec.generalized_min_eig_mp(dec.mus, dec.modes, m_omega, t)
        eigh, cholesky, factors = _highprec.sla.eigh, _highprec._cholesky, []

        def moved(a, b=None, **kwargs):
            w = eigh(a, b, **kwargs)
            return w if b is not None else w + 2.0 * (w[1] - w[0])

        def counted(A, prec):
            factors.append(len(cholesky(A, prec)))
            return cholesky(A, prec)

        monkeypatch.setattr(_highprec.sla, "eigh", moved)
        monkeypatch.setattr(_highprec, "_cholesky", counted)
        log_zeta = _highprec.generalized_min_eig_mp(dec.mus, dec.modes, m_omega, t)
        assert factors[0] == 6 and factors[-1] < 6  # M_omega's, then H - s I's
        ref_log = _zeta_eigsy_reference(dec.mus, dec.modes, m_omega, t, 60)
        assert log_zeta == pytest.approx(ref_log, rel=1e-12, abs=0)
        assert log_zeta == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("kernel", [ZeroKernel(), GaussianKernel(5.0, 0.2)],
                             ids=["zero", "gaussian"])
    @pytest.mark.parametrize("n, t", [(8, 0.01), (8, 0.1), (16, 0.005), (16, 0.02),
                                      (16, 0.4), (20, 0.05)])
    def test_matches_eigsy_reference(self, domain, kernel, n, t):
        _, _, dec = _dec(domain, kernel, n)
        m_omega = restricted_mass_matrix(build_basis(domain, n), 0.3, 0.8)
        dps = int(max(40, 2.0 * t * float(dec.mus[0] - dec.mus[-1]) / np.log(10.0) + 30))
        log_zeta = _highprec.generalized_min_eig_mp(dec.mus, dec.modes, m_omega, t)
        ref_log = _zeta_eigsy_reference(dec.mus, dec.modes, m_omega, t, dps)
        assert log_zeta == pytest.approx(ref_log, rel=1e-12, abs=0)
        # the fastest mode's quotient is e^{2 mu_N t}: the a-priori underflow bound
        assert log_zeta <= dec.mus[-1] * t


def _rayleigh_stopped(rayleigh):
    # the inverse iteration as it was before the step's own products gave the
    # estimate: each normalized iterate v gets rayleigh(v) = v^T A v / v^T B v.
    # It runs on mpf; step takes and returns _highprec's vectors of pairs.
    def to_vec(v):
        return _highprec._Vec(_highprec._pair(vi) for vi in v)

    def pencil_eigpair(step, start, dps, max_iter=200):
        v, lam_old = [_highprec._mpf(p) for p in start.pairs], None
        for _ in range(max_iter):
            x, _ = step(to_vec(v))
            x = [_highprec._mpf(p) for p in x.pairs]
            nrm = mp.sqrt(mp.fsum(x, absolute=True, squared=True))
            v = [xi / nrm for xi in x]
            lam = rayleigh(v)
            if lam_old is not None and abs(lam - lam_old) <= mp.mpf(10) ** (-dps + 12) * abs(lam):
                return _highprec._pair(lam), to_vec(v)
            lam_old = lam
        raise AssertionError("reference iteration did not converge")
    return pencil_eigpair


class TestPencilStopRule:
    """The estimate v^T B v / x^T B v stops on the same float64 values as the
    Rayleigh quotient of each iterate, which needs A v: 4 more n^2 products
    per zeta step and 1 more per packet step."""

    @pytest.mark.parametrize("kernel", [ZeroKernel(), GaussianKernel(5.0, 0.2),
                                        GaussianKernel(20.0, 0.15)],
                             ids=["zero", "stable", "unstable"])
    def test_zeta_equals_rayleigh_stopped(self, domain, kernel, monkeypatch):
        for n in (6, 12, 19):
            _, _, dec = _dec(domain, kernel, n)
            m_omega = restricted_mass_matrix(build_basis(domain, n), 0.3, 0.8)
            # horizons at which theta_1 / theta_2 <= 1/9, so the iteration runs
            # unshifted, on (A, M) itself
            for t in (0.01, 0.02, 0.05):
                log_zeta = _highprec.generalized_min_eig_mp(dec.mus, dec.modes, m_omega, t)
                pencil = []

                def rayleigh(v):
                    # A = E M E, E = Q diag(e^{mu t}) Q^T, built at the working dps
                    if not pencil:
                        pencil.extend([[mp.mpf(float(x)) for x in row] for row in a]
                                      for a in (dec.modes, dec.modes.T, m_omega))
                        pencil.append([mp.e ** (mp.mpf(float(mu)) * mp.mpf(t))
                                       for mu in dec.mus])
                    (Q, Qt, M, e), mv = pencil, mp_reference.matvec
                    ev = mv(Q, [ei * yi for ei, yi in zip(e, mv(Qt, v))])
                    return mp.fdot(ev, mv(M, ev)) / mp.fdot(v, mv(M, v))

                with monkeypatch.context() as patch:
                    patch.setattr(_highprec, "_min_pencil_eigpair", _rayleigh_stopped(rayleigh))
                    ref = _highprec.generalized_min_eig_mp(dec.mus, dec.modes, m_omega, t)
                assert log_zeta == ref, (n, t)

    @pytest.mark.parametrize("omega", [(0.3, 0.8), (0.1, 0.6)])
    def test_packet_constants_equal_rayleigh_stopped(self, domain, omega, monkeypatch):
        # windows whose deepest c_min (8e-19, 1.2e-25) the 50-digit Gram
        # matrix resolves far past float64
        basis = build_basis(domain, 26)
        rs = [((n + 0.5) * np.pi) ** 2 for n in range(2, 25)]
        reports = spectral_obs_constants(basis, omega, rs)
        smallest, escalated = _highprec.smallest_eigenpair_mp, []

        def reference(M, **kwargs):
            rows = _highprec._rows(M)
            escalated.append(len(rows))
            with monkeypatch.context() as patch:
                patch.setattr(_highprec, "_min_pencil_eigpair",
                              _rayleigh_stopped(lambda u: mp.fdot(u, mp_reference.matvec(rows, u))))
                return smallest(M, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(_highprec, "smallest_eigenpair_mp", reference)
            refs = spectral_obs_constants(basis, omega, rs)
        assert len(escalated) >= 10
        for rep, ref in zip(reports, refs):
            assert rep.c_min == ref.c_min, rep.n_modes
            assert np.array_equal(rep.witness, ref.witness), rep.n_modes
