import mpmath as mp
import numpy as np
import pytest

from nullheat import (ArgumentError, Domain, GaussianKernel, IllConditionedError,
                      NumericError, build_basis, build_model, control_cost,
                      controlled_state_norms, cost_sweep, eval_mode, gauss_quadrature,
                      hum_control, left_inverse_constant, lr_staged_control,
                      observability_cost, observability_gramian, propagate,
                      propagate_backward, restricted_mass_matrix, semigroup_norm,
                      simulate_controlled, truncation_for_horizon)
from nullheat import _highprec, certify, oracles
from nullheat import basis as basis_module
from nullheat.basis import _PSD_TOL, _gauss_legendre, _validate_mass, gauss_rule, positive_sign
from nullheat.bundled import bundled_kernels


def _gram_double_loop(n, lo, hi, ell, sin=np.sin, pi=np.pi):
    # reference: the entrywise sine-product antiderivatives, one pair of
    # sines per entry, upper triangle mirrored (float64 or mp arithmetic)
    M = [[None] * n for _ in range(n)]
    for i in range(n):
        m = i + 1
        M[i][i] = (hi - lo) / ell - (
            sin(2 * m * pi * hi / ell) - sin(2 * m * pi * lo / ell)) / (2 * m * pi)
        for j in range(i + 1, n):
            nn = j + 1
            M[i][j] = M[j][i] = (
                (sin((m - nn) * pi * hi / ell) - sin((m - nn) * pi * lo / ell)) / (m - nn)
                - (sin((m + nn) * pi * hi / ell) - sin((m + nn) * pi * lo / ell)) / (m + nn)
            ) / pi
    return M


# interior, boundary-touching, narrow, and windows symmetric about a node of
# some sine product (exact zero entries, whose sign must survive too)
_WINDOWS = ((0.3, 0.8), (0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (0.0, 1e-3),
            (1.0 - 1e-3, 1.0), (0.45, 0.55), (0.4999, 0.5001), (0.25, 0.85),
            (0.123, 0.789))


class TestDomain:
    def test_valid(self):
        d = Domain(2.0, 0.5, 1.5)
        assert d.omega == (0.5, 1.5)

    @pytest.mark.parametrize("args", [
        (0.0, 0.1, 0.2), (-1.0, 0.1, 0.2), (1.0, 0.5, 0.5),
        (1.0, 0.8, 0.3), (1.0, -0.1, 0.5), (1.0, 0.3, 1.2),
    ])
    def test_invalid(self, args):
        with pytest.raises(ArgumentError):
            Domain(*args)


class TestBuildBasis:
    def test_eigenvalues_unit_pi_domain(self):
        basis = build_basis(Domain(np.pi, 1.0, 2.0), 4)
        assert np.array_equal(basis.lambdas, [1.0, 4.0, 9.0, 16.0])

    def test_first_eigenvalue_unit_domain(self):
        basis = build_basis(Domain(1.0, 0.3, 0.8), 1)
        assert basis.lambdas[0] == np.pi ** 2

    def test_lambdas_strictly_increasing(self):
        basis = build_basis(Domain(1.7, 0.2, 0.9), 20)
        assert np.all(np.diff(basis.lambdas) > 0)

    def test_normalization(self):
        basis = build_basis(Domain(1.0, 0.3, 0.8), 8)
        val = gauss_quadrature(lambda x: eval_mode(basis, 3, x) ** 2, 0, 1, 8)
        assert abs(val - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [0, -3])
    def test_bad_truncation(self, n):
        with pytest.raises(ArgumentError):
            build_basis(Domain(1.0, 0.3, 0.8), n)


class TestEvalMode:
    def test_half_domain_values(self):
        basis = build_basis(Domain(1.0, 0.3, 0.8), 4)
        assert eval_mode(basis, 0, 0.5) == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert eval_mode(basis, 1, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_dirichlet_boundary(self):
        basis = build_basis(Domain(2.5, 0.4, 1.1), 6)
        for j in range(6):
            assert eval_mode(basis, j, 0.0) == 0.0

    def test_vectorized(self):
        basis = build_basis(Domain(1.0, 0.3, 0.8), 4)
        xs = np.linspace(0, 1, 7)
        vals = eval_mode(basis, 2, xs)
        assert vals.shape == xs.shape

    def test_out_of_range(self):
        basis = build_basis(Domain(1.0, 0.3, 0.8), 4)
        with pytest.raises(ArgumentError):
            eval_mode(basis, 4, 0.5)
        with pytest.raises(ArgumentError):
            eval_mode(basis, 0, 1.5)


class TestRestrictedMassMatrix:
    def test_full_domain_identity(self):
        basis = build_basis(Domain(1.0, 0.3, 0.8), 32)
        M = restricted_mass_matrix(basis, 0.0, 1.0)
        assert np.max(np.abs(M - np.eye(32))) <= 1e-14

    def test_closed_form_entries(self):
        basis = build_basis(Domain(1.0, 0.3, 0.8), 4)
        M = restricted_mass_matrix(basis, 0.0, 0.5)
        assert M[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert M[0, 1] == pytest.approx(4.0 / (3.0 * np.pi), abs=1e-15)

    def test_matches_quadrature(self, rng):
        basis = build_basis(Domain(1.0, 0.3, 0.8), 12)
        for _ in range(10):
            lo, hi = np.sort(rng.uniform(0.0, 1.0, size=2))
            if hi - lo < 1e-3:
                continue
            M = restricted_mass_matrix(basis, lo, hi)
            panels = max(1, int(np.ceil((hi - lo) * 12)))
            for i in (0, 5, 11):
                for j in (0, 5, 11):
                    q = gauss_quadrature(
                        lambda x: eval_mode(basis, i, x) * eval_mode(basis, j, x),
                        lo, hi, panels)
                    assert abs(M[i, j] - q) <= 1e-10

    def test_interior_window_matches_quadrature_entry(self):
        basis = build_basis(Domain(1.0, 0.3, 0.8), 4)
        M = restricted_mass_matrix(basis, 0.3, 0.8)
        q = gauss_quadrature(lambda x: eval_mode(basis, 0, x) ** 2, 0.3, 0.8, 4)
        assert abs(M[0, 0] - q) <= 1e-12

    def test_spectrum_in_unit_interval(self):
        basis = build_basis(Domain(1.0, 0.3, 0.8), 24)
        for lo, hi in ((0.3, 0.8), (0.1, 0.35), (0.0, 1.0)):
            w = np.linalg.eigvalsh(restricted_mass_matrix(basis, lo, hi))
            assert w[0] >= -1e-12
            assert w[-1] <= 1.0 + 1e-12

    def test_monotone_in_window(self, rng):
        basis = build_basis(Domain(1.0, 0.3, 0.8), 10)
        M_small = restricted_mass_matrix(basis, 0.4, 0.6)
        M_big = restricted_mass_matrix(basis, 0.3, 0.8)
        C = rng.standard_normal((100, 10))
        q_small = np.einsum("ij,jk,ik->i", C, M_small, C)
        q_big = np.einsum("ij,jk,ik->i", C, M_big, C)
        assert np.all(q_small <= q_big + 1e-12)

    def test_symmetric(self):
        basis = build_basis(Domain(1.3, 0.2, 0.9), 9)
        M = restricted_mass_matrix(basis, 0.25, 0.85)
        assert np.array_equal(M, M.T)

    def test_empty_or_inverted_interval(self):
        basis = build_basis(Domain(1.0, 0.3, 0.8), 4)
        with pytest.raises(ArgumentError):
            restricted_mass_matrix(basis, 0.5, 0.5)
        with pytest.raises(ArgumentError):
            restricted_mass_matrix(basis, 0.8, 0.3)

    @pytest.mark.parametrize("n", [1, 2, 8, 16, 32, 128, 256])
    def test_sine_table_equals_double_loop_bitwise(self, n):
        basis = build_basis(Domain(1.0, 0.3, 0.8), n)
        for lo, hi in _WINDOWS:
            M = restricted_mass_matrix(basis, lo, hi)
            ref = np.array(_gram_double_loop(n, lo, hi, 1.0))
            # compare bit patterns, so that -0.0 != 0.0
            assert np.array_equal(M.view(np.uint64), ref.view(np.uint64)), (lo, hi)

    def test_other_length_bitwise(self):
        basis = build_basis(Domain(2.7, 0.3, 0.8), 40)
        for lo, hi in ((0.0, 2.7), (0.3, 1.9), (1.35, 1.36)):
            ref = np.array(_gram_double_loop(40, lo, hi, 2.7))
            assert np.array_equal(restricted_mass_matrix(basis, lo, hi).view(np.uint64),
                                  ref.view(np.uint64))

    @pytest.mark.parametrize("n", [1, 2, 8, 26])
    def test_mp_sine_table_equals_mp_double_loop(self, n):
        for lo, hi in _WINDOWS[:8]:
            M = _highprec.mass_matrix_mp(n, lo, hi, 1.0)
            with mp.workdps(50):
                ref = _gram_double_loop(n, mp.mpf(lo), mp.mpf(hi), mp.mpf(1.0),
                                        sin=mp.sin, pi=mp.pi)
            assert all(M[i, j] == ref[i][j] for i in range(n) for j in range(n)), (lo, hi)

    def test_mp_leading_blocks(self):
        big = _highprec.mass_matrix_mp(20, 0.3, 0.8, 1.0)
        small = _highprec.mass_matrix_mp(7, 0.3, 0.8, 1.0)
        assert all(big[i, j] == small[i, j] for i in range(7) for j in range(7))


def _bad_mass(kind, m_omega):
    m = m_omega.copy()
    if kind == "shape":
        return m[:-1, :-1]
    if kind == "nan":
        m[2, 3] = np.nan
    elif kind == "asymmetric":
        m[2, 3] += 1e-3
    else:  # indefinite: the smallest eigenvalue pushed to -0.01
        m -= (np.linalg.eigvalsh(m)[0] + 0.01) * np.eye(m.shape[0])
    return m


_CONSUMERS = {
    "observability_gramian": lambda dec, m, u0, ok: observability_gramian(dec, m, 0.1),
    "observability_cost": lambda dec, m, u0, ok: observability_cost(dec, m, 0.1),
    "hum_control": lambda dec, m, u0, ok: hum_control(dec, m, u0, 0.1),
    "controlled_state_norms": lambda dec, m, u0, ok: controlled_state_norms(
        dec, m, u0, hum_control(dec, ok, u0, 0.1)),
    "simulate_controlled": lambda dec, m, u0, ok: simulate_controlled(
        dec, m, u0, np.zeros((5, u0.size)), 0.1, 9),
    "control_cost": lambda dec, m, u0, ok: control_cost(hum_control(dec, ok, u0, 0.1), m, dec),
    "left_inverse_constant": lambda dec, m, u0, ok: left_inverse_constant(dec, m, 0.1),
}


class TestValidateMass:
    """Every consumer of a caller's M_omega refuses a bad one with its own error."""

    @pytest.mark.parametrize("kind, error", [
        ("shape", ArgumentError), ("nan", NumericError), ("asymmetric", ArgumentError),
        ("indefinite", IllConditionedError)])
    @pytest.mark.parametrize("op", list(_CONSUMERS))
    def test_bad_mass_matrix_refused(self, domain, op, kind, error):
        _, _, dec, m_omega = build_model(domain, GaussianKernel(5.0, 0.2), 8)
        u0 = np.linspace(1.0, 0.3, 8)
        with pytest.raises(error) as err:
            _CONSUMERS[op](dec, _bad_mass(kind, m_omega), u0, m_omega)
        assert str(err.value).startswith(f"{op}: ")


def _counted_eigvalsh(monkeypatch, calls, raises=False):
    # basis's own numpy, whose linalg.eigvalsh is counted (and raises, if
    # asked); every other module keeps the real one
    def eigvalsh(a):
        calls.append(np.shape(a))
        if raises:
            raise AssertionError("eigvalsh called by _validate_mass")
        return np.linalg.eigvalsh(a)

    class Numpy:
        linalg = type("linalg", (), {"eigvalsh": staticmethod(eigvalsh)})

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(basis_module, "np", Numpy())


# the consumers on a mass matrix the check accepts; hum_control takes a ridge,
# as its Gramian does not factorize in float64 from N ~ 80 on
_ACCEPTING_CONSUMERS = dict(
    _CONSUMERS,
    hum_control=lambda dec, m, u0, ok: hum_control(dec, m, u0, 0.1, ridge=1e-9),
    controlled_state_norms=lambda dec, m, u0, ok: controlled_state_norms(
        dec, m, u0, hum_control(dec, ok, u0, 0.1, ridge=1e-9)),
    control_cost=lambda dec, m, u0, ok: control_cost(
        hum_control(dec, ok, u0, 0.1, ridge=1e-9), m, dec),
)


def _with_spectrum(eigenvalues, rng):
    # Q diag(eigenvalues) Q^T for a random orthogonal Q, exactly symmetric
    q = np.linalg.qr(rng.standard_normal((eigenvalues.size,) * 2))[0]
    m = (q * eigenvalues) @ q.T
    return (m + m.T) / 2


class TestValidateMassCholesky:
    """The Cholesky test accepts what the eigenvalue rule accepts and hands every
    other matrix to that rule, which refuses it as before."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # ridge fallbacks at N = 256
    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_bundled_mass_matrices_need_no_eigenvalues(self, domain, monkeypatch, n):
        calls = []
        _counted_eigvalsh(monkeypatch, calls, raises=True)
        u0 = np.linspace(1.0, 0.3, n)
        for _, kernel in bundled_kernels():
            _, _, dec, m_omega = build_model(domain, kernel, n)
            for op, consume in _ACCEPTING_CONSUMERS.items():
                if op == "left_inverse_constant" and n > 8:
                    # validated, then refused by its own conditioning gate
                    with pytest.raises(IllConditionedError, match="conditioning gate"):
                        consume(dec, m_omega, u0, m_omega)
                else:
                    consume(dec, m_omega, u0, m_omega)
        assert calls == []

    @pytest.mark.parametrize("lam_max", [1.0, 50.0])
    def test_boundary_of_the_rule(self, rng, lam_max):
        tol = _PSD_TOL * max(1.0, lam_max)
        spectrum = np.linspace(0.0, lam_max, 8)
        spectrum[0] = -0.25 * tol
        accepted = _with_spectrum(spectrum, rng)
        assert _validate_mass(accepted, 8, "op") is accepted
        spectrum[0] = -4.0 * tol
        refused = _with_spectrum(spectrum, rng)
        with pytest.raises(IllConditionedError, match="^op: subdomain mass matrix is not "
                                                      "positive semidefinite") as err:
            _validate_mass(refused, 8, "op")
        assert err.value.eigenvalue == float(np.linalg.eigvalsh(refused)[0])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_caller_matrix_unchanged(self, domain, order):
        # the factorization overwrites a copy, never the caller's array
        m = np.array(restricted_mass_matrix(build_basis(domain, 16), 0.3, 0.8), order=order)
        before = m.copy(order="K")
        assert _validate_mass(m, 16, "op") is m
        assert m.tobytes(order="A") == before.tobytes(order="A")

    def test_off_diagonal_mass_is_accepted_through_the_eigenvalues(self, monkeypatch):
        # ones(n, n) has max diag 1 but lambda_max = n: lambda_min = -1e-11 fails
        # the Cholesky test's shift of 0.5e-12 yet meets the rule's -n 1e-12
        n = 64
        v = np.zeros(n)
        v[0], v[1] = np.sqrt(0.5), -np.sqrt(0.5)  # orthogonal to the ones vector
        m = np.ones((n, n)) - 1e-11 * np.outer(v, v)
        calls = []
        _counted_eigvalsh(monkeypatch, calls)
        assert _validate_mass(m, n, "op") is m
        assert calls == [(n, n)]


_STATE_CONSUMERS = {
    "hum_control": lambda dec, m, u0: hum_control(dec, m, u0, 0.1),
    "controlled_state_norms": lambda dec, m, u0: controlled_state_norms(
        dec, m, u0, hum_control(dec, m, np.ones(dec.n_modes), 0.1)),
    "simulate_controlled": lambda dec, m, u0: simulate_controlled(
        dec, m, u0, np.zeros((5, dec.n_modes)), 0.1, 9),
}


class TestValidateState:
    """Every consumer of a caller's u0 refuses one that is not a finite N-vector, word for word."""

    @pytest.mark.parametrize("u0, rule", [
        (np.ones(3), "u0 has shape (3,), expected (8,)"),
        (np.ones((8, 1)), "u0 has shape (8, 1), expected (8,)"),
        (1.0, "u0 has shape (), expected (8,)"),
        (np.r_[np.ones(7), np.nan], "u0 must be finite"),
    ], ids=["short", "2d", "0d", "nan"])
    @pytest.mark.parametrize("op", list(_STATE_CONSUMERS))
    def test_bad_state_refused(self, domain, op, u0, rule):
        _, _, dec, m_omega = build_model(domain, GaussianKernel(5.0, 0.2), 8)
        with pytest.raises(ArgumentError) as err:
            _STATE_CONSUMERS[op](dec, m_omega, u0)
        assert str(err.value) == f"{op}: {rule}"

    def test_simulate_checks_control_before_state(self, domain):
        _, _, dec, m_omega = build_model(domain, GaussianKernel(5.0, 0.2), 8)
        with pytest.raises(ArgumentError, match=r"^simulate_controlled: control array"):
            simulate_controlled(dec, m_omega, np.ones(3), np.zeros((5, 3)), 0.1, 9)


# op -> (call at time or horizon t, the argument's name and rule in the message)
_TIME_CONSUMERS = {
    "hum_control": (lambda dec, m, t: hum_control(dec, m, np.ones(8), t), "T must be positive"),
    "simulate_controlled": (lambda dec, m, t: simulate_controlled(
        dec, m, np.ones(8), np.zeros((5, 8)), t, 9), "T must be positive"),
    "lr_staged_control": (lambda dec, m, t: lr_staged_control(
        Domain(1.0, 0.3, 0.8), GaussianKernel(5.0, 0.2), np.ones(4), t, stages=2,
        r0=np.pi ** 2, n_modes=8, nt=65), "T must be positive"),
    "observability_gramian": (lambda dec, m, t: observability_gramian(dec, m, t),
                              "T must be positive"),
    "observability_cost": (lambda dec, m, t: observability_cost(dec, m, t), "T must be positive"),
    "cost_sweep": (lambda dec, m, t: cost_sweep(Domain(1.0, 0.3, 0.8), GaussianKernel(5.0, 0.2),
                                                [0.5, t], n_fixed=8),
                   "horizons must be positive"),
    "propagate": (lambda dec, m, t: propagate(dec, np.ones(8), t), "t must be >= 0"),
    "propagate_backward": (lambda dec, m, t: propagate_backward(dec, np.ones(8), t),
                           "t must be >= 0"),
    "semigroup_norm": (lambda dec, m, t: semigroup_norm(dec, t), "t must be >= 0"),
    "left_inverse_constant": (lambda dec, m, t: left_inverse_constant(dec, m, t),
                              "t must be >= 0"),
    "gramian_time_quadrature": (lambda dec, m, t: oracles.gramian_time_quadrature(dec, m, t),
                                "T must be positive"),
    "crank_nicolson_propagate": (lambda dec, m, t: oracles.crank_nicolson_propagate(
        -np.eye(8), np.ones(8), t), "t must be >= 0"),
    "truncation_for_horizon": (lambda dec, m, t: truncation_for_horizon(Domain(1.0, 0.3, 0.8), t),
                               "T must be positive"),
}


def _staged(**changed):
    args = dict(domain=Domain(1.0, 0.3, 0.8), kernel=GaussianKernel(5.0, 0.2), u0=np.ones(4),
                T=1.0, stages=2, r0=np.pi ** 2, n_modes=8, nt=65)
    return lambda dec, m: lr_staged_control(**{**args, **changed})


# entry point and argument -> (call with that argument malformed, the message)
_MALFORMED_ARGUMENTS = {
    "simulate_controlled-nt_fine": (lambda dec, m: simulate_controlled(
        dec, m, np.ones(8), np.zeros((5, 8)), 0.1, 9.0),
        "simulate_controlled: nt_fine must be an integer, got 9.0"),
    "simulate_controlled-control": (lambda dec, m: simulate_controlled(
        dec, m, np.ones(8), np.r_[np.zeros((4, 8)), np.full((1, 8), np.nan)], 0.1, 9),
        "simulate_controlled: control samples must be finite"),
    "hum_control-nt": (lambda dec, m: hum_control(dec, m, np.ones(8), 0.1, nt=64.0),
                       "hum_control: nt must be an integer, got 64.0"),
    "lr_staged_control-nt": (_staged(nt=65.0),
                             "lr_staged_control: nt must be an integer, got 65.0"),
    "lr_staged_control-stages": (_staged(stages=2.5),
                                 "lr_staged_control: stages must be an integer, got 2.5"),
    "lr_staged_control-r0-nan": (_staged(r0=np.nan),
                                 "lr_staged_control: r0 must be finite, got nan"),
    "lr_staged_control-r0-inf": (_staged(r0=np.inf),
                                 "lr_staged_control: r0 must be finite, got inf"),
    "lr_staged_control-u0": (_staged(u0=np.r_[np.ones(3), np.nan]),
                             "lr_staged_control: u0 must be finite"),
}


class TestValidateTime:
    """Every entry point taking a time or horizon refuses a non-finite one, word for word."""

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("op", list(_TIME_CONSUMERS))
    def test_non_finite_time_refused(self, domain, op, t):
        _, _, dec, m_omega = build_model(domain, GaussianKernel(5.0, 0.2), 8)
        call, rule = _TIME_CONSUMERS[op]
        with pytest.raises(ArgumentError) as err:
            call(dec, m_omega, t)
        assert str(err.value) == f"{op}: {rule} and finite, got {t}"

    @pytest.mark.parametrize("case", list(_MALFORMED_ARGUMENTS))
    def test_malformed_argument_refused(self, domain, case):
        _, _, dec, m_omega = build_model(domain, GaussianKernel(5.0, 0.2), 8)
        call, message = _MALFORMED_ARGUMENTS[case]
        with pytest.raises(ArgumentError) as err:
            call(dec, m_omega)
        assert str(err.value) == message


class TestPositiveSign:
    def test_vector_and_columns(self):
        v = np.array([0.5, -2.0, 1.0])
        assert np.array_equal(positive_sign(v), -v)
        assert np.array_equal(positive_sign(-v), -v)
        A = np.array([[1.0, 3.0], [-2.0, -1.0]])
        assert np.array_equal(positive_sign(A), np.array([[-1.0, 3.0], [2.0, -1.0]]))

    def test_first_index_wins_ties(self):
        assert np.array_equal(positive_sign(np.array([-1.0, 1.0])), np.array([1.0, -1.0]))
        assert np.array_equal(positive_sign(np.array([1.0, -1.0])), np.array([1.0, -1.0]))


class TestGaussQuadrature:
    def test_sine_integral(self):
        assert gauss_quadrature(np.sin, 0.0, np.pi, 8) == pytest.approx(2.0, abs=1e-12)

    def test_cubic_exact(self):
        val = gauss_quadrature(lambda x: x ** 3, 0.0, 1.0, 1)
        assert val == pytest.approx(0.25, abs=5e-16)

    def test_bad_interval(self):
        with pytest.raises(ArgumentError):
            gauss_quadrature(np.sin, 1.0, 0.0, 1)


class TestGaussRule:
    def test_uneven_edges_panel_by_panel(self):
        edges = [0.0, 0.01, 0.02, 0.04, 0.3, 1.0]
        x, w = gauss_rule(edges, 16)
        nodes, weights = np.polynomial.legendre.leggauss(16)
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            panel = slice(16 * i, 16 * (i + 1))
            assert np.array_equal(x[panel], 0.5 * (b - a) * nodes + 0.5 * (a + b))
            assert np.array_equal(w[panel], 0.5 * (b - a) * weights)


    def test_rule_built_once_per_order_and_read_only(self):
        x, w = _gauss_legendre(4)
        again = _gauss_legendre(4)
        assert again[0] is x and again[1] is w
        for a in (x, w):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


class TestRunAll:
    """certify.run_all turns the package's errors into FAIL rows, nothing else."""

    @staticmethod
    def _raising(exc):
        def check(rng):
            raise exc
        return check

    def test_numeric_error_is_a_failed_row(self, monkeypatch):
        monkeypatch.setattr(certify, "CHECKS", [
            ("numeric", self._raising(NumericError("no digits left")))])
        assert certify.run_all() == [
            ("numeric", False, "raised NumericError: no digits left")]

    def test_other_exception_propagates(self, monkeypatch):
        monkeypatch.setattr(certify, "CHECKS", [
            ("bug", self._raising(TypeError("a bug")))])
        with pytest.raises(TypeError, match="a bug"):
            certify.run_all()


class TestCertificateGramQuadrature:
    """certify's array form of the mass-gram-consistency quadrature."""

    @staticmethod
    def _windows(rng):
        # the windows check_mass_gram_consistency draws from its generator
        for _ in range(10):
            lo, hi = np.sort(rng.uniform(0.0, 1.0, size=2))
            if hi - lo < 1e-3:
                hi = min(1.0, lo + 1e-3)
            yield lo, hi, max(1, int(np.ceil((hi - lo) * 16)))

    @pytest.mark.parametrize("seed", [20260809, 31])
    def test_equals_scalar_double_loop_bitwise(self, domain, seed):
        basis = build_basis(domain, 16)
        worst = 0.0
        for lo, hi, panels in self._windows(np.random.default_rng(seed)):
            Q = certify._gram_by_quadrature(basis, lo, hi, panels)
            M = restricted_mass_matrix(basis, lo, hi)
            for i in range(16):
                for j in range(i, 16):
                    q = gauss_quadrature(
                        lambda x: eval_mode(basis, i, x) * eval_mode(basis, j, x),
                        lo, hi, panels)
                    assert Q[i, j] == q, (lo, hi, i, j)
                    worst = max(worst, abs(M[i, j] - q))
        assert certify.check_mass_gram_consistency(np.random.default_rng(seed)) == (
            worst <= 1e-10, f"max closed-form vs quadrature defect {worst:.2e}")
