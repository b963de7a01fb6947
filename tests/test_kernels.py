import functools
import os
import tempfile
import tracemalloc
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nullheat import (ArgumentError, Domain, GaussianKernel, GridKernel,
                      KernelFormatError, KernelSpec, NumericError, SeparableKernel,
                      ZeroKernel, build_basis,
                      project_kernel, read_grid_kernel, write_grid_kernel)
from nullheat import kernels, oracles
from nullheat.basis import QUADRATURE_ORDER, gauss_rule
from nullheat.bundled import bundled_kernels, grid_demo_kernel


@pytest.fixture
def basis(domain):
    return build_basis(domain, 16)


class TestGridFile:
    def test_roundtrip_symmetric(self, tmp_path):
        path = tmp_path / "sym.txt"
        write_grid_kernel(path, lambda x, xi: np.cos(np.pi * (x - xi)), n=64, length=1.0)
        k = read_grid_kernel(path)
        assert k.symmetry_defect() == 0.0

    def test_comments_and_header(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("# a comment\n2 1.0\n# another\n1.0 2.0\n2.0 3.0\n")
        k = read_grid_kernel(path)
        assert k.n == 2 and k.length == 1.0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("2\n1.0 2.0\n2.0 3.0\n")
        with pytest.raises(KernelFormatError) as err:
            read_grid_kernel(path)
        assert err.value.line == 1

    def test_nonsquare_row(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("2 1.0\n1.0 2.0 3.0\n2.0 3.0\n")
        with pytest.raises(KernelFormatError) as err:
            read_grid_kernel(path)
        assert err.value.line == 2

    def test_nan_sample(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("2 1.0\n1.0 nan\n2.0 3.0\n")
        with pytest.raises(KernelFormatError) as err:
            read_grid_kernel(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    @pytest.mark.parametrize("row", [0, 2, 3])
    def test_non_finite_sample_names_its_line(self, tmp_path, token, row):
        # a comment and a blank line sit between the header and the rows, so
        # sample row k (from 0) is on line k + 4
        samples = [["1.0", "2.0", "3.0", "4.0"] for _ in range(4)]
        samples[row][3 - row] = token
        path = tmp_path / "k.txt"
        path.write_text("4 1.0\n# samples\n\n" + "".join(" ".join(r) + "\n" for r in samples))
        with pytest.raises(KernelFormatError, match="non-finite sample") as err:
            read_grid_kernel(path)
        assert err.value.line == row + 4

    def test_missing_rows(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("3 1.0\n1.0 2.0 3.0\n")
        with pytest.raises(KernelFormatError):
            read_grid_kernel(path)

    def test_extra_rows_refused(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("2 1.0\n1 2\n2 1\n\n# trailing comment\n")
        assert read_grid_kernel(path).samples.tolist() == [[1, 2], [2, 1]]
        path.write_text("2 1.0\n1 2\n2 1\n\n# trailing comment\n9 9\n7 7 7\n")
        with pytest.raises(KernelFormatError, match="extra line after the 2 sample rows") as err:
            read_grid_kernel(path)
        assert err.value.line == 6

    def test_n_below_two(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("1 1.0\n1.0\n")
        with pytest.raises(KernelFormatError):
            read_grid_kernel(path)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(2, 6),
           length=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    def test_write_read_roundtrip_bitwise(self, data, n, length):
        samples = np.array(data.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=n * n,
            max_size=n * n))).reshape(n, n)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "k.txt")
            write_grid_kernel(path, lambda x, xi: samples, n=n, length=length)
            k = read_grid_kernel(path)
        assert k.n == n and k.length == length
        assert k.samples.tobytes() == samples.tobytes()


class TestGridConstruction:
    @pytest.mark.parametrize("length", [0.0, -1.0, np.nan, np.inf])
    def test_bad_length_refused(self, length):
        # read_grid_kernel's rule for files, applied to every construction
        with pytest.raises(ArgumentError, match="bad domain length"):
            GridKernel(4, length, np.ones((4, 4)))

    def test_samples_are_a_private_read_only_copy(self):
        table = np.ones((4, 4))
        k = GridKernel(4, 1.0, table)
        table[0, 0] = 2.0  # the caller's array stays writable
        assert k.samples[0, 0] == 1.0
        with pytest.raises(ValueError):
            k.samples[0, 0] = 3.0

    def test_bundled_grid_parsed_once(self):
        k = grid_demo_kernel()
        assert grid_demo_kernel() is k
        assert dict(bundled_kernels())["grid-demo"] is k
        with pytest.raises(ValueError):
            k.samples[1, 2] = 0.0

    def test_bundled_kernels_are_the_same_objects_in_a_new_list(self):
        first, again = bundled_kernels(), bundled_kernels()
        assert isinstance(first, list) and first is not again
        assert all(a is b for a, b in zip(first, again)) and len(first) == 5
        first.append(("extra", ZeroKernel()))
        assert len(bundled_kernels()) == 5


class TestSeparableConstruction:
    def test_coefficients_are_private_read_only_copies(self):
        g, h = np.array([1.0, 0.0, -0.5]), np.array([0.25, 1.5])
        k = SeparableKernel(g_coeffs=g, h_coeffs=h)
        g[0] = h[0] = 2.0  # the caller's arrays stay writable
        assert k.g_coeffs[0] == 1.0 and k.h_coeffs[0] == 0.25
        with pytest.raises(ValueError, match="read-only"):
            k.g_coeffs[0] = 3.0
        with pytest.raises(ValueError, match="read-only"):
            k.h_coeffs[1] = 3.0


class TestCheckSymmetry:
    def test_construction_symmetric(self):
        assert ZeroKernel().symmetry_defect() == 0.0
        assert GaussianKernel(3.0, 0.4).symmetry_defect() == 0.0
        assert SeparableKernel(np.array([1.0]), np.array([0.5, 1.0])).symmetry_defect() == 0.0

    def test_grid_symmetric_function(self, tmp_path):
        path = tmp_path / "sym.txt"
        k = write_grid_kernel(path, lambda x, xi: x + xi, n=16, length=1.0)
        assert k.symmetry_defect() == 0.0

    def test_grid_antisymmetric_function(self, tmp_path):
        path = tmp_path / "anti.txt"
        k = write_grid_kernel(path, lambda x, xi: x - xi, n=16, length=1.0)
        defect = k.symmetry_defect()
        # |interp(x, xi) - interp(xi, x)| = 2 |x - xi| clamped to the midpoint
        # hull, largest at the corner midpoints: 2 (m_15 - m_0) = 30 / 16
        assert defect == np.max(np.abs(k.samples - k.samples.T))
        assert defect == pytest.approx(30.0 / 16.0, rel=1e-15)

    def test_grid_defect_bounds_the_interpolant(self, rng):
        # the interpolant of s - s^T never exceeds the table's extreme
        k = GridKernel(9, 1.0, rng.standard_normal((9, 9)))
        x = np.linspace(0.0, 1.0, 401)
        vals = k.evaluate(x[:, None], x[None, :])
        assert np.max(np.abs(vals - vals.T)) <= k.symmetry_defect() * (1 + 1e-14)


class TestProjectKernel:
    def test_non_finite_entry_refused(self, basis):
        class NaNEntry(KernelSpec):
            def closed_form(self, basis):
                K = np.zeros((basis.n_modes, basis.n_modes))
                K[2, 1] = np.nan
                return K, 1.0

        with pytest.raises(NumericError, match=r"non-finite entry at \(2, 1\)"):
            project_kernel(NaNEntry(), basis)

    def test_zero(self, basis):
        kmat = project_kernel(ZeroKernel(), basis)
        assert np.array_equal(kmat.matrix, np.zeros((16, 16)))
        assert kmat.hs_of_k == 0.0

    def test_separable_first_mode(self, basis):
        k = SeparableKernel(np.array([1.0]), np.array([1.0]))
        kmat = project_kernel(k, basis)
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        assert np.max(np.abs(kmat.matrix - expected)) <= 1e-15
        assert kmat.hs_of_k == pytest.approx(1.0, abs=1e-15)

    def test_separable_closed_form(self, basis):
        k = SeparableKernel(np.array([1.0, 0.0, -0.5]), np.array([0.25, 1.5]))
        g = np.zeros(16); g[:3] = k.g_coeffs
        h = np.zeros(16); h[:2] = k.h_coeffs
        expected = 0.5 * (np.outer(g, h) + np.outer(h, g))
        kmat = project_kernel(k, basis)
        assert np.max(np.abs(kmat.matrix - expected)) <= 1e-14

    def test_gaussian_vs_midpoint_oracle(self, basis):
        k = GaussianKernel(5.0, 0.2)
        kmat = project_kernel(k, basis)
        K_mid = oracles.midpoint_project_kernel(k, basis, n_points=4096)
        assert np.max(np.abs(kmat.matrix - K_mid)) <= 1e-6

    def test_symmetrized_bitwise(self, basis):
        for name, kernel in bundled_kernels():
            K = project_kernel(kernel, basis).matrix
            assert np.array_equal(K, K.T), name

    def test_grid_asymmetric_rejected(self, tmp_path, basis):
        path = tmp_path / "anti.txt"
        k = write_grid_kernel(path, lambda x, xi: x - xi, n=16, length=1.0)
        with pytest.raises(ArgumentError, match="symmetry"):
            project_kernel(k, basis)

    def test_grid_asymmetric_between_lattice_points_rejected(self, basis, lattice_hole_table):
        # asymmetric by 0.6 in its samples, yet the interpolant is symmetric on
        # every point of a 33 x 33 lattice of [0, 1]^2: each lattice point sits
        # halfway between two midpoints whose u and v entries cancel
        s = lattice_hole_table
        assert np.max(np.abs(s - s.T)) == pytest.approx(0.6, rel=1e-14)
        k = GridKernel(64, 1.0, s)
        grid = np.linspace(0.0, 1.0, 33)
        vals = k.evaluate(grid[:, None], grid[None, :])
        assert np.max(np.abs(vals - vals.T)) == 0.0
        assert k.symmetry_defect() == np.max(np.abs(s - s.T))
        with pytest.raises(ArgumentError, match="symmetry check"):
            project_kernel(k, basis)

    def test_grid_length_mismatch(self, tmp_path, basis):
        path = tmp_path / "long.txt"
        k = write_grid_kernel(path, lambda x, xi: x + xi, n=8, length=2.0)
        with pytest.raises(ArgumentError, match="length"):
            project_kernel(k, basis)

    def test_grid_length_checked_before_symmetry(self, tmp_path, basis):
        path = tmp_path / "long_anti.txt"
        k = write_grid_kernel(path, lambda x, xi: x - 2 * xi, n=8, length=2.0)
        with pytest.raises(ArgumentError) as err:
            project_kernel(k, basis)
        assert str(err.value) == ("project_kernel: grid kernel declares length 2.0 "
                                  "but the basis domain has length 1.0")

    def test_grid_refusals_fire_on_the_closed_form_route(self, tmp_path, basis,
                                                         monkeypatch):
        # both grids have a closed form, computed from their own length; the
        # basis check that follows it still refuses them
        calls = []
        closed_form = GridKernel.closed_form

        def counted(self, basis):
            calls.append(basis.n_modes)
            return closed_form(self, basis)

        monkeypatch.setattr(GridKernel, "closed_form", counted)
        anti = write_grid_kernel(tmp_path / "anti.txt", lambda x, xi: x - xi, n=16, length=1.0)
        long = write_grid_kernel(tmp_path / "long.txt", lambda x, xi: x + xi, n=8, length=2.0)
        for kernel, match in ((anti, "symmetry check"), (long, "declares length 2.0")):
            with pytest.raises(ArgumentError, match=match):
                project_kernel(kernel, basis)
        assert calls == [16, 16]

    def test_separable_overflow_refused_quietly(self, basis):
        # ||k||^2 overflows in the closed form: refused, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="closed form produced a non-finite value"):
                project_kernel(SeparableKernel([1e200], [1e200]), basis)

    def test_separable_norm_past_the_squares_range(self, basis):
        # ||g||^2 ||h||^2 = 1e400 would overflow, but K[0, 0] and ||k|| are
        # 1e200: g and h are scaled by powers of two before the products
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            km = project_kernel(SeparableKernel([1e100], [1e100]), basis)
            assert km.frobenius == km.matrix[0, 0] == 1e100 * 1e100
        assert km.hs_of_k == pytest.approx(1e200, rel=1e-15)
        assert np.all(np.isfinite(km.matrix)) and np.count_nonzero(km.matrix) == 1

    def test_separable_scaling_keeps_every_bit(self, basis, rng):
        # scaling by powers of two commutes with every rounding in range, so
        # ||k|| and ||K||_F are the unscaled formulas' bit for bit
        for size_g, size_h, scale in ((3, 2, 1.0), (20, 7, 1e-30), (5, 5, 3e40)):
            g, h = scale * rng.standard_normal(size_g), rng.standard_normal(size_h)
            m = min(size_g, size_h)
            gh = float(g[:m] @ h[:m])
            plain = float(np.sqrt((g @ g) * (h @ h) / 2.0 + gh * gh / 2.0))
            km = project_kernel(SeparableKernel(g, h), basis)
            assert km.hs_of_k == plain
            assert km.frobenius == float(np.linalg.norm(km.matrix))

    def test_every_kernel_class_has_a_closed_form(self, basis):
        # every kernel class of the module is listed here, so a new one must
        # be placed; each defines its own closed_form, which gives an n x n
        # matrix and a finite norm
        samples = {ZeroKernel: ZeroKernel(),
                   SeparableKernel: SeparableKernel(np.array([1.0, -0.5]), np.array([0.3])),
                   GaussianKernel: GaussianKernel(5.0, 0.2),
                   GridKernel: grid_demo_kernel()}
        classes = {c for c in vars(kernels).values()
                   if isinstance(c, type) and issubclass(c, KernelSpec) and c is not KernelSpec}
        assert classes == set(samples)
        for cls, kernel in samples.items():
            assert "closed_form" in vars(cls), cls
            K, hs = kernel.closed_form(basis)
            assert K.shape == (16, 16) and np.all(np.isfinite(K)) and np.isfinite(hs), cls

    def test_evaluate_only_subclass_refused(self, basis):
        class Bare(KernelSpec):
            def evaluate(self, x, xi, length):
                return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(xi)))

        with pytest.raises(ArgumentError) as err:
            project_kernel(Bare(), basis)
        assert str(err.value) == "project_kernel: unsupported kernel Bare"


class TestNoKernelValues:
    @pytest.mark.parametrize("kernel", [GaussianKernel(5.0, 0.2), grid_demo_kernel()],
                             ids=["gaussian", "grid"])
    def test_projection_evaluates_no_kernel_values(self, basis, kernel, monkeypatch):
        # both are projected in closed form: the Gaussian from its 1-D sine
        # transforms, the grid kernel from its hat integrals, and the grid's
        # symmetry check reads the sample table
        sizes = []
        evaluate = type(kernel).evaluate

        def counted(self, x, xi, length=None):
            out = evaluate(self, x, xi, length)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(type(kernel), "evaluate", counted)
        project_kernel(kernel, basis)
        assert sizes == []

    def test_gaussian_holds_no_quadrature_table(self, domain):
        # N = 256: a quadrature table on 2048 axis nodes would take 33.5 MB.
        # The transforms hold the half-turn indices and the sines and cosines
        # of the panel centres, N x P each with P = 256 panels here, and the
        # assembly N x N matrices (measured 4.1 N^2 doubles)
        n = 256
        basis = build_basis(domain, n)
        tracemalloc.start()
        try:
            project_kernel(GaussianKernel(20.0, 0.15), basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * n ** 2 * 8

    def test_non_finite_closed_form_refused_first_and_quietly(self, basis):
        # c = amplitude / (width sqrt(2 pi)) overflows, so ||k|| and K are not
        # finite: the norm is refused before the basis check and before the
        # matrix's own finiteness check, with no floating-point warning
        class Broken(GaussianKernel):
            def check_basis(self, basis):
                raise ArgumentError("check_basis reached")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="closed form produced a non-finite value"):
                project_kernel(Broken(1e308, 0.2), basis)


_FOLD_KERNELS = [GaussianKernel(5.0, 0.2), GaussianKernel(20.0, 0.15),
                 GaussianKernel(-80.0, 0.05)]


_PI_LD = np.longdouble("3.14159265358979323846264338327950288")

_LONG_DOUBLE = pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                                  reason="np.longdouble is no wider than float64 on this platform")


def _modes_ld(n, x, w, ell):
    # the weighted modes in long double, each phase m x / ell reduced mod 2
    # before it meets pi
    ld = np.longdouble
    m = np.arange(1, n + 1).astype(ld)[:, None]
    r = np.fmod(m * x / ld(ell), ld(2))
    return np.sqrt(ld(2) / ld(ell)) * np.sin(_PI_LD * r) * w


def _gaussian_table_ld(kernel, ell, n):
    """A Gauss-Legendre rule in long double, P = ceil(ell / min(width / 2,
    ell / (2 n))) uniform panels of QUADRATURE_ORDER points (twice the
    library's panels per mode), and the Gaussian's whole table on it.  Node
    (p, a) sits at (p + u_a) H, so the table is block Toeplitz: its values
    are taken once per panel offset p - q and node pair (a, b), and
    gathered.  Returns nodes, weights, table and ||k||^2 = w k^2 w summed
    over the offsets."""
    ld = np.longdouble
    panels = int(np.ceil(ell / min(kernel.width / 2.0, ell / (2 * n))))
    u, wu = gauss_rule(np.array([0.0, 1.0]), QUADRATURE_ORDER)
    u, wu, H = u.astype(ld), wu.astype(ld), ld(ell) / panels
    p = np.repeat(np.arange(panels), u.size)
    a = np.tile(np.arange(u.size), panels)
    offset = np.arange(1 - panels, panels).astype(ld)[:, None, None]
    d = (offset + u[:, None] - u[None, :]) * H
    peak = ld(kernel.amplitude / (kernel.width * np.sqrt(2.0 * np.pi)))
    values = peak * np.exp(-(d * d) / (2 * ld(kernel.width) ** 2))
    table = values[panels - 1 + p[:, None] - p[None, :], a[:, None], a[None, :]]
    count = (panels - np.abs(np.arange(1 - panels, panels))).astype(ld)[:, None, None]
    sq = np.sum(count * values * values * np.outer(wu, wu)) * H * H
    return (p + u[a]) * H, wu[a] * H, table, sq


class TestParityFold:
    """The Gaussian is symmetric about ell/2: odd and even modes decouple,
    and every entry with m + n odd is exactly zero.  Its projection is
    checked here against a long-double table sum as well."""

    @_LONG_DOUBLE
    @pytest.mark.parametrize("kernel, n, length",
                             [(k, n, ell) for k in _FOLD_KERNELS
                              for n in (1, 2, 3, 16, 64, 127, 128) for ell in (1.0, 2.5)]
                             + [(GaussianKernel(1.0, 0.01), 64, 1.0)],
                             ids=lambda v: f"{v.amplitude:g}-{v.width:g}"
                             if isinstance(v, GaussianKernel) else str(v))
    def test_within_rounding_of_a_long_double_table_sum(self, kernel, n, length):
        # reference: the whole table on an independent rule summed in long
        # double, with long-double modes.  The kernel's peak constant is taken
        # as float64 computes it, a rounding every route shares.  Bounds:
        # 8 eps (|psi_w| |k| |psi_w|^T) entrywise (measured at most 5.2, at
        # N = 127 where the library's panels hold half a period of the top
        # mode) and 2 eps relative on ||k|| (measured at most 0.7); above
        # N = 16 nine rows are checked, the first and the last among them
        eps, ell = np.finfo(float).eps, length
        basis = build_basis(Domain(ell, 0.3 * ell, 0.8 * ell), n)
        rows = np.arange(n) if n <= 16 else np.linspace(0, n - 1, 9).astype(int)
        km = project_kernel(kernel, basis)

        x, w, table, sq = _gaussian_table_ld(kernel, ell, n)
        psi_ld = _modes_ld(n, x, w, ell)
        # the table is symmetric: table @ psi^T is psi @ table, transposed
        exact = (table @ psi_ld[rows].T).T @ psi_ld.T
        hs = np.sqrt(sq)
        psi_abs = np.abs(psi_ld).astype(float)
        scale = psi_abs[rows] @ np.abs(table.astype(float)) @ psi_abs.T
        assert np.all(np.abs(km.matrix[rows] - exact) <= 8 * eps * scale)
        assert abs(km.hs_of_k - hs) <= 2 * eps * hs

    @pytest.mark.parametrize("length", [1.0, 2.5, 0.7])
    def test_parity_entries_are_exact_zeros(self, length):
        # psi_m(ell - x) = (-1)^(m+1) psi_m(x) makes K[m, n] vanish for m + n
        # odd; the projection never forms those entries, so they are 0.0, not noise
        domain = Domain(length, 0.3 * length, 0.8 * length)
        bundled = [k for _, k in bundled_kernels() if isinstance(k, GaussianKernel)]
        assert bundled
        for kernel in bundled + _FOLD_KERNELS + [GaussianKernel(1.0, 0.01)]:
            for n in (1, 2, 7, 16, 33, 128):
                K = project_kernel(kernel, build_basis(domain, n)).matrix
                odd = np.add.outer(np.arange(n), np.arange(n)) % 2 == 1
                assert np.all(K[odd] == 0.0), (kernel, n)
                assert not np.any(np.signbit(K[odd])), (kernel, n)
                assert np.array_equal(K, K.T), (kernel, n)


_GAUSSIAN_CASES = [(5.0, 0.2, 1.0), (20.0, 0.15, 1.0), (-80.0, 0.05, 2.5)]
_GAUSSIAN_IDS = ["5-0.2-1.0", "20-0.15-1.0", "-80-0.05-2.5"]


@functools.lru_cache(maxsize=None)
def _gaussian_reference(amplitude, width, length, n=48):
    """The Gaussian's transforms S_m, C_m, its Galerkin matrix and ||k|| in
    40 digits, with no quadrature: F(a) = int_0^ell g(s) e^(i a s) ds =
    w sqrt(pi / 2) e^(-a^2 w^2 / 2) [erf(t_1) - erf(t_0)] with
    t_0 = -i a w / sqrt(2) and t_1 = (ell - i a w^2) / (sqrt(2) w) gives
    S_m = Im F(a_m); by parts (g' = -s g / w^2), int_0^ell s g(s) e^(i a s) ds
    = w^2 (1 - g(ell) e^(i a ell)) + i a w^2 F(a), so C_m = Re(ell F(a_m) -
    that).  K is assembled from S and C by the library's formula: its algebra
    is checked on its own against a plain table sum."""
    with mp.workdps(40):
        w, ell = mp.mpf(width), mp.mpf(length)
        c = mp.mpf(amplitude) / (w * mp.sqrt(2 * mp.pi))
        g_ell = mp.exp(-ell ** 2 / (2 * w ** 2))
        S, C = [], []
        for m in range(1, n + 1):
            a = m * mp.pi / ell
            t0, t1 = -1j * a * w / mp.sqrt(2), (ell - 1j * a * w ** 2) / (mp.sqrt(2) * w)
            F = w * mp.sqrt(mp.pi / 2) * mp.exp(-(a * w) ** 2 / 2) * (mp.erf(t1) - mp.erf(t0))
            S.append(mp.im(F))
            C.append(mp.re(ell * F - w ** 2 * (1 - g_ell * (-1) ** m) - 1j * a * w ** 2 * F))
        K = mp.zeros(n, n)
        for i in range(n):
            K[i, i] = 2 * c / mp.pi * (S[i] / (i + 1) + mp.pi / ell * C[i])
            for j in range(i % 2, n, 2):
                if j != i:
                    K[i, j] = 2 * c / mp.pi * ((S[j] - S[i]) / (i - j) + (S[i] + S[j]) / (i + j + 2))
        u = ell / w
        hs = abs(c) * mp.sqrt(2 * (ell * w * mp.sqrt(mp.pi) / 2 * mp.erf(u)
                                   - w ** 2 / 2 * (1 - mp.exp(-u ** 2))))
        return S, C, K, hs


class TestGaussianClosedForm:
    """k = c g(x - xi) projected through the 1-D sine transforms of g:
    K[m, n] = (2c / pi) [(S_n - S_m) / (m - n) + (S_m + S_n) / (m + n)] for
    m + n even, K[m, m] = (2c / pi) [S_m / m + (pi / ell) C_m], and ||k||
    from erf and expm1."""

    @pytest.mark.parametrize("n", [16, 48])
    @pytest.mark.parametrize("amplitude, width, length", _GAUSSIAN_CASES, ids=_GAUSSIAN_IDS)
    def test_within_rounding_of_an_mp_reference(self, amplitude, width, length, n):
        # K within 4 eps max|K| entrywise (measured at most 1.9) and ||k||
        # within 2 eps relative (measured at most 0.42).  S is within 10 eps G
        # of the reference, G = w sqrt(pi / 2), and C within 3 eps G ell: at
        # N = 48 both measured at most 0.9, at N = 16 the top modes carry the
        # panel rule's own truncation (P = 16, half a period of the top mode
        # per panel), measured at most 7.1 and 1.9
        eps = np.finfo(float).eps
        S_ref, C_ref, K_ref, hs_ref = _gaussian_reference(amplitude, width, length)
        kernel = GaussianKernel(amplitude, width)
        km = project_kernel(kernel, build_basis(Domain(length, 0.3 * length, 0.8 * length), n))
        err = np.array([[float(km.matrix[i, j] - K_ref[i, j]) for j in range(n)]
                        for i in range(n)])
        assert np.max(np.abs(err)) <= 4 * eps * np.max(np.abs(km.matrix))
        assert abs(float((km.hs_of_k - hs_ref) / hs_ref)) <= 2 * eps
        S, C = kernel._transforms(length, n)
        C = np.ldexp(C, np.frexp(length)[1])  # C comes scaled to the binade of length
        G = width * np.sqrt(np.pi / 2)
        assert max(abs(float(S[i] - S_ref[i])) for i in range(n)) <= 10 * eps * G
        assert max(abs(float(C[i] - C_ref[i])) for i in range(n)) <= 3 * eps * G * length

    @pytest.mark.parametrize("amplitude, width, length", _GAUSSIAN_CASES, ids=_GAUSSIAN_IDS)
    def test_matches_a_plain_table_sum(self, amplitude, width, length):
        # independent of the transforms and of the formula's algebra: the
        # Galerkin sums psi_w k psi_w^T and w k^2 w on a whole table of kernel
        # values, tensor Gauss-Legendre on four panels per width, at N = 6.
        # K within 4 eps max|K| (measured at most 1.9) and ||k|| within
        # 2 eps relative (measured at most 0.86); a wrong diagonal is off by O(1)
        eps, n, ell = np.finfo(float).eps, 6, length
        kernel = GaussianKernel(amplitude, width)
        panels = int(np.ceil(4 * ell / width))
        x, w = gauss_rule(np.linspace(0.0, ell, panels + 1), QUADRATURE_ORDER)
        psi_w = np.sqrt(2.0 / ell) * np.sin(np.outer(np.arange(1, n + 1), x) * np.pi / ell) * w
        table = kernel.evaluate(x[:, None], x[None, :], ell)
        K = psi_w @ table @ psi_w.T
        hs = np.sqrt(w @ table ** 2 @ w)
        km = project_kernel(kernel, build_basis(Domain(ell, 0.3 * ell, 0.8 * ell), n))
        assert np.max(np.abs(km.matrix - K)) <= 4 * eps * np.max(np.abs(km.matrix))
        assert abs(km.hs_of_k - hs) <= 2 * eps * hs

    @pytest.mark.parametrize("width, length", [(1e155, 1.0), (1e200, 1.0), (1e155, 1e150)])
    def test_wide_kernel_approaches_the_constant(self, width, length):
        # w^2 overflows, and at length 1 (ell / w)^2 underflows too: ||k|| =
        # |c| ell sqrt(1 - u^2 / 6 + O(u^4)) with u = ell / w, which is |c| ell,
        # the norm of the constant kernel c, until ell nears w (u = 1e-5 here)
        eps = np.finfo(float).eps
        kernel = GaussianKernel(5.0, width)
        c = 5.0 / (width * np.sqrt(2.0 * np.pi))
        basis = build_basis(Domain(length, 0.3 * length, 0.8 * length), 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            km = project_kernel(kernel, basis)
            values = kernel.evaluate(np.linspace(0.0, length, 5), 0.3 * length, length)
        limit = abs(c) * length * np.sqrt(1.0 - (length / width) ** 2 / 6.0)
        assert abs(km.hs_of_k - limit) <= 8 * eps * limit
        assert km.hs_of_k >= km.frobenius
        assert np.all(values == c)

    @pytest.mark.parametrize("amplitude, width, length", [
        (5.0, 1e155, 1e160),    # s^2 and 2 w^2 overflow: inf / inf in g at every node
        (5.0, 5e153, 1.5e154),  # s^2 overflows on the far nodes, where g is not small
        (5.0, 5e153, 1e155),    # and ell w, in C and in ||k||
    ])
    def test_unchanged_by_a_power_of_two_rescaling(self, amplitude, width, length):
        # x -> x / 2^520 takes ell and w to 2^-520 times themselves and leaves
        # K and ||k|| as they are, so the same kernel in the ordinary range is
        # the reference: within 4 eps max|K| and 2 eps relative
        eps, lam = np.finfo(float).eps, 2.0 ** -520
        got, ref = (project_kernel(GaussianKernel(amplitude, width * f), build_basis(
            Domain(length * f, 0.3 * length * f, 0.8 * length * f), 8)) for f in (1.0, lam))
        assert np.max(np.abs(got.matrix - ref.matrix)) <= 4 * eps * np.max(np.abs(ref.matrix))
        assert abs(got.hs_of_k - ref.hs_of_k) <= 2 * eps * ref.hs_of_k

    @pytest.mark.parametrize("amplitude, width, length", _GAUSSIAN_CASES, ids=_GAUSSIAN_IDS)
    def test_difference_quotient_adds_no_cancellation(self, amplitude, width, length):
        # the stated bound: m - n is even and at least 2, so the computed
        # q = (S_n - S_m) / (m - n) is within (|dS_m| + |dS_n|) / |m - n|
        # (1 + eps) + eps |q| of the exact quotient, dS the transforms' own
        # errors; the division halves them at worst, never amplifies them
        eps, n = np.finfo(float).eps, 48
        S_ref = _gaussian_reference(amplitude, width, length)[0]
        S = GaussianKernel(amplitude, width)._transforms(length, n)[0]
        with mp.workdps(40):
            dS = [abs(S[i] - S_ref[i]) for i in range(n)]
            for i in range(n):
                for j in range(i + 2, n, 2):
                    q = (S_ref[j] - S_ref[i]) / (i - j)
                    bound = (dS[i] + dS[j]) / (j - i) * (1 + eps) + eps * abs(q)
                    assert abs((S[j] - S[i]) / (i - j) - q) <= bound, (i, j)


def _grid_cases():
    rng = np.random.default_rng(20261019)
    yield "grid-demo", grid_demo_kernel()
    for n_grid in (2, 3, 9, 64):
        for length in (1.0, 2.5):
            a = rng.standard_normal((n_grid, n_grid))
            yield f"random-{n_grid}-{length}", GridKernel(n_grid, length, a + a.T)


@functools.lru_cache(maxsize=None)
def _grid_reference(n_grid, length, samples, n=256):
    """The grid projection in 40 digits, from first principles: the hat
    integrals P[m - 1, a] summed piece by piece between the kinks 0, m_0, ...,
    m_{n-1}, ell from the antiderivatives of sin(kx) and x sin(kx), and the
    hat Gram H in exact rationals by Simpson's rule on each piece.  Returns
    P as mp rows, P = P_hi + P_lo in two float arrays, H in units of h (a
    dict of its nonzero entries), and ||k|| = sqrt(tr(S^T H S H)) as hi + lo."""
    s = np.frombuffer(samples).reshape(n_grid, n_grid)
    with mp.workdps(40):
        ell = mp.mpf(length)
        h = ell / n_grid
        x = [mp.mpf(0)] + [(j + mp.mpf(1) / 2) * h for j in range(n_grid)] + [ell]
        P = []
        for m in range(1, n + 1):
            k = m * mp.pi / ell
            cs = [mp.cos_sin(k * xj) for xj in x]
            F0 = [-c / k for c, _ in cs]
            F1 = [sn / k ** 2 - xj * c / k for xj, (c, sn) in zip(x, cs)]

            def piece(i, alpha, beta):  # int of sin(kx) (alpha + beta x) on [x_i, x_i+1]
                return alpha * (F0[i + 1] - F0[i]) + beta * (F1[i + 1] - F1[i])

            P.append([mp.sqrt(2 / ell) * (
                (piece(0, 1, 0) if a == 0 else piece(a, -x[a] / h, 1 / h))
                + (piece(n_grid, 1, 0) if a == n_grid - 1 else piece(a + 1, x[a + 2] / h, -1 / h)))
                for a in range(n_grid)])

        t = [Fraction(0)] + [Fraction(2 * j + 1, 2) for j in range(n_grid)] + [Fraction(n_grid)]

        def phi(a, z):  # the hats in units of h, clamped to 1 in the margins
            if (a == 0 and z <= t[1]) or (a == n_grid - 1 and z >= t[n_grid]):
                return Fraction(1)
            return max(Fraction(0), 1 - abs(z - t[a + 1]))

        H = {}
        for lo, hi in zip(t[:-1], t[1:]):
            pts = (lo, (lo + hi) / 2, hi)
            live = [a for a in range(n_grid) if any(phi(a, z) for z in pts)]
            for a in live:
                for b in live:
                    H[a, b] = H.get((a, b), 0) + (hi - lo) / 6 * (
                        phi(a, lo) * phi(b, lo) + 4 * phi(a, pts[1]) * phi(b, pts[1])
                        + phi(a, hi) * phi(b, hi))
        Hm = {ab: h * v.numerator / v.denominator for ab, v in H.items()}
        HS = {(a, j): mp.fsum(Hm[a, b] * s[b, j] for b in range(n_grid) if (a, b) in Hm)
              for a in range(n_grid) for j in range(n_grid)}
        hs = mp.sqrt(mp.fsum(s[i, j] * HS[i, b] * Hm[b, j]
                             for i in range(n_grid) for j in range(n_grid)
                             for b in range(n_grid) if (b, j) in Hm))
        P_hi = np.array([[float(v) for v in row] for row in P])
        P_lo = np.array([[float(v - float(v)) for v in row] for row in P])
        return P, P_hi, P_lo, H, (float(hs), float(hs - float(hs)))


def _reference_of(kernel):
    return _grid_reference(kernel.n, kernel.length, kernel.samples.tobytes())


class TestGridClosedForm:
    """The grid kernel's interpolant integrated exactly: K = P S P^T with
    P[m - 1, a] = int psi_m phi_a over the hat functions phi_a, and
    ||k||^2 = tr(S^T H S H) with H the Gram matrix of the hats."""

    @pytest.mark.parametrize("n", [1, 4, 16, 128, 256])
    def test_within_rounding_of_an_mp_reference(self, n):
        # P within 4 eps of its row's largest value (measured at most 2.5,
        # both end hats included), K within 8 eps (|P| |S| |P|^T) entrywise
        # (measured at most 3.9) and ||k|| within 2 eps relative (measured at
        # most 1.0).  Above N = 16 nine rows of K are checked against the mp
        # products, the first and the last among them
        eps = np.finfo(float).eps
        rows = np.arange(n) if n <= 16 else np.linspace(0, n - 1, 9).astype(int)
        for name, kernel in _grid_cases():
            P_mp, P_hi, P_lo, _, (hs_hi, hs_lo) = _reference_of(kernel)
            P = kernel._hat_integrals(n)
            err = np.abs((P - P_hi[:n]) - P_lo[:n])
            assert np.all(err <= 4 * eps * np.max(np.abs(P_hi[:n]), axis=1, keepdims=True)), name

            ell = kernel.length
            km = project_kernel(kernel, build_basis(Domain(ell, 0.3 * ell, 0.8 * ell), n))
            assert np.array_equal(km.matrix, km.matrix.T), name
            s = kernel.samples
            with mp.workdps(40):
                PS = [[mp.fdot(P_mp[r], s[:, j]) for j in range(kernel.n)] for r in rows]
                err = np.array([[float(km.matrix[r, c] - mp.fdot(ps, P_mp[c]))
                                   for c in range(n)] for r, ps in zip(rows, PS)])
            scale = np.abs(P_hi[rows]) @ np.abs(s) @ np.abs(P_hi[:n]).T
            assert np.all(np.abs(err) <= 8 * eps * scale), name
            assert abs((km.hs_of_k - hs_hi) - hs_lo) <= 2 * eps * hs_hi, name

    def test_hat_gram_is_the_exact_gram_of_the_hats(self):
        # 2h/3, 5h/6 and h/6 rounded: within 2 eps of the exact Gram entry,
        # and exactly 0.0 where two hats do not overlap
        eps = np.finfo(float).eps
        for name, kernel in _grid_cases():
            H_exact = _reference_of(kernel)[3]
            ref = np.zeros((kernel.n, kernel.n))
            for (a, b), v in H_exact.items():
                ref[a, b] = float(v * Fraction(kernel.length) / kernel.n)
            H = kernel._hat_gram()
            assert np.all(np.abs(H - ref) <= 2 * eps * np.abs(ref)), name
            assert np.count_nonzero(ref) == 3 * kernel.n - 2, name

    @pytest.mark.parametrize("length", [1.0, 2.5, 0.7])
    def test_last_end_hat_is_the_first_reflected_bitwise(self, length):
        # x -> ell - x maps the first end hat onto the last, and
        # psi_m(ell - x) = (-1)^(m+1) psi_m(x)
        m = np.arange(1, 257)
        for n_grid in (2, 3, 9, 64):
            P = GridKernel(n_grid, length, np.zeros((n_grid, n_grid)))._hat_integrals(256)
            assert P[:, -1].tobytes() == np.where(m % 2 == 1, P[:, 0], -P[:, 0]).tobytes()

    def test_non_finite_norm_refused_first_and_quietly(self, basis):
        # ||k||^2 of 1e200 samples overflows while K stays finite: refused
        # before the basis check, with no floating-point warning
        class Huge(GridKernel):
            def check_basis(self, basis):
                raise ArgumentError("check_basis reached")

        kernel = Huge(4, 1.0, np.full((4, 4), 1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="closed form produced a non-finite value"):
                project_kernel(kernel, basis)

    def test_holds_no_quadrature_table(self, domain):
        # N = 256: a quadrature table on 2048 axis nodes would take 33.5 MB.
        # The closed form holds P (N x 64), its product with S and N x N
        # matrices: K and the symmetrized result (measured 2.1 N^2 doubles)
        n = 256
        basis = build_basis(domain, n)
        tracemalloc.start()
        try:
            project_kernel(grid_demo_kernel(), basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n ** 2 * 8


class TestOpenAxes:
    """evaluate on x[:, None], xi[None, :] works per axis, then combines."""

    n = 1024

    def test_separable_is_the_outer_combination_of_its_factors(self):
        k = SeparableKernel(np.array([1.0, 0.0, -0.5]), np.array([0.25, 1.5]))
        x = np.linspace(0.0, 1.0, self.n)
        xi = (np.arange(self.n) + 0.5) / self.n
        vals = k.evaluate(x[:, None], xi[None, :], 1.0)
        gx, hx = k._factors(x, 1.0)
        gxi, hxi = k._factors(xi, 1.0)
        expected = 0.5 * (gx[:, None] * hxi[None, :] + hx[:, None] * gxi[None, :])
        assert np.array_equal(vals, expected)
        X, Y = np.meshgrid(x, xi, indexing="ij")
        assert np.max(np.abs(vals - k.evaluate(X, Y, 1.0))) <= 1e-15

    def test_separable_factors_equal_one_table_per_factor(self, rng):
        # the shared sine table, sliced to each factor's length, gives the bits
        # of a table built for that factor alone
        def alone(coeffs, x, length):
            m = np.arange(1, coeffs.size + 1)
            modes = np.sqrt(2.0 / length) * np.sin(np.multiply.outer(x.ravel(), m) * np.pi / length)
            return (modes @ coeffs).reshape(x.shape)

        for _ in range(50):
            g, h = (rng.standard_normal(rng.integers(1, 12)) for _ in range(2))
            k = SeparableKernel(g, h)
            length = float(rng.uniform(0.1, 10.0))
            shape = [(), (7,), (33, 1), (1, 65), (5, 9)][rng.integers(5)]
            x = rng.uniform(0.0, length, shape)
            for got, coeffs in zip(k._factors(x, length), (g, h)):
                assert got.tobytes() == alone(coeffs, x, length).tobytes()

    def test_grid_open_axes_equal_meshgrid(self):
        k = grid_demo_kernel()
        # reaches into both half-cell margins, where values are clamped
        x = np.linspace(0.0, k.length, self.n)
        xi = x[::-1] ** 2 / k.length
        X, Y = np.meshgrid(x, xi, indexing="ij")
        assert np.array_equal(k.evaluate(x[:, None], xi[None, :]), k.evaluate(X, Y))

    def test_grid_flat_gathers_equal_2d_gathers(self, rng):
        # reference: bilinear interpolation with one 2-D fancy-index gather per
        # corner, on an asymmetric table so that swapped corners would show
        n = 9
        k = GridKernel(n, 1.0, rng.standard_normal((n, n)))
        mids, h = k.midpoints, 1.0 / n
        x = np.linspace(-0.05, 1.05, 301)
        xi = rng.uniform(0.0, 1.0, 7)
        zc = [np.clip(z, mids[0], mids[-1]) for z in (x[:, None], xi[None, :])]
        ix, iy = [np.clip(((z - mids[0]) / h).astype(int), 0, n - 2) for z in zc]
        fx, fy = [np.clip((z - mids[i]) / h, 0.0, 1.0) for z, i in zip(zc, (ix, iy))]
        s, gx, gy = k.samples, 1 - fx, 1 - fy
        ref = s[ix, iy] * (gx * gy) + s[ix + 1, iy + 1] * (fx * fy) + (
            s[ix + 1, iy] * (fx * gy) + s[ix, iy + 1] * (gx * fy))
        assert np.array_equal(k.evaluate(x[:, None], xi[None, :]), ref)

    def test_gaussian_in_place_equals_expression(self):
        k = GaussianKernel(5.0, 0.2)
        peak = k.amplitude / (k.width * np.sqrt(2.0 * np.pi))

        def expression(x, xi):
            x, xi = np.asarray(x, float), np.asarray(xi, float)
            return peak * np.exp(-((x - xi) ** 2) / (2.0 * k.width ** 2))

        x = np.linspace(-0.1, 1.1, 301)
        xi = x[::-1] ** 2
        X, Y = np.meshgrid(x, xi, indexing="ij")
        for a, b in ((x[:, None], xi[None, :]), (X, Y), (x, 0.5)):
            assert np.array_equal(k.evaluate(a, b, 1.0), expression(a, b))
        for a, b in ((0.3, 0.7), (np.float64(0.2), 0.25), (np.array(0.1), np.array(0.9))):
            val = k.evaluate(a, b, 1.0)
            assert type(val) is np.float64 and val == expression(a, b)

    @pytest.mark.parametrize("name, cap", [("separable", 3.0), ("grid", 8.0), ("gaussian", 1.1)])
    def test_peak_memory_is_a_few_outputs(self, name, cap):
        k = {"separable": SeparableKernel(np.array([1.0, 0.0, -0.5]),
                                          np.array([0.25, 1.5])),
             "grid": grid_demo_kernel(),
             "gaussian": GaussianKernel(5.0, 0.2)}[name]
        x = (np.arange(self.n) + 0.5) / self.n
        tracemalloc.start()
        try:
            vals = k.evaluate(x[:, None], x[None, :], 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vals.shape == (self.n, self.n)
        assert peak <= cap * vals.nbytes

    def test_zero_and_scalar_shapes(self):
        x = np.linspace(0.0, 1.0, 5)
        assert np.array_equal(ZeroKernel().evaluate(x[:, None], x[None, :], 1.0),
                              np.zeros((5, 5)))
        k = grid_demo_kernel()
        assert np.shape(k.evaluate(0.3, 0.7)) == ()
        assert k.evaluate(0.3, 0.7) == k.evaluate(np.array([[0.3]]), np.array([[0.7]]))[0, 0]


def _kernel_of_class(name):
    return {"zero": ZeroKernel(),
            "separable": SeparableKernel(np.array([1.0, 0.0, -0.5]), np.array([0.25, 1.5])),
            "gaussian": GaussianKernel(5.0, 0.2),
            "grid": grid_demo_kernel()}[name]


class TestEvaluateOut:
    """evaluate(..., out=) writes the values evaluate returns into the caller's array."""

    n = 300  # not a multiple of the 64-row blocks below: the last one is short

    def _axes(self):
        # both margins of the grid kernel's half cells, and an uneven xi
        x = np.linspace(-0.05, 1.05, self.n)
        return x, x[::-1] ** 2

    def _blocks(self):
        x, xi = self._axes()
        X, Y = np.meshgrid(x, xi, indexing="ij")
        rows = [(x[i:i + 64, None], xi[None, :]) for i in range(0, self.n, 64)]
        cols = [(x[:, None], xi[None, j:j + 64]) for j in range(0, self.n, 64)]
        return rows + cols + [(x[:, None], xi[None, :]), (X, Y), (x, xi), (x, 0.5)]

    @pytest.mark.parametrize("name", ["zero", "separable", "gaussian", "grid"])
    def test_values_equal_a_call_without_out(self, name):
        kernel = _kernel_of_class(name)
        # one buffer reused by every block, filled with NaN first so that an
        # entry the kernel skips would show; a column block's out is a strided view
        buf = np.empty((self.n, self.n))
        for x, xi in self._blocks():
            shape = np.broadcast_shapes(np.shape(x), np.shape(xi))
            out = buf[:shape[0], :shape[1]] if len(shape) == 2 else buf[0]
            out.fill(np.nan)
            got = kernel.evaluate(x, xi, 1.0, out=out)
            assert got is out, name
            assert np.array_equal(out, kernel.evaluate(x, xi, 1.0)), (name, shape)

    @pytest.mark.parametrize("name", ["zero", "separable", "gaussian", "grid"])
    def test_malformed_out_refused(self, name):
        kernel, (x, xi) = _kernel_of_class(name), self._axes()
        for out in (np.empty((self.n, self.n + 1)), np.empty(self.n * self.n),
                    np.empty((self.n, self.n), dtype=np.float32),
                    np.empty((self.n, self.n), dtype=int), np.empty((self.n, self.n)).tolist()):
            with pytest.raises(ArgumentError, match="out must be a float64 array of shape"):
                kernel.evaluate(x[:, None], xi[None, :], 1.0, out=out)


def _oracle_kernels():
    # the bundled kernels and the separable-exact certificate's kernel
    return bundled_kernels() + [("separable-exact", SeparableKernel(
        np.array([1.0, 0.0, -0.5]), np.array([0.25, 1.5])))]


class TestMidpointProjection:
    """Kernel rows streamed in blocks give both oracle values, with no n_points^2 table."""

    @pytest.mark.parametrize("n_points", [300, 1000, 1024])
    def test_within_rounding_of_a_long_double_sum(self, domain, n_points):
        # the same float64 table and psi h, multiplied and summed in long
        # double: the matrix keeps a dense product's entrywise bound,
        # 4 eps (|psi h| |k| |psi h|^T), and the norm 2 eps relative
        eps = np.finfo(float).eps
        h = 1.0 / n_points
        x = (np.arange(n_points) + 0.5) * h
        for name, kernel in _oracle_kernels():
            vals = kernel.evaluate(x[:, None], x[None, :], 1.0)
            vals_ld = vals.astype(np.longdouble)
            hs = np.sqrt(np.sum(vals_ld ** 2) * h * h)
            for n in (8, 16):
                psi_h = np.sqrt(2.0) * np.sin(np.outer(np.arange(1, n + 1), x) * np.pi) * h
                psi_ld = psi_h.astype(np.longdouble)
                exact = psi_ld @ vals_ld @ psi_ld.T
                scale = np.abs(psi_h) @ np.abs(vals) @ np.abs(psi_h).T
                mid = oracles.midpoint_projection(kernel, build_basis(domain, n), n_points)
                assert np.all(np.abs(mid.matrix - exact) <= 4 * eps * scale), (name, n)
                assert abs(mid.hs_of_k - hs) <= 2 * eps * hs, (name, n)

    @pytest.mark.parametrize("n_points", [300, 1024])
    def test_matrix_only_oracle_skips_the_norm_not_the_table(self, basis, n_points):
        for name, kernel in bundled_kernels():
            assert np.array_equal(oracles.midpoint_project_kernel(kernel, basis, n_points),
                                  oracles.midpoint_projection(kernel, basis, n_points).matrix), name

    def test_peak_memory_is_one_table(self, basis):
        # one block of kernel rows: 2 MB here, where the whole table is 134 MB
        n_points = 4096
        tracemalloc.start()
        try:
            oracles.midpoint_projection(GaussianKernel(5.0, 0.2), basis, n_points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    @pytest.mark.parametrize("name, cap_mib", [("separable", 1.5 * 2.0), ("grid", 12.7)])
    def test_peak_memory_is_one_reused_block(self, domain, name, cap_mib):
        # the 8-mode, 4096-point call of the separable-exact certificate: one
        # 64 x 4096 block of 2 MiB is allocated once and every block of rows is
        # written into it.  The separable kernel adds one scratch row per
        # block; the grid kernel's corner gathers and weights still take a few
        # block-sized arrays of their own, and are held to that
        kernel, basis = _kernel_of_class(name), build_basis(domain, 8)
        tracemalloc.start()
        try:
            oracles.midpoint_project_kernel(kernel, basis, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cap_mib * 2 ** 20

    @pytest.mark.parametrize("n_points", [-5, 0, 512.0, None])
    def test_n_points_must_be_a_positive_integer(self, basis, n_points):
        for oracle in (oracles.midpoint_projection, oracles.midpoint_project_kernel,
                       oracles.midpoint_hs_norm):
            with pytest.raises(ArgumentError,
                               match=f"^{oracle.__name__}: n_points must be a positive integer"):
                oracle(GaussianKernel(5.0, 0.2), basis, n_points)

    @pytest.mark.parametrize("n_points", [300, 4096])
    def test_evaluate_is_swap_invariant_bitwise(self, n_points):
        # what the half table rests on: on the oracle's midpoints k(x_a, x_b)
        # and k(x_b, x_a) are the same float, so the rows below the diagonal
        # stand for the columns above it.  The table is compared with its
        # transpose one band of 512 rows at a time (the whole table at 300
        # points), never held whole at 4096.  The bundled grid table is
        # symmetric only to its defect: 802 of its 4096 samples differ from
        # their mirror images, by at most 4.4e-16, so the grid interpolant is
        # checked on the table's symmetric part (s + s^T) / 2
        x = (np.arange(n_points) + 0.5) / n_points
        for name, kernel in _oracle_kernels():
            if isinstance(kernel, GridKernel):
                assert 0.0 < kernel.symmetry_defect() <= 4.5e-16
                kernel = GridKernel(kernel.n, kernel.length, (kernel.samples + kernel.samples.T) / 2)
            for i in range(0, n_points, 512):
                band = kernel.evaluate(x[i:i + 512, None], x[None, :], 1.0)
                mirror = kernel.evaluate(x[:, None], x[None, i:i + 512], 1.0)
                assert np.array_equal(band, mirror.T), (name, i)

    @pytest.mark.parametrize("n_points", [300, 4096])
    def test_evaluates_the_lower_half_of_the_table(self, basis, n_points):
        # each block of 64 rows [i, j) against the columns [0, j): sum rows j
        # values, n (n + 64) / 2 at 4096 points where the whole table is n^2
        shapes, gaussian = [], GaussianKernel(5.0, 0.2)

        class Counted(KernelSpec):
            def evaluate(self, x, xi, length, out=None):
                shapes.append(np.broadcast_shapes(np.shape(x), np.shape(xi)))
                return gaussian.evaluate(x, xi, length, out=out)

        oracles.midpoint_projection(Counted(), basis, n_points)
        starts = range(0, n_points, 64)
        assert shapes == [(min(i + 64, n_points) - i, min(i + 64, n_points)) for i in starts]
        if n_points == 4096:
            assert sum(r * j for r, j in shapes) == n_points * (n_points + 64) // 2

    def test_refuses_what_project_kernel_refuses(self, basis, monkeypatch):
        # the half table stands for the whole only for a symmetric kernel on
        # the basis's own domain: a grid table whose asymmetry exceeds
        # DEFAULT_SYMMETRY_TOL and a grid of another length are refused with
        # project_kernel's own ArgumentError, before any block is evaluated
        def unreachable(*args, **kwargs):
            raise AssertionError("evaluated a refused kernel")

        anti = GridKernel(16, 1.0, np.subtract.outer(np.arange(16.0), 2 * np.arange(16.0)))
        long = GridKernel(8, 2.0, np.add.outer(np.arange(8.0), np.arange(8.0)))
        monkeypatch.setattr(GridKernel, "evaluate", unreachable)
        for kernel, match in ((anti, "symmetry check"), (long, "declares length 2.0")):
            with pytest.raises(ArgumentError, match=match) as want:
                project_kernel(kernel, basis)
            for oracle in (oracles.midpoint_projection, oracles.midpoint_project_kernel,
                           oracles.midpoint_hs_norm):
                with pytest.raises(ArgumentError) as got:
                    oracle(kernel, basis, 64)
                assert str(got.value) == str(want.value), oracle.__name__


class TestHsNorm:
    def test_zero(self, basis):
        assert project_kernel(ZeroKernel(), basis).hs_of_k == 0.0

    def test_separable_unit(self, basis):
        k = SeparableKernel(np.array([1.0]), np.array([1.0]))
        assert project_kernel(k, basis).hs_of_k == pytest.approx(1.0, abs=1e-15)

    def test_gaussian_vs_midpoint_oracle(self, basis):
        k = GaussianKernel(1.0, 0.2)
        val = project_kernel(k, basis).hs_of_k
        oracle = oracles.midpoint_hs_norm(k, basis, n_points=4096)
        assert abs(val - oracle) <= 1e-6

    def test_gaussian_closed_form(self, basis):
        # independent route: substituting u = x - xi gives
        #   ||k||^2 = peak^2 [ell sigma sqrt(pi) erf(ell/sigma) + sigma^2 (e^{-ell^2/sigma^2} - 1)]
        from scipy.special import erf
        amp, sig = 5.0, 0.2
        peak = amp / (sig * np.sqrt(2 * np.pi))
        sq = peak ** 2 * (sig * np.sqrt(np.pi) * erf(1.0 / sig)
                          + sig ** 2 * (np.exp(-1.0 / sig ** 2) - 1.0))
        assert project_kernel(GaussianKernel(amp, sig), basis).hs_of_k == pytest.approx(
            np.sqrt(sq), rel=1e-10)


class TestSpectralDomination:
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_hs_dominates_frobenius_dominates_radius(self, domain, n):
        basis = build_basis(domain, n)
        for name, kernel in bundled_kernels():
            kmat = project_kernel(kernel, basis)
            assert kmat.spectral_radius <= kmat.frobenius + 1e-12, name
            assert kmat.frobenius <= kmat.hs_of_k * (1 + 1e-8), name

    def test_frobenius_monotone_in_truncation(self, domain):
        for name, kernel in bundled_kernels():
            fr = [project_kernel(kernel, build_basis(domain, n)).frobenius
                  for n in (4, 8, 16, 32)]
            assert all(b >= a - 1e-12 for a, b in zip(fr, fr[1:])), name
