"""Symmetric integral kernels k(x, xi), their file format, and Galerkin projection.

A kernel enters the dynamics through the integral operator
(K w)(x) = int_Omega k(x, xi) w(xi) dxi.  Four representations are supported:

* ZeroKernel          -- k = 0 (decoupled heat equation);
* SeparableKernel     -- k = (g(x) h(xi) + h(x) g(xi)) / 2 with g, h given by
                         sine-basis coefficients (symmetrized by construction);
* GaussianKernel      -- translation-invariant bump; `amplitude` is the
                         integrated mass of each cross-section, i.e.
                         k = amplitude / (width sqrt(2 pi)) *
                             exp(-(x - xi)^2 / (2 width^2)),
                         so amplitudes compare directly against the spectral
                         gap when judging stability of the coupled generator;
* GridKernel          -- tabulated midpoint samples on a uniform n x n grid,
                         bilinearly interpolated and extended by nearest value
                         in the half-cell margins.

project_kernel has two routes.  Zero, separable and grid kernels have a
closed form: a grid kernel's interpolant is sum_ab s_ab phi_a(x) phi_b(xi)
over the hat functions phi_a of the sample midpoints, piecewise linear in
each variable, so the exact sine integrals of the hats and their exact Gram
matrix give its projection and norm with no quadrature and no kernel
values.  The Gaussian is projected by a parity fold: its rule is symmetric
about ell/2, k(ell - x, ell - xi) = k(x, xi), and psi_m(ell - x) =
(-1)^(m+1) psi_m(x), so the quadrature sums need k only on the left half of
the nodes, odd and even modes decouple, and every entry with m + n odd is
exactly 0.0.  The half table is evaluated in blocks of 256 columns, so no
nodes^2 table is held either.

Symmetry k(x, xi) = k(xi, x) is structural for the first three.  A grid
kernel's symmetry_defect() is max |s - s^T| over its sample table, the exact
sup of |k(x, xi) - k(xi, x)| of the interpolant; above DEFAULT_SYMMETRY_TOL
the kernel is rejected by project_kernel, not silently symmetrized.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import QUADRATURE_ORDER, gauss_rule
from .errors import ArgumentError, KernelFormatError, NumericError

DEFAULT_SYMMETRY_TOL = 1e-10

_COLUMN_BLOCK = 256  # half-table columns per kernel evaluation in project_kernel
_MODE_BLOCK = 64  # rows of the weighted modes formed at a time
_SPLITTER = 134217729.0  # 2^27 + 1


class KernelSpec:
    """Base class of the kernels; each variant supplies its own projection rules.

    evaluate(x, xi, length) returns k on np.broadcast_shapes(x.shape, xi.shape).
    Inputs are taken as given, never broadcast against each other first, so a
    tensor grid passes its open axes x[:, None], xi[None, :]: per-axis work
    then costs O(n), and no intermediate is larger than the output.

    project_kernel takes the Galerkin matrix on n modes and ||k|| from
    closed_form(n), or, where that is None, from the parity fold of a tensor
    quadrature on the axis nodes and weights of axis_rule(basis).  The fold
    evaluates k only against the left half of the nodes, and it holds for a
    kernel and rule with two properties: k(ell - x, ell - xi) = k(x, xi), and
    axis_rule(basis) symmetric about ell/2 (an even number of nodes, node i
    at ell minus node nodes - 1 - i and with its weight).
    symmetry_defect() and check_basis(basis) default to a structurally
    symmetric kernel that fits every basis.
    """

    def evaluate(self, x, xi, length):
        raise NotImplementedError

    def closed_form(self, n):
        return None

    def axis_rule(self, basis):
        raise ArgumentError(f"project_kernel: unsupported kernel {type(self).__name__}")

    def symmetry_defect(self):
        return 0.0

    def check_basis(self, basis):
        pass


@dataclass(frozen=True)
class ZeroKernel(KernelSpec):
    def evaluate(self, x, xi, length):
        return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(xi)))

    def closed_form(self, n):
        return np.zeros((n, n)), 0.0


@dataclass(frozen=True, eq=False)
class SeparableKernel(KernelSpec):
    """k = (g(x) h(xi) + h(x) g(xi)) / 2 with g = sum g_m psi_m, h = sum h_m psi_m."""

    g_coeffs: np.ndarray
    h_coeffs: np.ndarray

    def __post_init__(self):
        # private read-only copies, as GridKernel keeps its samples
        g = np.array(self.g_coeffs, dtype=float, ndmin=1)
        h = np.array(self.h_coeffs, dtype=float, ndmin=1)
        if g.ndim != 1 or h.ndim != 1 or g.size == 0 or h.size == 0:
            raise ArgumentError("SeparableKernel: coefficient vectors must be non-empty 1-d")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
            raise ArgumentError("SeparableKernel: coefficients must be finite")
        g.flags.writeable = h.flags.writeable = False
        object.__setattr__(self, "g_coeffs", g)
        object.__setattr__(self, "h_coeffs", h)

    def _factor(self, coeffs, x, length):
        # one matrix-vector product over the flattened points, so a value
        # does not depend on the shape of the array it sits in
        x = np.asarray(x, float)
        m = np.arange(1, coeffs.size + 1)
        modes = np.sqrt(2.0 / length) * np.sin(np.multiply.outer(x.ravel(), m) * np.pi / length)
        return (modes @ coeffs).reshape(x.shape)

    def evaluate(self, x, xi, length):
        g_x = self._factor(self.g_coeffs, x, length)
        g_xi = self._factor(self.g_coeffs, xi, length)
        h_x = self._factor(self.h_coeffs, x, length)
        h_xi = self._factor(self.h_coeffs, xi, length)
        # 0.5 * (g_x * h_xi + h_x * g_xi), accumulated in one output array
        out = g_x * h_xi
        out += h_x * g_xi
        out *= 0.5
        return out

    def closed_form(self, n):
        # K = (g h^T + h g^T) / 2 on the first n coefficients; the norm takes
        # all of them, ||k||^2 = (||g||^2 ||h||^2 + <g, h>^2) / 2
        g, h = self.g_coeffs, self.h_coeffs
        m = min(g.size, h.size)
        gh = float(g[:m] @ h[:m])
        hs = float(np.sqrt((g @ g) * (h @ h) / 2.0 + gh * gh / 2.0))
        g_n, h_n = np.zeros(n), np.zeros(n)
        g_n[: min(n, g.size)] = g[:n]
        h_n[: min(n, h.size)] = h[:n]
        return 0.5 * (np.outer(g_n, h_n) + np.outer(h_n, g_n)), hs


@dataclass(frozen=True)
class GaussianKernel(KernelSpec):
    amplitude: float
    width: float

    def __post_init__(self):
        if not (np.isfinite(self.amplitude)):
            raise ArgumentError("GaussianKernel: amplitude must be finite")
        if not (np.isfinite(self.width) and self.width > 0):
            raise ArgumentError(f"GaussianKernel: width must be positive, got {self.width}")

    def evaluate(self, x, xi, length):
        # peak * exp(-(x - xi)^2 / (2 width^2)), each step in the one output array
        out = np.asarray(np.subtract(x, xi, dtype=float))
        np.square(out, out=out)
        np.negative(out, out=out)
        out /= 2.0 * self.width ** 2
        np.exp(out, out=out)
        out *= self.amplitude / (self.width * np.sqrt(2.0 * np.pi))
        return out if out.ndim else out[()]

    def axis_rule(self, basis):
        # uniform panels, made symmetric about ell/2: the right half is
        # ell - x_L rounded and the left half ell minus that, an exact
        # difference, so nodes i and nodes - 1 - i sum to ell exactly and
        # share one weight
        ell = basis.domain.length
        panels = max(1, int(np.ceil(ell / min(self.width / 2.0, ell / basis.n_modes))))
        x, w = gauss_rule(np.linspace(0.0, ell, panels + 1), QUADRATURE_ORDER)
        h = x.size // 2
        right = ell - x[h - 1::-1]
        return np.concatenate((ell - right[::-1], right)), np.concatenate((w[:h], w[h - 1::-1]))


@dataclass(frozen=True, eq=False)
class GridKernel(KernelSpec):
    """Midpoint samples on (0, length)^2; midpoint m_i = (i + 1/2) length / n."""

    n: int
    length: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        # a private read-only copy: a shared kernel cannot be mutated, and the
        # caller's own array is not frozen
        samples = np.array(self.samples, dtype=float)
        if self.n < 2:
            raise ArgumentError(f"GridKernel: need n >= 2, got {self.n}")
        if not (np.isfinite(self.length) and self.length > 0):
            raise ArgumentError(f"GridKernel: bad domain length {self.length}")
        if samples.shape != (self.n, self.n):
            raise ArgumentError(
                f"GridKernel: samples must be {self.n}x{self.n}, got {samples.shape}"
            )
        if not np.all(np.isfinite(samples)):
            raise ArgumentError("GridKernel: samples contain non-finite values")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def midpoints(self):
        return (np.arange(self.n) + 0.5) * self.length / self.n

    def _locate(self, z):
        # cell index i and fraction f of z between midpoints i and i + 1;
        # clamping to the midpoint hull realises the nearest-value extension
        mids = self.midpoints
        h = self.length / self.n
        zc = np.clip(np.asarray(z, float), mids[0], mids[-1])
        idx = np.clip(((zc - mids[0]) / h).astype(int), 0, self.n - 2)
        frac = (zc - mids[idx]) / h
        return idx, np.clip(frac, 0.0, 1.0)

    def evaluate(self, x, xi, length=None):
        ix, fx = self._locate(x)
        iy, fy = self._locate(xi)
        gx, gy = 1 - fx, 1 - fy
        # one flat index k of the (ix, iy) corners: the other three corners
        # are the same gather from the flat table shifted by n + 1, n and 1.
        # Single-multiply weights and cross terms grouped first keep the
        # evaluation bitwise invariant under (x, xi) swap for symmetric tables;
        # the in-place sums keep that order with two output-sized arrays
        k, s, n = ix * self.n + iy, self.samples.ravel(), self.n
        diag = s.take(k) * (gx * gy)
        diag += s[n + 1:].take(k) * (fx * fy)
        cross = s[n:].take(k) * (fx * gy)
        cross += s[1:].take(k) * (gx * fy)
        diag += cross
        return diag

    def _hat_integrals(self, n):
        """P[m - 1, a] = int psi_m phi_a exactly, phi_a the hat of midpoint a,
        clamped to 1 in the margins as evaluate weighs it.  With k = m pi / ell,
        u = k h / 2 and c = sqrt(2 / ell) h, an interior hat gives
        c sin(k m_a) (sin u / u)^2 and the first end hat
        c ((u - sin u) / 2 + sin^3 u) / u^2; the last is the first reflected by
        x -> ell - x, (-1)^(m+1) times it bit for bit.  The sines take exact
        integer multiples of pi / (2 n), k m_a = pi m (2a + 1) / (2 n) and
        u = pi m / (2 n); below u = 1, u - sin u comes from its series, as the
        difference would lose about 6 eps / u^2."""
        g, h = self.n, self.length / self.n
        m = np.arange(1, n + 1)
        u = m * (np.pi / (2 * g))
        sin_u = _sin_half_turns(m, 2 * g)
        v, series = u * u, 1.0
        for j in range(8, 0, -1):  # the first term left out is under 1e-19 relative
            series = 1.0 - v / ((2 * j + 2) * (2 * j + 3)) * series
        d = np.where(u < 1.0, u * v / 6.0 * series, u - sin_u)
        c = np.sqrt(2.0 / self.length) * h
        P = np.empty((n, g))
        P[:, 0] = c * (d / 2.0 + sin_u ** 3) / v
        P[:, -1] = np.where(m % 2 == 1, P[:, 0], -P[:, 0])
        phase = _sin_half_turns(m[:, None] * (2 * np.arange(1, g - 1) + 1), 2 * g)
        P[:, 1:-1] = c * phase * ((sin_u / u) ** 2)[:, None]
        return P

    def _hat_gram(self):
        """H[a, b] = int phi_a phi_b: 2h/3 on the diagonal, 5h/6 at the two
        clamped ends (a half hat and a flat half cell), h/6 beside it."""
        diag = np.diag(np.r_[5.0, np.full(self.n - 2, 4.0), 5.0])
        off = np.eye(self.n, k=1)
        return (diag + off + off.T) * (self.length / self.n / 6.0)

    def closed_form(self, n):
        # K = P S P^T and ||k||^2 = tr(S^T H S H) = sum (S H) o (H S), exactly
        P, H, S = self._hat_integrals(n), self._hat_gram(), self.samples
        sq = float(np.sum((S @ H) * (H @ S)))
        return P @ S @ P.T, float(np.sqrt(max(sq, 0.0)))

    def symmetry_defect(self):
        """Sup of |k(x, xi) - k(xi, x)|, which is max |s - s^T| over the sample
        table s: the interpolant of the antisymmetric part s - s^T takes its
        extreme values at the midpoints."""
        return float(np.max(np.abs(self.samples - self.samples.T)))

    def fits_length(self, length):
        """True when the declared grid length matches length to 1e-12 relative."""
        return abs(self.length - length) <= 1e-12 * max(1.0, length)

    def check_basis(self, basis):
        if not self.fits_length(basis.domain.length):
            raise ArgumentError(
                f"project_kernel: grid kernel declares length {self.length} but the basis domain "
                f"has length {basis.domain.length}"
            )
        defect = self.symmetry_defect()
        if defect > DEFAULT_SYMMETRY_TOL:
            raise ArgumentError(
                f"project_kernel: grid kernel fails the symmetry check (defect {defect:.3e} > "
                f"tol {DEFAULT_SYMMETRY_TOL:.3e}); symmetrize the data or fix the file"
            )


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Galerkin matrix K[i, j] = int int k(x, xi) psi_i(x) psi_j(xi) dx dxi,
    together with the L^2(Omega x Omega) norm of the underlying kernel."""

    n_modes: int
    matrix: np.ndarray = field(repr=False)
    hs_of_k: float

    @property
    def frobenius(self):
        return float(np.linalg.norm(self.matrix))

    @property
    def spectral_radius(self):
        return float(np.max(np.abs(np.linalg.eigvalsh(self.matrix))))


# ---------------------------------------------------------------------------
# file format and parsing

def read_grid_kernel(path):
    """Parse a grid-kernel file.

    Line 1: `n ell`; lines 2..n+1: n whitespace-separated samples each,
    row i giving k at x-midpoint i over all xi-midpoints.  `#` starts a
    comment line; only comment and blank lines may follow the last row.
    Decimal point `.`, no thousands separators.
    """
    rows = []
    header = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                parts = line.split()
                if len(parts) != 2:
                    raise KernelFormatError(
                        f"read_grid_kernel: header must be 'n ell', got {line!r}", line=lineno)
                try:
                    n = int(parts[0])
                    ell = float(parts[1])
                except ValueError:
                    raise KernelFormatError(
                        f"read_grid_kernel: unparsable header {line!r}", line=lineno)
                if n < 2:
                    raise KernelFormatError(
                        f"read_grid_kernel: need n >= 2, got {n}", line=lineno)
                if not (np.isfinite(ell) and ell > 0):
                    raise KernelFormatError(
                        f"read_grid_kernel: bad domain length {parts[1]}", line=lineno)
                header = (n, ell, lineno)
                continue
            if len(rows) == header[0]:
                raise KernelFormatError(
                    f"read_grid_kernel: extra line after the {header[0]} sample rows",
                    line=lineno)
            try:
                vals = [float(tok) for tok in line.split()]
            except ValueError:
                raise KernelFormatError(
                    f"read_grid_kernel: unparsable sample row", line=lineno)
            if len(vals) != header[0]:
                raise KernelFormatError(
                    f"read_grid_kernel: row has {len(vals)} samples, expected {header[0]}",
                    line=lineno)
            if not all(map(math.isfinite, vals)):
                raise KernelFormatError(
                    "read_grid_kernel: non-finite sample", line=lineno)
            rows.append((lineno, vals))
    if header is None:
        raise KernelFormatError(f"read_grid_kernel: {path}: empty file", line=1)
    n, ell, _ = header
    if len(rows) != n:
        raise KernelFormatError(
            f"read_grid_kernel: expected {n} sample rows, found {len(rows)}",
            line=rows[-1][0] if rows else header[2])
    samples = np.array([vals for _, vals in rows])
    return GridKernel(n=n, length=ell, samples=samples)


def write_grid_kernel(path, kernel_fn, n, length, comment=None):
    """Write midpoint samples of kernel_fn(x, xi) in the grid file format."""
    mids = (np.arange(n) + 0.5) * length / n
    X, Y = np.meshgrid(mids, mids, indexing="ij")
    samples = np.asarray(kernel_fn(X, Y), dtype=float)
    with open(path, "w", encoding="ascii") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(f"{n} {length!r}\n")
        for row in samples:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
    return GridKernel(n=n, length=length, samples=samples)


# ---------------------------------------------------------------------------
# projection

def _split(a):
    # a = hi + lo exactly, hi with 26 significant bits (Veltkamp's splitting)
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _sin_half_turns(r, q):
    # sin(pi r / q), integers r and even q > 0, r first reduced exactly to |r| <= q / 2
    r = np.remainder(r + q, 2 * q) - q
    r = np.where(r > q // 2, q - r, np.where(r < -(q // 2), -q - r, r))
    return np.sin(np.pi * r / q)


def _weighted_modes(n, x, w, ell):
    # psi_w[m - 1, i] = sqrt(2 / ell) sin(pi r) w_i with r = m x_i / ell
    # reduced mod 2 to [-1, 1], within a few eps.  x / ell is carried as
    # t_hi + t_lo, t_hi with 26 significant bits, so m t_hi (m < 2^27) and
    # its remainder mod 2 are exact; t_lo takes the rest and the division's
    # error, found with Dekker's exact product t ell = p + e.  The plain
    # phase m x_i pi / ell is off by about m eps: over 1000 eps of the
    # row's largest value at m = 512.  Each step runs in place on one block
    # of rows, so the temporaries are a block, never a second n x nodes array
    t = x / ell
    t_hi, t_lo = _split(t)
    l_hi, l_lo = _split(ell)
    p = t * ell
    e = ((t_hi * l_hi - p) + t_hi * l_lo + t_lo * l_hi) + t_lo * l_lo
    t_lo += ((x - p) - e) / ell  # x - p is exact: p is within an ulp or two of x
    scale = np.sqrt(2.0 / ell) * w
    psi_w = np.empty((n, x.size))
    for a in range(0, n, _MODE_BLOCK):
        m = np.arange(a + 1.0, min(a + _MODE_BLOCK, n) + 1.0)[:, None]
        r = psi_w[a:a + _MODE_BLOCK]
        np.multiply(m, t_hi, out=r)
        even = np.multiply(r, 0.5)
        np.rint(even, out=even)
        even *= 2.0
        r -= even  # exact: r is within 1 of the even integer
        r += m * t_lo
        r *= np.pi
        np.sin(r, out=r)
        r *= scale
    return psi_w


def _column_blocks(m):
    # slices of _COLUMN_BLOCK columns; the last holds what is left
    return [slice(a, min(a + _COLUMN_BLOCK, m)) for a in range(0, m, _COLUMN_BLOCK)]


def _parity_fold(spec, basis):
    # the quadrature sums of project_kernel folded about ell/2; returns (K, ||k||)
    n, ell = basis.n_modes, basis.domain.length
    x, w = spec.axis_rule(basis)
    h = x.size // 2
    x_l, w_l, x_r = x[:h], w[:h], x[:h - 1:-1]  # x_r = ell - x_l
    psi_w = _weighted_modes(n, x_l, w_l, ell)
    psi_o, psi_e = psi_w[0::2], psi_w[1::2]  # m = 1, 3, ... and m = 2, 4, ...
    Y_o, Y_e = np.empty((psi_o.shape[0], h)), np.empty((psi_e.shape[0], h))
    t = np.empty(h)
    for J in _column_blocks(h):
        T = spec.evaluate(x_l[:, None], x_l[None, J], ell)
        R = spec.evaluate(x_l[:, None], x_r[None, J], ell)
        buf = np.add(T, R)
        np.matmul(psi_o, buf, out=Y_o[:, J])
        np.subtract(T, R, out=buf)
        np.matmul(psi_e, buf, out=Y_e[:, J])
        np.square(T, out=T)
        np.square(R, out=R)
        T += R
        np.matmul(w_l, T, out=t[J])
        del T, R, buf  # freed before the next block is evaluated
    K = np.zeros((n, n))
    K[0::2, 0::2] = Y_o @ psi_o.T
    K[1::2, 1::2] = Y_e @ psi_e.T
    K *= 2.0
    sq = 2.0 * float(t @ w_l)
    return K, float(np.sqrt(max(sq, 0.0)))


def project_kernel(spec, basis):
    """Project a kernel onto the sine basis, returning its KernelMatrix.

    There are two routes.  Zero, separable and grid kernels return the
    Galerkin matrix and ||k|| from closed_form(n); for a grid kernel,
    K = P S P^T and ||k||^2 = tr(S^T H S H) exactly, with P[m - 1, a] =
    int psi_m phi_a over the hat functions phi_a of its sample midpoints and
    H their tridiagonal Gram matrix: no quadrature rule, no kernel values.

    Any other kernel (the Gaussian) is parity-folded: tensor Gauss-Legendre
    quadrature on the nodes of axis_rule(basis), whose panels resolve both
    the kernel scale and the highest-mode oscillation.  That needs a rule
    symmetric about ell/2 and k(ell - x, ell - xi) = k(x, xi); with
    psi_m(ell - x) = (-1)^(m+1) psi_m(x), the sums over all nodes become
    sums over the left half x_L, w_L.  With T = k(x_L, x_L), R = k(x_L,
    ell - x_L) and psi_o, psi_e the weighted modes on x_L with odd and even m:
    K[odd, odd] = 2 psi_o (T + R) psi_o^T, K[even, even] =
    2 psi_e (T - R) psi_e^T, K[m, n] = 0.0 exactly for m + n odd, and
    ||k||^2 = 2 w_L (T o T + R o R) w_L, a quarter of the whole table's
    product flops and half its kernel values.  T and R are evaluated
    _COLUMN_BLOCK = 256 columns at a time, each block's products with psi_o,
    psi_e and w_L formed before the next block is evaluated.

    Both routes share one exit: a non-finite ||k|| is refused, quietly, then
    spec.check_basis(basis) runs, then a non-finite K is refused, and K is
    averaged with its transpose (exact for symmetric input).
    """
    n = basis.n_modes
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are refused below
        exact = spec.closed_form(n)
        K, hs = exact if exact is not None else _parity_fold(spec, basis)
        if not np.isfinite(hs):
            route = "quadrature" if exact is None else "the closed form"
            raise NumericError(f"project_kernel: {route} produced a non-finite value")
    spec.check_basis(basis)
    if not np.all(np.isfinite(K)):
        bad = np.argwhere(~np.isfinite(K))[0]
        raise NumericError(
            f"project_kernel: non-finite entry at ({bad[0]}, {bad[1]})"
        )
    return KernelMatrix(n_modes=n, matrix=(K + K.T) / 2, hs_of_k=hs)
