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

project_kernel has one route: every kernel has a closed form, and no
kernel is evaluated.  A grid kernel's interpolant is sum_ab s_ab phi_a(x)
phi_b(xi) over the hat functions phi_a of the sample midpoints, piecewise
linear in each variable, so the exact sine integrals of the hats and their
exact Gram matrix give its projection and norm.  The Gaussian k = c g(x - xi)
integrated along the diagonals s = x - xi leaves the 1-D sine transforms of
g, S_m and C_m, from which each entry is one difference quotient; psi_m(ell -
x) = (-1)^(m+1) psi_m(x) and the evenness of g make every entry with m + n
odd vanish, and the formula gives those entries as exact zeros.  Its norm is
erf and expm1 of ell / width.

Symmetry k(x, xi) = k(xi, x) is structural for the first three.  A grid
kernel's symmetry_defect() is max |s - s^T| over its sample table, the exact
sup of |k(x, xi) - k(xi, x)| of the interpolant; above DEFAULT_SYMMETRY_TOL
the kernel is rejected by project_kernel, not silently symmetrized.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .basis import QUADRATURE_ORDER, gauss_rule
from .errors import ArgumentError, KernelFormatError, NumericError

DEFAULT_SYMMETRY_TOL = 1e-10

_PI_ROOT_2PI_HALF = 3.9374024864306048  # pi sqrt(2 pi) / 2, correctly rounded


class KernelSpec:
    """Base class of the kernels; each variant supplies its own closed form.

    evaluate(x, xi, length, out=None) returns k on np.broadcast_shapes(x.shape,
    xi.shape).  Inputs are taken as given, never broadcast against each other
    first, so a tensor grid passes its open axes x[:, None], xi[None, :]:
    per-axis work then costs O(n), and no intermediate is larger than the
    output.  With out, a float64 array of exactly that shape, the values are
    written into out and out itself is returned, bit for bit the values a
    call without out returns; any other out is refused with ArgumentError.
    A caller that evaluates many blocks, as the midpoint oracles do, then
    reuses one buffer instead of a fresh output per block.

    project_kernel takes the Galerkin matrix on basis.n_modes modes and ||k||
    from closed_form(basis), which every kernel class supplies; here it
    refuses the kernel.  symmetry_defect() and check_basis(basis) default to
    a structurally symmetric kernel that fits every basis.
    """

    def evaluate(self, x, xi, length, out=None):
        raise NotImplementedError

    def closed_form(self, basis):
        raise ArgumentError(f"project_kernel: unsupported kernel {type(self).__name__}")

    def symmetry_defect(self):
        return 0.0

    def check_basis(self, basis):
        pass


@dataclass(frozen=True)
class ZeroKernel(KernelSpec):
    def evaluate(self, x, xi, length, out=None):
        vals = _output(x, xi, out)
        vals.fill(0.0)
        return _returned(vals, out)

    def closed_form(self, basis):
        return np.zeros((basis.n_modes, basis.n_modes)), 0.0


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

    def _factors(self, x, length):
        # g(x) and h(x) from one sine table of max(len g, len h) columns, each
        # one matrix-vector product over the flattened points, so a value
        # does not depend on the shape of the array it sits in
        x = np.asarray(x, float)
        m = np.arange(1, max(self.g_coeffs.size, self.h_coeffs.size) + 1)
        modes = np.sqrt(2.0 / length) * np.sin(np.multiply.outer(x.ravel(), m) * np.pi / length)
        return tuple((modes[:, :c.size] @ c).reshape(x.shape)
                     for c in (self.g_coeffs, self.h_coeffs))

    def evaluate(self, x, xi, length, out=None):
        vals = _output(x, xi, out)
        g_x, h_x = self._factors(x, length)
        g_xi, h_xi = self._factors(xi, length)
        # 0.5 * (g_x * h_xi + h_x * g_xi), accumulated in the output array; the
        # second product goes one leading-axis row at a time through a one-row
        # scratch, so no other output-sized array is allocated
        np.multiply(g_x, h_xi, out=vals)
        rows = np.atleast_2d(vals)
        h_rows, g_rows = (np.atleast_2d(np.broadcast_to(f, vals.shape)) for f in (h_x, g_xi))
        scratch = np.empty(rows.shape[1:])
        for r in range(rows.shape[0]):
            rows[r] += np.multiply(h_rows[r], g_rows[r], out=scratch)
        vals *= 0.5
        return _returned(vals, out)

    def closed_form(self, basis):
        # K = (g h^T + h g^T) / 2 on the first n coefficients; the norm takes
        # all of them, ||k||^2 = (||g||^2 ||h||^2 + <g, h>^2) / 2, formed on g
        # and h scaled by powers of two to largest entries in [1/2, 1): no
        # product overflows, and unscaling the root changes no bit
        n, g, h = basis.n_modes, self.g_coeffs, self.h_coeffs
        e_g, e_h = (int(np.frexp(np.max(np.abs(v)))[1]) for v in (g, h))
        g_s, h_s = np.ldexp(g, -e_g), np.ldexp(h, -e_h)
        m = min(g.size, h.size)
        gh = float(g_s[:m] @ h_s[:m])
        hs = float(np.ldexp(np.sqrt((g_s @ g_s) * (h_s @ h_s) / 2.0 + gh * gh / 2.0), e_g + e_h))
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

    def evaluate(self, x, xi, length, out=None):
        # peak * exp(-(x - xi)^2 / (2 width^2)), each step in the one output
        # array; dividing by -2 width^2 negates exactly, as IEEE division is
        # symmetric in sign
        try:
            two_w2 = 2.0 * self.width ** 2
        except OverflowError:  # w^2 past the float range: the exponent is -0.0
            two_w2 = math.inf
        vals = _output(x, xi, out)
        np.subtract(x, xi, out=vals, dtype=float)
        np.square(vals, out=vals)
        vals /= -two_w2
        np.exp(vals, out=vals)
        vals *= self.amplitude / (self.width * np.sqrt(2.0 * np.pi))
        return _returned(vals, out)

    def _transforms(self, ell, n):
        """S[m - 1] = int_0^ell g(s) sin(a_m s) ds and C[m - 1] =
        2^-e int_0^ell (ell - s) g(s) cos(a_m s) ds for m = 1..n, with a_m =
        m pi / ell, g(s) = exp(-s^2 / (2 width^2)) and ell = f 2^e, 1/2 <= f
        < 1 (an exact scaling, which keeps C finite past ell width = inf), by
        P = ceil(ell / min(width / 2, ell / n)) uniform panels of
        QUADRATURE_ORDER Gauss points.  Node s = c_p + d_j sits at its
        panel's centre plus one of the shared offsets, so sin(a_m s) =
        sin(a_m c_p) cos(a_m d_j) + cos(a_m c_p) sin(a_m d_j): a_m c_p =
        pi m (2p + 1) / (2P) is an exact multiple of a half turn, gathered
        from one table of sines, and only the small phases a_m d_j, at most
        pi / 2, are rounded.  O(n P) work and memory, and no n x nodes
        table."""
        panels = max(1, int(np.ceil(ell / min(self.width / 2.0, ell / n))))
        h = ell / (2 * panels)
        x, wq = gauss_rule(np.array([-1.0, 1.0]), QUADRATURE_ORDER)
        s = (2 * np.arange(panels) + 1)[:, None] * h + h * x
        with np.errstate(over="ignore", invalid="ignore"):
            sq, two_w2 = s * s, 2.0 * self.width * self.width
            expo = -sq / two_w2
        # where s^2 or 2 w^2 overflows, the quotient above reads -inf, -0.0 or
        # inf / inf = NaN: there the exponent is -(s / w)^2 / 2, s / w first
        wide = np.isinf(sq) | math.isinf(two_w2)
        if np.any(wide):
            z = s[wide] / self.width
            expo[wide] = -(z * z) / 2.0
        gw = np.exp(expo) * (h * wq)
        m = np.arange(1, n + 1)
        # sin(pi r / (2P)) for r = 0..5P - 1: cos(pi r / (2P)) is entry r + P
        turns = _sin_half_turns(np.arange(5 * panels), 2 * panels)
        r = np.multiply.outer(m, 2 * np.arange(panels) + 1) % (4 * panels)
        sin_c, cos_c = turns[r], turns[r + panels]
        phase = np.multiply.outer(m, x) * (np.pi / (2 * panels))
        sin_d, cos_d = np.sin(phase), np.cos(phase)
        S = np.sum(cos_d * (sin_c @ gw) + sin_d * (cos_c @ gw), axis=1)
        gw *= np.ldexp(ell - s, -math.frexp(ell)[1])
        C = np.sum(cos_d * (cos_c @ gw) - sin_d * (sin_c @ gw), axis=1)
        return S, C

    def closed_form(self, basis):
        # k = c g(x - xi) integrated along the diagonals s = x - xi:
        # K[m, n] = (2c / pi) [(S_n - S_m) / (m - n) + (S_m + S_n) / (m + n)]
        # for m + n even, K[m, m] = (2c / pi) [S_m / m + (pi / ell) C_m], and
        # 0.0 for m + n odd, never formed; ||k||^2 = 2 c^2 int_0^ell (ell - s)
        # g(s)^2 ds = 2 c^2 [(ell w sqrt(pi) / 2) erf(u) - (w^2 / 2)
        # (1 - exp(-u^2))] with u = ell / w.  (pi / ell) C_m is taken as
        # (pi / f) 2^-e C_m, ell = f 2^e: the same bits, finite past ell w = inf
        n, ell, w = basis.n_modes, basis.domain.length, float(self.width)
        c = self.amplitude / (w * np.sqrt(2.0 * np.pi))
        u = ell / w
        if w * w < math.inf and 2.0 * ell * w < math.inf and u * u >= sys.float_info.min:
            sq = 2.0 * (ell * w * math.sqrt(math.pi) / 2.0 * math.erf(u)
                        - w * w / 2.0 * -math.expm1(-u * u))
            hs = abs(c) * math.sqrt(max(sq, 0.0))
        else:
            # w^2 or ell w overflows, or u^2 underflows: with ell^2 factored out the
            # bracket is ell^2 [(sqrt(pi) / 2) erf(u) / u - (1 - exp(-u^2)) /
            # (2 u^2)] = ell^2 (1/2 - u^2 / 12 + ...), exactly ell^2 / 2 in
            # float64 once u^2 leaves the normal range
            v = u * u
            half = (math.sqrt(math.pi) / 2.0 * math.erf(u) / u + math.expm1(-v) / (2.0 * v)
                    if v >= sys.float_info.min else 0.5)
            hs = abs(c) * ell * math.sqrt(2.0 * half)
        scale = self.amplitude / (w * _PI_ROOT_2PI_HALF)  # 2c / pi in two roundings
        S, C = self._transforms(ell, n)
        K = np.zeros((n, n))
        for a in (0, 1):  # odd m, then even m
            m, s = np.arange(a + 1, n + 1, 2), S[a::2]
            diff = np.subtract.outer(m, m)
            np.fill_diagonal(diff, 1)
            Q = np.subtract.outer(s, s)
            Q /= -diff  # (S_m - S_n) / (n - m)
            Q += np.add.outer(s, s) / np.add.outer(m, m)
            np.fill_diagonal(Q, s / m + C[a::2] * (np.pi / math.frexp(ell)[0]))
            K[a::2, a::2] = Q * scale
        return K, hs


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

    def evaluate(self, x, xi, length=None, out=None):
        vals = _output(x, xi, out)
        ix, fx = self._locate(x)
        iy, fy = self._locate(xi)
        gx, gy = 1 - fx, 1 - fy
        # one flat index k of the (ix, iy) corners: the other three corners
        # are the same gather from the flat table shifted by n + 1, n and 1.
        # Single-multiply weights and cross terms grouped first keep the
        # evaluation bitwise invariant under (x, xi) swap for symmetric tables;
        # the in-place sums keep that order in the output and a cross array,
        # with every gather and weight in one of two scratch arrays (k is in
        # range: mode="clip" only spares numpy a buffered copy of the gather)
        k, s, n = ix * self.n + iy, self.samples.ravel(), self.n
        cross, t, w = (np.empty_like(vals) for _ in range(3))
        s.take(k, out=vals, mode="clip")
        vals *= np.multiply(gx, gy, out=w)
        s[n + 1:].take(k, out=t, mode="clip")
        vals += np.multiply(t, np.multiply(fx, fy, out=w), out=t)
        s[n:].take(k, out=cross, mode="clip")
        cross *= np.multiply(fx, gy, out=w)
        s[1:].take(k, out=t, mode="clip")
        cross += np.multiply(t, np.multiply(gx, fy, out=w), out=t)
        vals += cross
        return _returned(vals, out)

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

    def closed_form(self, basis):
        # K = P S P^T and ||k||^2 = tr(S^T H S H) = sum (S H) o (H S), exactly,
        # from the grid's own length: check_basis refuses a basis it does not fit
        P, H, S = self._hat_integrals(basis.n_modes), self._hat_gram(), self.samples
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
        # the norm of K scaled by a power of two to entries below 1: no square
        # overflows while the norm fits, and unscaling changes no bit
        e = int(np.frexp(np.max(np.abs(self.matrix)))[1])
        return float(np.ldexp(np.linalg.norm(np.ldexp(self.matrix, -e)), e))

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
# evaluation output

def _output(x, xi, out):
    # the array evaluate writes: out, checked, or a new one of the broadcast shape
    shape = np.broadcast_shapes(np.shape(x), np.shape(xi))
    if out is None:
        return np.empty(shape)
    if not isinstance(out, np.ndarray) or out.dtype != np.float64 or out.shape != shape:
        got = (f"{out.dtype} array of shape {out.shape}" if isinstance(out, np.ndarray)
               else type(out).__name__)
        raise ArgumentError(f"evaluate: out must be a float64 array of shape {shape}, got {got}")
    return out


def _returned(vals, out):
    # out itself when given; a 0-d result of scalar inputs as a numpy scalar
    return vals if out is not None or vals.ndim else vals[()]


# ---------------------------------------------------------------------------
# projection

def _sin_half_turns(r, q):
    # sin(pi r / q), integers r and even q > 0, r first reduced exactly to |r| <= q / 2
    r = np.remainder(r + q, 2 * q) - q
    r = np.where(r > q // 2, q - r, np.where(r < -(q // 2), -q - r, r))
    return np.sin(np.pi * r / q)


def project_kernel(spec, basis):
    """Project a kernel onto the sine basis, returning its KernelMatrix.

    Every kernel is projected in closed form: spec.closed_form(basis) returns
    the Galerkin matrix and ||k|| with no tensor quadrature rule and no
    kernel values.  For a grid kernel, K = P S P^T and ||k||^2 =
    tr(S^T H S H) exactly, with P[m - 1, a] = int psi_m phi_a over the hat
    functions phi_a of its sample midpoints and H their tridiagonal Gram
    matrix.  The Gaussian k = c g(x - xi) is integrated along the diagonals
    s = x - xi, which leaves the 1-D sine transforms S_m and C_m of g (see
    GaussianKernel._transforms): K[m, n] = (2c / pi) [(S_n - S_m) / (m - n)
    + (S_m + S_n) / (m + n)] for m + n even, K[m, m] = (2c / pi) [S_m / m +
    (pi / ell) C_m], K[m, n] = 0.0 exactly for m + n odd, and ||k|| from erf
    and expm1.  The difference quotient cancels but does not amplify: m - n
    is even and at least 2, so with dS the transforms' errors the computed
    q = (S_n - S_m) / (m - n) is within (|dS_m| + |dS_n|) / |m - n| (1 + eps)
    + eps |q| of the exact quotient, at most half the transforms' errors
    plus one rounding.

    There is one exit: a non-finite ||k|| is refused, quietly, then
    spec.check_basis(basis) runs, then a non-finite K is refused, and K is
    averaged with its transpose (exact for symmetric input).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are refused below
        K, hs = spec.closed_form(basis)
        if not np.isfinite(hs):
            raise NumericError("project_kernel: the closed form produced a non-finite value")
    spec.check_basis(basis)
    if not np.all(np.isfinite(K)):
        bad = np.argwhere(~np.isfinite(K))[0]
        raise NumericError(
            f"project_kernel: non-finite entry at ({bad[0]}, {bad[1]})"
        )
    return KernelMatrix(n_modes=basis.n_modes, matrix=(K + K.T) / 2, hs_of_k=hs)
