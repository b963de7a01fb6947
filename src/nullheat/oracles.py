"""Independent verification routes for the closed-form machinery.

Each oracle here deliberately avoids the code path it checks: dense midpoint
rules against tensor Gauss-Legendre projections, Crank-Nicolson stepping
against eigendecomposition propagation, and brute-force time quadrature
against the closed-form Gramian.  None computes an eigendecomposition:
Crank-Nicolson powers its step matrix by repeated squaring.  They are
slower and cruder by design.  A midpoint oracle evaluates only the lower
half of its n_points^2 kernel table, which a symmetric kernel determines:
one block of _ROW_BLOCK rows at a time, against the columns up to the
block's last row.  It reads both the Galerkin matrix and the kernel norm
from each block, counting the part left of the diagonal for its mirror image
too, so no n_points^2 table is ever held.  The block buffer is allocated
once per call and KernelSpec.evaluate writes every block of rows into it
(out=), so no block-sized array is allocated, faulted in and freed again
per block.  The time quadrature's Gauss-Legendre rule comes from basis, like
every other, and is applied as one product over its nodes.
"""

import numpy as np
import scipy.linalg as sla

from .basis import _gauss_legendre, _validate_int, _validate_time
from .kernels import KernelMatrix

_ROW_BLOCK = 64  # kernel rows per evaluation: 2 MB at 4096 points, one L2 cache


def _midpoint_sums(spec, basis, n_points, op, norm=True):
    # the Galerkin matrix (psi h) k (psi h)^T and h^2 sum k^2 from the lower
    # half of the kernel table: row block I = [i, j) of _ROW_BLOCK rows is
    # evaluated against the columns [0, j) only.  k is symmetric (check_basis
    # refuses what project_kernel refuses) and evaluate is swap-invariant bit
    # for bit, so K[I, :i] stands for its mirror K[:i, I] too: the matrix is
    # S + S^T + D with S = sum psi_I (K[I, :i] psi_{:i}^T) and D = sum psi_I
    # (K[I, I] psi_I^T), and the norm h^2 (2 sum K[I, :i]^2 + sum K[I, I]^2),
    # squared in place (skipped, and 0.0, when norm is False): n (n +
    # _ROW_BLOCK) / 2 kernel values, not n^2, and about half the product
    # flops.  A grid table accepted with a defect under DEFAULT_SYMMETRY_TOL
    # is read from its lower half.  On the bundled kernels and the
    # separable-exact certificate's, at 300 to 2048 points and 8 to 32 modes,
    # every entry is within 0.93 eps |psi h| |k| |psi h|^T of the long-double
    # product of the whole table, and the norm within 0.83 eps relative
    n_points = _validate_int(n_points, op, "n_points", 1)
    spec.check_basis(basis)
    ell = basis.domain.length
    h = ell / n_points
    x = (np.arange(n_points) + 0.5) * h
    m = np.arange(1, basis.n_modes + 1)
    psi_t = np.sqrt(2.0 / ell) * np.sin(np.outer(x, m) * np.pi / ell) * h  # (psi h)^T
    # flat, so that each block is a contiguous (j - i) x j view of it: with
    # strided slices of a (_ROW_BLOCK, n_points) array the certificates'
    # three oracle calls take about 30 % longer
    buf = np.empty(min(_ROW_BLOCK, n_points) * n_points)
    S, D = np.zeros((2, basis.n_modes, basis.n_modes))
    off = diag = 0.0
    for i in range(0, n_points, _ROW_BLOCK):
        j = min(i + _ROW_BLOCK, n_points)  # the last block is short unless _ROW_BLOCK divides n_points
        block = spec.evaluate(x[i:j, None], x[None, :j], ell, out=buf[:(j - i) * j].reshape(j - i, j))
        S += psi_t[i:j].T @ (block[:, :i] @ psi_t[:i])
        D += psi_t[i:j].T @ (block[:, i:] @ psi_t[i:j])
        if norm:
            np.square(block, out=block)
            off += np.sum(block[:, :i])
            diag += np.sum(block[:, i:])
    return S + S.T + D, (2.0 * off + diag) * h * h


def midpoint_projection(spec, basis, n_points=512):
    """Galerkin matrix and kernel L^2 norm by a dense 2-d midpoint rule.

    The kernel is evaluated _ROW_BLOCK rows at a time, each block against
    the columns up to its own last row, into one reused buffer: the lower
    half of the n_points^2 table, which a symmetric kernel determines.  Each
    block adds its rows' share of (psi h) k (psi h)^T and, squared in place,
    of h^2 sum k^2, the part left of its diagonal block counted twice.  The
    matrix is (psi h) k (psi h)^T and the norm sqrt(h^2 sum k^2), to
    rounding, with no n_points^2 table: memory is one block, the kernel's
    own per-block scratch and an n_points x n_modes array.  A kernel that
    project_kernel refuses (spec.check_basis) is refused with the same
    ArgumentError before any block is evaluated.
    """
    matrix, sq = _midpoint_sums(spec, basis, n_points, "midpoint_projection")
    return KernelMatrix(n_modes=basis.n_modes, matrix=matrix, hs_of_k=float(np.sqrt(sq)))


def midpoint_project_kernel(spec, basis, n_points=512):
    """midpoint_projection(spec, basis, n_points).matrix, without the norm."""
    return _midpoint_sums(spec, basis, n_points, "midpoint_project_kernel", norm=False)[0]


def midpoint_hs_norm(spec, basis, n_points=512):
    """midpoint_projection(spec, basis, n_points).hs_of_k."""
    return float(np.sqrt(_midpoint_sums(spec, basis, n_points, "midpoint_hs_norm")[1]))


def crank_nicolson_propagate(lmat, u0, t, steps=10_000):
    """Integrate u' = L u by Crank-Nicolson: (I - dt/2 L) u_{k+1} = (I + dt/2 L) u_k.

    The step matrix is S = I + D with D = (I - dt/2 L)^{-1} dt L, formed by
    one LU solve.  S^steps u0 is applied by binary powering on D,
    (I + D)^2 = I + (2 D + D D), so a step's O(dt) increment is never added
    to I and rounded away: about log2(steps) matrix squarings in place of
    steps triangular solves.
    """
    t = _validate_time(t, "crank_nicolson_propagate", "t", allow_zero=True)
    steps = _validate_int(steps, "crank_nicolson_propagate", "steps", 1)
    lmat = np.asarray(lmat, dtype=float)
    n = lmat.shape[0]
    dt = t / steps
    d = sla.lu_solve(sla.lu_factor(np.eye(n) - 0.5 * dt * lmat), dt * lmat)
    u = np.asarray(u0, dtype=float).copy()
    while True:
        if steps & 1:
            u += d @ u
        steps >>= 1
        if not steps:
            return u
        d = 2.0 * d + d @ d


def gramian_time_quadrature(dec, m_omega, T, n_nodes=2000):
    """int_0^T e^{Lt} M e^{Lt} dt by a single-panel Gauss-Legendre rule.

    In eigencoordinates, with W = Q^T M Q and E[k, a] = e^{mu_a t_k} at the
    nodes t_k and weights w_k, the rule is W o (E^T diag(w) E): one product
    over the nodes in place of a sum of n_nodes rank-one updates.
    """
    T = _validate_time(T, "gramian_time_quadrature")
    n_nodes = _validate_int(n_nodes, "gramian_time_quadrature", "n_nodes", 1)
    nodes, weights = _gauss_legendre(n_nodes)
    ts = 0.5 * T * (nodes + 1.0)
    ws = 0.5 * T * weights
    W = dec.modes.T @ np.asarray(m_omega, float) @ dec.modes
    E = np.exp(np.outer(ts, dec.mus))
    G = dec.modes @ (W * ((E * ws[:, None]).T @ E)) @ dec.modes.T
    return (G + G.T) / 2


def _row_forms(V, G):
    # v G v^T for each row v of V: one gemm, then a row-wise dot; a
    # three-operand einsum takes an unblocked O(d n^2) loop instead
    return np.einsum("ij,ij->i", V @ G, V)


def sampled_min_quotient(dec, m_omega, t, n_draws, rng):
    """min over random unit v of ||e^{Lt} v||_omega / ||v||_omega.

    Upper-bounds the left-inverse constant; approaches it only when the
    generalized spectrum is not too spread (random search cannot cross
    exponentially large eigenvalue gaps).
    """
    et = dec.semigroup(t)
    V = rng.standard_normal((n_draws, dec.n_modes))
    EV = V @ et.T
    num = _row_forms(EV, m_omega)
    den = _row_forms(V, m_omega)
    return float(np.sqrt(np.min(num / den)))


def sampled_max_cost_quotient(dec, m_omega, gramian, T, n_draws, rng):
    """max over random phi0 of ||e^{LT} phi0||^2 / (phi0^T G_T phi0).

    Lower-bounds kappa_T, with the same caveat as sampled_min_quotient.
    """
    elt = dec.semigroup(T)
    V = rng.standard_normal((n_draws, dec.n_modes))
    num = np.sum((V @ elt.T) ** 2, axis=1)
    den = _row_forms(V, gramian)
    return float(np.max(num / den))


def sampled_min_packet_quotient(basis, m_block, n_draws, rng):
    """min over random unit c of ||sum c_j psi_j||^2_omega / ||c||^2."""
    V = rng.standard_normal((n_draws, m_block.shape[0]))
    num = _row_forms(V, m_block)
    den = np.einsum("ij,ij->i", V, V)
    return float(np.min(num / den))
