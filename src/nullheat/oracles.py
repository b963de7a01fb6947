"""Independent verification routes for the closed-form machinery.

Each oracle here deliberately avoids the code path it checks: dense midpoint
rules against tensor Gauss-Legendre projections, Crank-Nicolson stepping
against eigendecomposition propagation, and brute-force time quadrature
against the closed-form Gramian.  None computes an eigendecomposition:
Crank-Nicolson powers its step matrix by repeated squaring.  They are
slower and cruder by design.  A midpoint oracle streams its n_points^2
kernel values through one block of _ROW_BLOCK rows and reads both the
Galerkin matrix and the kernel norm from each block, so no n_points^2 table
is ever held.  The block is allocated once per call and KernelSpec.evaluate
writes every block of rows into it (out=), so no block-sized array is
allocated, faulted in and freed again per block.  The time quadrature's
Gauss-Legendre rule comes from basis, like every other, and is applied as
one product over its nodes.
"""

import numpy as np
import scipy.linalg as sla

from .basis import _gauss_legendre, _validate_int, _validate_time
from .kernels import KernelMatrix

_ROW_BLOCK = 64  # kernel rows per evaluation: 2 MB at 4096 points, one L2 cache


def _midpoint_sums(spec, basis, n_points, norm=True):
    # the Galerkin matrix (psi h) Y with Y = k (psi h)^T gathered one block
    # of _ROW_BLOCK kernel rows at a time, and h^2 sum k^2 from the same
    # blocks, squared in place (skipped, and 0.0, when norm is False).
    # Y is column-major: BLAS then forms (psi h) Y from contiguous columns,
    # within 1.2 eps |psi h| |k| |psi h|^T of the exact sums on the bundled
    # kernels, as the whole-table product is; a row-major Y loses up to 7 eps
    n_points = _validate_int(n_points, "midpoint_projection", "n_points", 1)
    ell = basis.domain.length
    h = ell / n_points
    x = (np.arange(n_points) + 0.5) * h
    m = np.arange(1, basis.n_modes + 1)
    psi_h = np.sqrt(2.0 / ell) * np.sin(np.outer(m, x) * np.pi / ell) * h
    Y = np.empty((n_points, basis.n_modes), order="F")
    buf = np.empty((min(_ROW_BLOCK, n_points), n_points))
    sq = 0.0
    for i in range(0, n_points, _ROW_BLOCK):
        rows = x[i:i + _ROW_BLOCK]  # the last block is short unless _ROW_BLOCK divides n_points
        block = spec.evaluate(rows[:, None], x[None, :], ell, out=buf[:rows.size])
        np.matmul(block, psi_h.T, out=Y[i:i + _ROW_BLOCK])
        if norm:
            np.square(block, out=block)
            sq += np.sum(block)
    return psi_h @ Y, sq * h * h


def midpoint_projection(spec, basis, n_points=512):
    """Galerkin matrix and kernel L^2 norm by a dense 2-d midpoint rule.

    The kernel is evaluated _ROW_BLOCK rows at a time into one reused block;
    each block adds its rows of k (psi h)^T and, squared in place, its share
    of h^2 sum k^2.  The matrix is (psi h) k (psi h)^T and the norm
    sqrt(h^2 sum k^2), to rounding, with no n_points^2 table: memory is one
    block, the kernel's own per-block scratch and an n_points x n_modes
    array.
    """
    matrix, sq = _midpoint_sums(spec, basis, n_points)
    return KernelMatrix(n_modes=basis.n_modes, matrix=matrix, hs_of_k=float(np.sqrt(sq)))


def midpoint_project_kernel(spec, basis, n_points=512):
    """midpoint_projection(spec, basis, n_points).matrix, without the norm."""
    return _midpoint_sums(spec, basis, n_points, norm=False)[0]


def midpoint_hs_norm(spec, basis, n_points=512):
    """midpoint_projection(spec, basis, n_points).hs_of_k."""
    return midpoint_projection(spec, basis, n_points).hs_of_k


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
