"""Independent verification routes for the closed-form machinery.

Each oracle here deliberately avoids the code path it checks: dense midpoint
rules against tensor Gauss-Legendre projections, Crank-Nicolson stepping
against eigendecomposition propagation, and brute-force time quadrature
against the closed-form Gramian.  They are slower and cruder by design.
"""

import numpy as np
import scipy.linalg as sla
from numpy.polynomial.legendre import legder, legval
from scipy.linalg.lapack import dgetrs

from .errors import ArgumentError, NumericError


def midpoint_project_kernel(spec, basis, n_points=512):
    """Galerkin matrix by a dense 2-d midpoint rule with n_points^2 cells."""
    ell = basis.domain.length
    h = ell / n_points
    x = (np.arange(n_points) + 0.5) * h
    vals = spec.evaluate(x[:, None], x[None, :], ell)
    m = np.arange(1, basis.n_modes + 1)
    psi = np.sqrt(2.0 / ell) * np.sin(np.outer(m, x) * np.pi / ell)
    return (psi * h) @ vals @ (psi * h).T


def midpoint_hs_norm(spec, basis, n_points=512):
    """Kernel L^2 norm by the same dense midpoint rule."""
    ell = basis.domain.length
    h = ell / n_points
    x = (np.arange(n_points) + 0.5) * h
    vals = spec.evaluate(x[:, None], x[None, :], ell)
    return float(np.sqrt(np.sum(vals ** 2) * h * h))


def crank_nicolson_propagate(lmat, u0, t, steps=10_000):
    """Integrate u' = L u by Crank-Nicolson: (I - dt/2 L) u_{k+1} = (I + dt/2 L) u_k.

    One LU factorisation of I - dt/2 L, then one LAPACK getrs per step on
    that factor (the same solve scipy.linalg.lu_solve makes, without its
    per-call checks).
    """
    if t < 0:
        raise ArgumentError("crank_nicolson_propagate: t must be >= 0")
    lmat = np.asarray(lmat, dtype=float)
    n = lmat.shape[0]
    dt = t / steps
    lu, piv = sla.lu_factor(np.eye(n) - 0.5 * dt * lmat)
    b_half = np.eye(n) + 0.5 * dt * lmat
    u = np.asarray(u0, dtype=float).copy()
    for _ in range(steps):
        u, info = dgetrs(lu, piv, b_half @ u, overwrite_b=1)
        if info != 0:
            raise NumericError(f"crank_nicolson_propagate: getrs returned info={info}")
    return u


def _leggauss(deg):
    """numpy's leggauss bit for bit in O(deg^2): the companion matrix of L_deg
    is tridiagonal with a zero diagonal, so LAPACK sterf replaces the dense
    eigvalsh; the Newton step, weights and symmetrisation are numpy's."""
    c = np.array([0] * deg + [1])
    scl = 1. / np.sqrt(2 * np.arange(deg) + 1)
    x = sla.eigvalsh_tridiagonal(np.zeros(deg), np.arange(1, deg) * scl[:-1] * scl[1:],
                                 lapack_driver="sterf")
    df = legval(x, legder(c))
    x -= legval(x, c) / df
    fm = legval(x, c[1:])
    w = 1 / (fm / np.abs(fm).max() * (df / np.abs(df).max()))
    w = (w + w[::-1]) / 2
    return (x - x[::-1]) / 2, w * (2. / w.sum())


def gramian_time_quadrature(dec, m_omega, T, n_nodes=2000):
    """int_0^T e^{Lt} M e^{Lt} dt by a single-panel Gauss-Legendre rule."""
    nodes, weights = _leggauss(n_nodes)
    ts = 0.5 * T * (nodes + 1.0)
    ws = 0.5 * T * weights
    W = dec.modes.T @ np.asarray(m_omega, float) @ dec.modes
    n = dec.n_modes
    G = np.zeros((n, n))
    for t, w in zip(ts, ws):
        e = np.exp(dec.mus * t)
        G += w * (e[:, None] * W * e[None, :])
    G = dec.modes @ G @ dec.modes.T
    return (G + G.T) / 2


def sampled_min_quotient(dec, m_omega, t, n_draws, rng):
    """min over random unit v of ||e^{Lt} v||_omega / ||v||_omega.

    Upper-bounds the left-inverse constant; approaches it only when the
    generalized spectrum is not too spread (random search cannot cross
    exponentially large eigenvalue gaps).
    """
    et = dec.semigroup(t)
    V = rng.standard_normal((n_draws, dec.n_modes))
    EV = V @ et.T
    num = np.einsum("ij,jk,ik->i", EV, m_omega, EV)
    den = np.einsum("ij,jk,ik->i", V, m_omega, V)
    return float(np.sqrt(np.min(num / den)))


def sampled_max_cost_quotient(dec, m_omega, gramian, T, n_draws, rng):
    """max over random phi0 of ||e^{LT} phi0||^2 / (phi0^T G_T phi0).

    Lower-bounds kappa_T, with the same caveat as sampled_min_quotient.
    """
    elt = dec.semigroup(T)
    V = rng.standard_normal((n_draws, dec.n_modes))
    num = np.sum((V @ elt.T) ** 2, axis=1)
    den = np.einsum("ij,jk,ik->i", V, gramian, V)
    return float(np.max(num / den))


def sampled_min_packet_quotient(basis, m_block, n_draws, rng):
    """min over random unit c of ||sum c_j psi_j||^2_omega / ||c||^2."""
    V = rng.standard_normal((n_draws, m_block.shape[0]))
    num = np.einsum("ij,jk,ik->i", V, m_block, V)
    den = np.einsum("ij,ij->i", V, V)
    return float(np.min(num / den))
