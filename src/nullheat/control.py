"""Null-control synthesis: one-shot minimum-energy control and staged control.

The one-shot route solves the Gramian equation

    (G_T + eps I) p = -e^{LT} u0,

after which the control at time s has spectral coefficients e^{L(T-s)} p
(the physical control is its omega-restriction) and the terminal state is
available in closed form, u(T) = e^{LT} u0 + G_T p -- no time stepping.
With eps = 0 and G_T invertible this is the exact minimum-norm null control
and its cost p^T G_T p saturates the duality with kappa_T.  eps > 0 is the
penalty of penalized HUM (tolerances.ridge), taken as stated; at eps = 0 a
Gramian that float64 Cholesky cannot factorize is refused with
IllConditionedError, never regularized behind the caller's back.

The staged route splits [0, T] dyadically: stage k occupies a slot of
length T 2^{-(k+1)} whose first half runs a low-mode null control at cutoff
r_k = r0 4^k (so sqrt(r_k) doubles per stage, matching the exp(C sqrt(r))
constant growth against exp(-r tau) free decay), and whose second half is
free decay that crushes what the active half excited.  Stage controls are
designed on the full coupled truncation with a low-mode terminal constraint,
because the integral coupling does not block-diagonalize.  Both routes
solve through _solve_gramian, the one Gramian solve: a non-finite Gramian
is a NumericError, and one that Cholesky cannot factor an
IllConditionedError naming HUM's ridge or the staged route's stage.

simulate_controlled is the independent audit: it integrates the controlled
equation by exponential stepping with per-step source quadrature from the
*sampled* control, never touching the closed-form terminal identity.  Its
step recurrence runs by recursive doubling over the control intervals, and
it reports the state at the control samples only.  It interpolates the
samples linearly, so it audits a control that is continuous between them,
as the one-shot control is; a staged control jumps to 0 at each stage's
t_mid, which the interpolation smears over a whole sample interval, so the
simulator does not audit it.  Both time rules here, its own and
control_cost's, are Gauss-Legendre rules of basis.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .basis import (MAX_MODES, _gauss_legendre, _graded_time_nodes, _validate_int,
                    _validate_state, _validate_time)
from .errors import ArgumentError, IllConditionedError, NumericError
from .evolution import propagate
from .observability import _count_modes, _EigenGramian, _phi


@dataclass(frozen=True, eq=False)
class StageLog:
    k: int
    r_k: float
    n_low: int
    t_start: float
    t_mid: float
    t_end: float
    residual_after_active: float
    residual_after_passive: float
    lowmode_after_active: float
    cost_sq: float


@dataclass(frozen=True, eq=False)
class ControlResult:
    T: float
    nt: int
    multiplier: object = field(repr=False)     # N-vector (one-shot) or per-stage list
    control_coeffs: np.ndarray = field(repr=False)  # nt x N, rows at linspace(0, T, nt)
    cost_sq: float
    terminal_residual: float
    stage_log: list = field(default_factory=list)
    ridge_used: float = 0.0


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """simulate_controlled's states at the nt control samples, times =
    linspace(0, T, nt), and the norm of the last of them."""

    times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)  # nt x N sine coefficients, row s at times[s]
    terminal_norm: float


def _solve_gramian(G, rhs, ridge, op):
    """Cholesky solve of (G + ridge I) x = rhs; ridge = 0, or None where no
    penalty can be set (the staged blocks), factorizes G itself.  A Gramian
    that does not factorize is refused, never regularized here."""
    if not np.all(np.isfinite(G)):
        raise NumericError(f"{op}: Gramian contains non-finite entries")
    if ridge is not None and not 0 <= ridge < np.inf:
        raise ArgumentError(f"{op}: ridge must be >= 0 and finite, got {ridge}")
    A = G + ridge * np.eye(G.shape[0]) if ridge else G
    try:
        return sla.cho_solve(sla.cho_factor(A), rhs)
    except np.linalg.LinAlgError as exc:
        advice = "" if ridge is None else (
            f" at ridge {ridge:g}; set tolerances.ridge > {ridge:g}")
        raise IllConditionedError(f"{op}: Gramian not factorizable{advice}",
                                  eigenvalue=float(np.linalg.eigvalsh(A)[0])) from exc


def hum_control(dec, m_omega, u0, T, nt=64, ridge=0.0):
    """Minimum-energy control steering u0 to zero at time T.

    Returns the multiplier p, the control sampled on a uniform nt-grid in
    spectral coefficients, the exact cost p^T G_T p, and the closed-form
    terminal residual ||u(T)|| / ||u0||; p solves (G_T + ridge I) p = -e^{LT} u0
    and ridge_used reports that ridge.  The whole computation runs in the
    eigenbasis of the generator so that the decayed high-mode data stays
    elementwise tiny instead of being drowned by norm-level roundoff.
    """
    T = _validate_time(T, "hum_control")
    nt = _validate_int(nt, "hum_control", "nt", 16)
    gram = _EigenGramian.of(dec, m_omega, "hum_control")
    u0 = _validate_state(u0, dec.n_modes, "hum_control")
    G = gram.gramian(T)
    u0_e = dec.modes.T @ u0
    with np.errstate(over="ignore", invalid="ignore"):  # where e^{mu T} overflows, so does G
        decay = np.exp(dec.mus * T)
        rhs = -(decay * u0_e)
    p_e = _solve_gramian(G, rhs, ridge, "hum_control")
    terminal_e = decay * u0_e + G @ p_e
    u0_norm = float(np.linalg.norm(u0))
    residual = float(np.linalg.norm(terminal_e)) / u0_norm if u0_norm > 0 else 0.0
    cost_sq = float(p_e @ G @ p_e)
    ts = np.linspace(0.0, T, nt)
    profile = np.exp(np.outer(T - ts, dec.mus)) * p_e   # nt x N, eigencoords
    coeffs = profile @ dec.modes.T                      # back to sine coordinates
    return ControlResult(T=float(T), nt=nt, multiplier=dec.modes @ p_e,
                         control_coeffs=coeffs, cost_sq=cost_sq,
                         terminal_residual=residual, ridge_used=float(ridge))


def controlled_state_norms(dec, m_omega, u0, result):
    """||u(t)|| / ||u0|| at the nt sample times of a hum_control result, in closed
    form: u(t) = e^{Lt} u0 + [W o D(t)] p in eigencoordinates, with W = Q^T M_omega Q,
    p the multiplier and D(t)[a, b] = e^{mu_b (T - t)} phi(mu_a + mu_b, t)."""
    W = _EigenGramian.of(dec, m_omega, "controlled_state_norms").W
    u0 = _validate_state(u0, dec.n_modes, "controlled_state_norms")
    p = np.asarray(result.multiplier, dtype=float)   # a staged list stacks to 2-D
    if p.shape != (dec.n_modes,):
        raise ArgumentError(
            f"controlled_state_norms: multiplier has shape {p.shape}, expected the "
            f"one-shot ({dec.n_modes},) vector")
    T = result.T
    p_e = dec.modes.T @ p
    u0_e = dec.modes.T @ u0
    mus = dec.mus
    u0_norm = max(float(np.linalg.norm(u0)), 1e-300)
    norms = []
    for t in np.linspace(0.0, T, result.nt):
        drive = W * (np.exp(mus[None, :] * (T - t))
                     * _phi(mus[:, None] + mus[None, :], t))
        ut = np.exp(mus * t) * u0_e + drive @ p_e
        norms.append(float(np.linalg.norm(ut)) / u0_norm)
    return norms


def _decayed_prefix_sums(rows, mus, step):
    """rows[:, s] <- sum_{k <= s} e^{mu step (s - k)} rows[:, k], in place, by
    recursive doubling: after the pass at shift k, column s holds its own term
    plus the 2k - 1 before it, decayed.  About log2(columns) array passes.  On
    an unstable coupling (mu > 0) its roundoff stays near eps of the largest
    row; a sequential recurrence's grows about a hundredfold there."""
    shift = 1
    while shift < rows.shape[1]:
        rows[:, shift:] += np.exp(mus * (step * shift))[:, None] * rows[:, :-shift]
        shift *= 2
    return rows


def simulate_controlled(dec, m_omega, u0, control_coeffs, T, nt_fine):
    """Integrate u' = L u + M_omega f(t) from the sampled control.

    Exact exponential stepping on a uniform nt_fine grid with order-4
    Gauss-Legendre source quadrature inside each step; the control between
    its nt samples is linearly interpolated, so the audit holds for a
    control that is continuous between samples (hum_control's), not for a
    staged one, which jumps to 0 at each t_mid.  nt_fine - 1 must be a
    multiple of nt - 1 so the fine grid refines the sample grid.  The step
    recurrence u_{s+1} = e^{L dt} u_s + b_s is diagonal in eigencoordinates,
    and every control interval repeats the same r fine steps, so the states
    at the nt control times follow one r-step recurrence, evaluated by
    recursive doubling (about log2(nt) passes over nt x N): the same scheme,
    with no per-step loop, in O((nt + r) N) memory.  Returns the states at
    the nt control times, not at the fine steps.  Independent of the
    closed-form terminal state used by the synthesis routines.
    """
    T = _validate_time(T, "simulate_controlled")
    nt_fine = _validate_int(nt_fine, "simulate_controlled", "nt_fine")
    W = _EigenGramian.of(dec, m_omega, "simulate_controlled").W
    coeffs = np.asarray(control_coeffs, dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[1] != dec.n_modes:
        raise ArgumentError(
            f"simulate_controlled: control array {coeffs.shape} does not match "
            f"{dec.n_modes} modes")
    if not np.all(np.isfinite(coeffs)):
        raise ArgumentError("simulate_controlled: control samples must be finite")
    u0 = _validate_state(u0, dec.n_modes, "simulate_controlled")
    nt = coeffs.shape[0]
    if nt < 2 or nt_fine < 2 or (nt_fine - 1) % (nt - 1) != 0:
        raise ArgumentError(
            f"simulate_controlled: fine grid with {nt_fine} points does not refine "
            f"the {nt}-point control grid")
    mus = dec.mus
    Q = dec.modes
    g = W @ (Q.T @ coeffs.T)              # source samples W f in eigencoords, N x nt
    dt = T / (nt_fine - 1)
    r = (nt_fine - 1) // (nt - 1)         # fine steps per control interval
    g_nodes, g_weights = _gauss_legendre(4)
    tau = (g_nodes + 1.0) * dt / 2.0      # offsets inside a step
    wq = g_weights * dt / 2.0
    # every control interval puts the 4r quadrature nodes at the same fractions
    # phi of itself, so step j of interval i adds A_j o g_i + B_j o g_{i+1};
    # a_sum is A_0 + ... + A_{r-1}, each decayed to the interval's end
    phi = (np.arange(r)[:, None] + (g_nodes + 1.0) / 2.0) / r   # r x 4
    e_node = wq[:, None] * np.exp(np.outer(dt - tau, mus))  # 4 x N
    a_sum = _decayed_prefix_sums(e_node.T @ (1.0 - phi).T, mus, dt)[:, -1]
    b_sum = _decayed_prefix_sums(e_node.T @ phi.T, mus, dt)[:, -1]
    # U_{i+1} = e^{L dt r} U_i + a_sum o g_i + b_sum o g_{i+1}
    coarse = np.empty((mus.size, nt))
    coarse[:, 0] = Q.T @ u0
    coarse[:, 1:] = a_sum[:, None] * g[:, :-1] + b_sum[:, None] * g[:, 1:]
    _decayed_prefix_sums(coarse, mus, dt * r)
    return SimulationResult(times=np.linspace(0.0, T, nt), states=(Q @ coarse).T,
                            terminal_norm=float(np.linalg.norm(coarse[:, -1])))


def lr_staged_control(domain, kernel, u0, T, stages, r0, n_modes=None, margin=8, nt=257):
    """Staged low-frequency null control with dyadic free-decay phases.

    Stage k = 0..stages-1 occupies [T(1 - 2^{-k}), T(1 - 2^{-(k+1)})]; in the
    first half a least-norm control annihilates the projection of the state
    onto modes with lambda_j <= r_k = r0 4^k (solved through the low-mode
    block of the stage Gramian on the full coupled truncation), and the
    second half is free decay.  The slot lengths sum to T(1 - 2^{-stages});
    the remainder up to T is additional free decay, and the reported final
    residual is taken at t = T exactly.
    """
    stages = _validate_int(stages, "lr_staged_control", "stages", 2)
    nt = _validate_int(nt, "lr_staged_control", "nt", 2)
    margin = _validate_int(margin, "lr_staged_control", "margin", 0)
    T = _validate_time(T, "lr_staged_control")
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    u0 = _validate_state(u0, u0.size, "lr_staged_control")  # any length: padded below
    if _count_modes(domain, r0, "lr_staged_control", "r0") < 1:
        raise ArgumentError(f"lr_staged_control: r0 = {r0:g} is below the first "
                            f"eigenvalue {(np.pi / domain.length) ** 2:g}")
    try:
        r_last = math.ldexp(r0, 2 * (stages - 1))  # r0 4^(stages - 1), exactly
    except OverflowError:  # past float64: refused by the mode count
        r_last = math.inf
    n = _count_modes(domain, r_last, "lr_staged_control", "the last cutoff r0 4^(stages - 1)")
    n, name = ((n_modes, "n_modes") if n_modes is not None else
               (max(n + margin, u0.size), f"N for the last cutoff r0 4^(stages - 1) = {r_last:g}"))
    n = _validate_int(n, "lr_staged_control", name, maximum=MAX_MODES)  # before any model
    if n < u0.size:
        raise ArgumentError(
            f"lr_staged_control: truncation {n} cannot hold a {u0.size}-mode state")
    gram = _EigenGramian.build(domain, kernel, n)  # one W for every stage's Gramian
    dec = gram.dec
    state = np.zeros(n)
    state[: u0.size] = u0
    u0_norm = float(np.linalg.norm(state))
    Q, mus = dec.modes, dec.mus
    ts = np.linspace(0.0, T, nt)
    coeffs = np.zeros((nt, n))
    log = []
    multipliers = []
    total_cost = 0.0
    t_cursor = 0.0
    u = state.copy()
    for k in range(stages):
        r_k = r0 * 4.0 ** k
        n_low = min(n, _count_modes(domain, r_k, "lr_staged_control"))
        slot = T * 2.0 ** (-(k + 1))
        tau = slot / 2.0
        t_mid = t_cursor + tau
        t_end = t_cursor + slot
        with np.errstate(over="ignore", invalid="ignore"):  # where b overflows, so does G
            G = Q @ gram.gramian(tau) @ Q.T
            b = Q @ (np.exp(mus * tau) * (Q.T @ u))  # propagate's product, refused with G
        p = np.zeros(n)
        p[:n_low] = _solve_gramian(G[:n_low, :n_low], -b[:n_low], None,
                                   f"lr_staged_control: stage {k} low-mode block")
        multipliers.append(p)
        cost_k = float(p @ G @ p)
        total_cost += cost_k
        u_active = b + G @ p
        # sample the stage control on the global grid (right-continuous:
        # the instant t_mid already belongs to the passive half)
        in_active = (ts >= t_cursor - 1e-15) & (ts < t_mid - 1e-15)
        if np.any(in_active):
            local = ts[in_active] - t_cursor
            p_e = Q.T @ p
            coeffs[in_active] = (np.exp(np.outer(tau - local, mus)) * p_e) @ Q.T
        res_active = float(np.linalg.norm(u_active))
        low_after = float(np.linalg.norm(u_active[:n_low]))
        u = propagate(dec, u_active, slot - tau)
        res_passive = float(np.linalg.norm(u))
        log.append(StageLog(k=k, r_k=r_k, n_low=n_low, t_start=t_cursor,
                            t_mid=t_mid, t_end=t_end,
                            residual_after_active=res_active,
                            residual_after_passive=res_passive,
                            lowmode_after_active=low_after, cost_sq=cost_k))
        t_cursor = t_end
    if T - t_cursor > 0:
        u = propagate(dec, u, T - t_cursor)
    final_residual = float(np.linalg.norm(u)) / u0_norm if u0_norm > 0 else 0.0
    return ControlResult(T=float(T), nt=nt, multiplier=multipliers,
                         control_coeffs=coeffs, cost_sq=total_cost,
                         terminal_residual=final_residual, stage_log=log)


def control_cost(result, m_omega, dec):
    """Recompute ||f||^2_{L2(0,T;omega)} by time quadrature of the profile.

    For the one-shot control this integrates (e^{L(T-s)} p)^T M_omega
    (e^{L(T-s)} p); for staged results it integrates stage by stage.  The
    value must match result.cost_sq to quadrature accuracy when no ridge
    was applied.
    """
    W = _EigenGramian.of(dec, m_omega, "control_cost").W
    mus = dec.mus
    rate = float(mus[0] - 2.0 * mus[-1])

    def profile_energy(p, horizon):
        p_e = dec.modes.T @ p
        taus, ws = _graded_time_nodes(horizon, rate)
        vals = np.exp(np.outer(taus, mus)) * p_e   # e^{L tau} p over quadrature nodes
        return float(np.sum(ws * np.einsum("ij,jk,ik->i", vals, W, vals)))

    if result.stage_log:
        total = 0.0
        for p, stage in zip(result.multiplier, result.stage_log):
            total += profile_energy(p, stage.t_mid - stage.t_start)
        return total
    return profile_energy(np.asarray(result.multiplier, dtype=float), result.T)
