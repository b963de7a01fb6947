"""Output checks of the benchmark.

Each checker compares a result against an independent computation or a
property the method must have, and raises `CheckFailed` naming the first
violation.  None of them compares against stored copies of earlier output.
"""

import os

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def kappa_ladder_monotone(kappa_by_n, n, kappas):
    """For K = 0 the N-mode system is a subsystem of the (N+1)-mode one, so
    kappa_T at N may not fall below kappa_T at any smaller N (per horizon).

    kappa_by_n maps an earlier N to its {T: kappa}; kappas is {T: kappa} at n.
    """
    for m, earlier in kappa_by_n.items():
        if m >= n:
            continue
        for T, kappa in kappas.items():
            if T in earlier:
                require(kappa >= earlier[T] * (1 - 1e-9),
                        f"kappa_T at N={n} is {kappa:.6e} < {earlier[T]:.6e} at N={m} (T={T:g})")


def kappa_rises_as_T_falls(Ts, kappas):
    pairs = sorted(zip(Ts, kappas), key=lambda p: -p[0])
    for (T1, k1), (T2, k2) in zip(pairs, pairs[1:]):
        require(k2 > k1, f"kappa_T does not rise as T falls: {k1:.6e} at T={T1:g}, "
                         f"{k2:.6e} at T={T2:g}")


def kappa_above_sampled(kappa, sampled, T):
    require(kappa >= sampled * (1 - 1e-9),
            f"kappa_T {kappa:.6e} below the sampled lower bound {sampled:.6e} at T={T:g}")


def exponent_in_range(alpha, lo=0.3, hi=1.2):
    require(lo < alpha < hi, f"fitted blow-up exponent {alpha:.4f} outside ({lo}, {hi})")


def control_audit(terminal_residual, simulated_norm, cost_sq, quadrature_cost,
                  kappa, u0_norm_sq, ridge_used):
    """Closed-form control against the simulator, the cost quadrature and kappa_T.

    simulated_norm is the simulator's terminal norm divided by ||u0||.
    """
    require(ridge_used == 0.0, f"hum_control used a ridge of {ridge_used:.3e}")
    require(terminal_residual <= 1e-6, f"closed-form terminal residual {terminal_residual:.3e} > 1e-6")
    require(abs(simulated_norm - terminal_residual) <= 1e-5,
            f"simulated terminal norm {simulated_norm:.3e} differs from the closed form "
            f"{terminal_residual:.3e} by more than 1e-5")
    rel = abs(quadrature_cost - cost_sq) / cost_sq
    require(rel <= 1e-6, f"control cost quadrature {quadrature_cost:.9e} differs from "
                         f"cost_sq {cost_sq:.9e} by {rel:.2e} relative")
    require(cost_sq <= kappa * u0_norm_sq * (1 + 1e-6),
            f"cost {cost_sq:.6e} exceeds kappa_T ||u0||^2 = {kappa * u0_norm_sq:.6e}")


def staged_log(stage_log, u0_norm):
    """Low modes vanish after each active half; each passive half lowers the residual."""
    previous = u0_norm
    for s in stage_log:
        require(s.lowmode_after_active <= 1e-8,
                f"stage {s.k}: low-mode residual {s.lowmode_after_active:.3e} > 1e-8")
        require(s.residual_after_passive < previous,
                f"stage {s.k}: residual {s.residual_after_passive:.3e} not below {previous:.3e}")
        previous = s.residual_after_passive


def same_csvs(dir_a, dir_b):
    """Every CSV of a run is byte-identical to the one its echo re-run wrote."""
    names = sorted(f for f in os.listdir(dir_a) if f.endswith(".csv"))
    require(names == sorted(f for f in os.listdir(dir_b) if f.endswith(".csv")),
            f"re-run wrote different files: {os.listdir(dir_a)} vs {os.listdir(dir_b)}")
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
            require(fa.read() == fb.read(), f"{name} differs on re-run from its config echo")


def read_csv(path):
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def certificate_rows(rows, registry):
    """certify.csv holds exactly the registry's checks, in order; returns the failing names."""
    names = [row["check"] for row in rows]
    require(names == list(registry), f"certify.csv lists {names}, expected the {len(registry)} "
                                     "registered checks")
    for row in rows:
        require(row["status"] in ("pass", "FAIL"), f"unknown status {row['status']!r}")
    return [row["check"] for row in rows if row["status"] != "pass"]


def relative_close(value, reference, tol, what):
    scale = max(abs(reference), 1e-300)
    require(abs(value - reference) <= tol * scale,
            f"{what}: {value!r} vs independent {reference!r} (tol {tol:g} relative)")


def matrix_close(mat, reference, tol, what):
    rel = float(np.linalg.norm(mat - reference) / max(np.linalg.norm(reference), 1e-300))
    require(rel <= tol, f"{what}: relative Frobenius defect {rel:.2e} > {tol:g}")
