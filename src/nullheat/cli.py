"""Command-line entry point: experiments in, deterministic CSV out.

Verbs map one-to-one onto library operations; every run echoes its fully
resolved configuration into the output directory so results reproduce from
the echo alone.  Exit codes: 0 success, 1 usage/argument/config/format errors,
2 numeric or conditioning errors.  Floats are written with repr (shortest
round-trip), so identical configurations produce byte-identical files; a
comma in a text field is written as ';'.
"""

import argparse
import os
import sys

import numpy as np

from . import certify
from .basis import build_basis
from .config import format_config, parse_config
from .control import controlled_state_norms, hum_control, lr_staged_control
from .errors import ArgumentError, ConfigError, KernelFormatError, NumericError
from .evolution import left_inverse_constants, propagate
from .observability import (build_model, cost_sweep, observability_cost,
                            observability_gramian, spectral_obs_constant,
                            spectral_obs_constants)

VERBS = ("basis", "kernel-project", "evolve", "zeta", "obs-constant", "obs-sweep",
         "gramian", "cost", "cost-sweep", "control-hum", "control-lr", "certify-all")


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value).replace(",", ";")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _require(cfg, field, key, verb):
    value = getattr(cfg, field)
    if value is None or (isinstance(value, tuple) and not value):
        raise ConfigError(f"run_command[{verb}]: missing required key {key}")
    return value


def _default_r_list(cfg):
    if cfg.r_list:
        return list(cfg.r_list)
    ell = cfg.length
    top = min(24, cfg.n_modes)
    return [(((n + 0.5) * np.pi / ell) ** 2) for n in range(2, top + 1)]


def _u0_vector(cfg, n):
    u0 = np.zeros(n)
    vals = np.asarray(cfg.u0, dtype=float)
    if vals.size > n:
        raise ArgumentError(
            f"run_command: control.u0 has {vals.size} entries but the truncation is {n}")
    u0[: vals.size] = vals
    return u0


def run_command(verb, cfg):
    """Execute one verb against a resolved config; returns written paths."""
    if verb not in VERBS:
        raise ArgumentError(f"run_command: unknown verb {verb!r} (choose from {VERBS})")
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "config.echo.cfg"), "w", encoding="ascii",
              newline="\n") as fh:
        fh.write(format_config(cfg))
    written = [os.path.join(out, "config.echo.cfg")]

    def emit(name, header, rows):
        path = os.path.join(out, name)
        _write_csv(path, header, rows)
        written.append(path)

    def model():
        return build_model(cfg.domain(), cfg.kernel(), cfg.n_modes)

    if verb == "basis":
        basis = build_basis(cfg.domain(), cfg.n_modes)
        emit("basis.csv", ["j", "lambda_j"],
             [(j, basis.lambdas[j]) for j in range(basis.n_modes)])

    elif verb == "kernel-project":
        _, kmat, _, _ = model()
        emit("kernel.csv", ["i", "j", "value"],
             [(i, j, kmat.matrix[i, j])
              for i in range(kmat.n_modes) for j in range(kmat.n_modes)])
        emit("kernel-summary.csv",
             ["n_modes", "hs_of_k", "frobenius", "spectral_radius"],
             [(kmat.n_modes, kmat.hs_of_k, kmat.frobenius, kmat.spectral_radius)])

    elif verb == "evolve":
        T = _require(cfg, "horizon", "time.horizon", verb)
        basis, _, dec, _ = model()
        u0 = _u0_vector(cfg, basis.n_modes)
        ts = np.linspace(0.0, T, cfg.nt)
        emit("evolve.csv", ["t", "state_norm"],
             [(t, float(np.linalg.norm(propagate(dec, u0, t)))) for t in ts])

    elif verb == "zeta":
        _, _, dec, m_omega = model()
        ts = cfg.horizon_list or (_require(cfg, "horizon", "time.horizon", verb),)
        emit("zeta.csv", ["t", "zeta"], zip(ts, left_inverse_constants(dec, m_omega, ts)))

    elif verb == "obs-constant":
        basis = model()[0]
        r = cfg.r_list[0] if cfg.r_list else float(basis.lambdas[-1])
        rep = spectral_obs_constant(basis, cfg.domain().omega, r)
        emit("obs.csv", ["r", "n_modes", "c_min", "specobs_constant"],
             [(rep.r, rep.n_modes, rep.c_min, rep.specobs_constant)])

    elif verb == "obs-sweep":
        basis = model()[0]
        reports = spectral_obs_constants(basis, cfg.domain().omega, _default_r_list(cfg))
        emit("obs-sweep.csv", ["r", "n_modes", "c_min", "specobs_constant"],
             [(rep.r, rep.n_modes, rep.c_min, rep.specobs_constant)
              for rep in reports])

    elif verb == "gramian":
        T = _require(cfg, "horizon", "time.horizon", verb)
        _, _, dec, m_omega = model()
        G = observability_gramian(dec, m_omega, T)
        w = np.linalg.eigvalsh(G)
        emit("gramian.csv", ["i", "j", "value"],
             [(i, j, G[i, j]) for i in range(G.shape[0]) for j in range(G.shape[1])])
        emit("gramian-summary.csv", ["T", "min_eig", "max_eig", "trace"],
             [(T, float(w[0]), float(w[-1]), float(np.trace(G)))])

    elif verb == "cost":
        T = _require(cfg, "horizon", "time.horizon", verb)
        _, _, dec, m_omega = model()
        rep = observability_cost(dec, m_omega, T)
        emit("cost.csv", ["T", "N_used", "kappa_T", "gramian_min_eig",
                          "fit_model", "fit_C", "fit_alpha", "fit_residual"],
             [(rep.T, rep.n_used, rep.kappa, rep.gramian_min_eig, "", "", "", "")])

    elif verb == "cost-sweep":
        Ts = _require(cfg, "horizon_list", "time.horizon_list", verb)
        sweep = cost_sweep(cfg.domain(), cfg.kernel(), list(Ts),
                           coupling=cfg.coupling, n_fixed=cfg.n_modes,
                           margin=cfg.margin)
        free = ("free", sweep.fit_free.coeff, sweep.fit_free.alpha, sweep.fit_free.residual)
        rows = [(row.T, row.n_used, "nan", "nan", "error", "", "", row.error)
                if row.report is None else
                (row.T, row.n_used, row.report.kappa, row.report.gramian_min_eig) + free
                for row in sweep.rows]
        rows += [("", "", "", "", name, fit.coeff, fit.alpha, fit.residual)
                 for name, fit in (("sqrt", sweep.fit_sqrt), ("inv", sweep.fit_inv))]
        emit("cost-sweep.csv", ["T", "N_used", "kappa_T", "gramian_min_eig",
                                "fit_model", "fit_C", "fit_alpha", "fit_residual"], rows)

    elif verb == "control-hum":
        T = _require(cfg, "horizon", "time.horizon", verb)
        basis, _, dec, m_omega = model()
        u0 = _u0_vector(cfg, basis.n_modes)
        result = hum_control(dec, m_omega, u0, T, nt=cfg.nt, ridge=cfg.ridge)
        kappa = observability_cost(dec, m_omega, T).kappa
        nullcond_ok = result.cost_sq <= kappa * float(u0 @ u0) * (1 + 1e-6)
        ts = np.linspace(0.0, T, result.nt)
        dens = np.einsum("ij,jk,ik->i", result.control_coeffs, m_omega,
                         result.control_coeffs)
        norms = controlled_state_norms(dec, m_omega, u0, result)
        emit("control.csv", ["t", "cost_density", "residual_projection"],
             list(zip(ts, dens, norms)))
        emit("control-summary.csv",
             ["T", "cost_sq", "terminal_residual", "kappa_T", "nullcond_ok"],
             [(result.T, result.cost_sq, result.terminal_residual, kappa,
               nullcond_ok)])

    elif verb == "control-lr":
        T = _require(cfg, "horizon", "time.horizon", verb)
        domain = cfg.domain()
        r0 = cfg.r0 if cfg.r0 > 0 else float((np.pi / domain.length) ** 2)
        u0 = np.asarray(cfg.u0, dtype=float)
        result = lr_staged_control(domain, cfg.kernel(), u0, T,
                                   stages=cfg.stages, r0=r0,
                                   margin=cfg.margin, nt=cfg.nt)
        emit("lr.csv", ["k", "r_k", "t_start", "t_mid", "t_end",
                        "residual_after_active", "residual_after_passive"],
             [(s.k, s.r_k, s.t_start, s.t_mid, s.t_end,
               s.residual_after_active, s.residual_after_passive)
              for s in result.stage_log])
        emit("lr-summary.csv", ["T", "stages", "cost_sq", "terminal_residual"],
             [(result.T, cfg.stages, result.cost_sq, result.terminal_residual)])

    elif verb == "certify-all":
        rows = certify.run_all(seed=cfg.seed)
        emit("certify.csv", ["check", "status", "detail"],
             [(name, "pass" if ok else "FAIL", detail) for name, ok, detail in rows])
        if not all(ok for _, ok, _ in rows):
            failed = [name for name, ok, _ in rows if not ok]
            raise NumericError(f"certify-all: failing checks: {', '.join(failed)}")

    return written


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nullheat",
        description="Spectral null-control synthesis and certificates for the "
                    "kernel-coupled heat equation on an interval.")
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("config", help="experiment config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    parser.add_argument("--output", dest="output", default=None,
                        help="shorthand for --set output.dir=...")
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    overrides = {}
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            print(f"nullheat: --set expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return 1
        overrides[key.strip()] = value.strip()
    if args.output is not None:
        overrides["output.dir"] = args.output
    try:
        cfg = parse_config(args.config, overrides=overrides)
        written = run_command(args.verb, cfg)
    except (ArgumentError, ConfigError, KernelFormatError, FileNotFoundError) as exc:
        print(f"nullheat: error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"nullheat: numeric error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
