"""Tests of the benchmark's own checks, operation runner and tracer."""

import contextlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import run
import tracing
import workloads
from checks import CheckFailed

import nullheat as nh
from nullheat import certify, cli

ROOT = Path(__file__).resolve().parent.parent


def test_kappa_ladder_falling_in_n_is_rejected():
    ladder = {32: {0.02: 1869.99}, 64: {0.02: 2536.26}}
    checks.kappa_ladder_monotone(ladder, 128, {0.02: 2600.0})
    with pytest.raises(CheckFailed, match="N=128"):
        checks.kappa_ladder_monotone(ladder, 128, {0.02: 2218.73})


def test_kappa_must_rise_as_horizon_falls_and_dominate_sampled_bound():
    checks.kappa_rises_as_T_falls([0.5, 0.1, 0.02], [0.002, 7.0, 1090.0])
    with pytest.raises(CheckFailed):
        checks.kappa_rises_as_T_falls([0.5, 0.1, 0.02], [0.002, 7.0, 6.0])
    with pytest.raises(CheckFailed):
        checks.kappa_above_sampled(10.0, 10.5, 0.1)
    with pytest.raises(CheckFailed):
        checks.exponent_in_range(0.05)


GOOD_AUDIT = dict(terminal_residual=1e-12, simulated_norm=2e-6, cost_sq=3.0,
                  quadrature_cost=3.0 * (1 + 1e-9), kappa=10.0, u0_norm_sq=1.0,
                  ridge_used=0.0)


def test_control_audit_accepts_consistent_results():
    checks.control_audit(**GOOD_AUDIT)


@pytest.mark.parametrize("field, value, match", [
    ("simulated_norm", 5e-5, "simulated terminal norm"),
    ("quadrature_cost", 3.0 * (1 + 1e-5), "quadrature"),
    ("terminal_residual", 1e-4, "closed-form terminal residual"),
    ("cost_sq", 11.0, "exceeds kappa_T"),
    ("ridge_used", 1e-12, "ridge"),
])
def test_control_audit_rejects_wrong_answers(field, value, match):
    bad = dict(GOOD_AUDIT, **{field: value})
    if field == "cost_sq":
        bad["quadrature_cost"] = value
    with pytest.raises(CheckFailed, match=match):
        checks.control_audit(**bad)


def test_staged_log_rejects_residual_that_does_not_fall():
    stage = lambda k, low, res: SimpleNamespace(k=k, lowmode_after_active=low,
                                                residual_after_passive=res)
    checks.staged_log([stage(0, 1e-12, 0.5), stage(1, 1e-12, 0.1)], 1.0)
    with pytest.raises(CheckFailed):
        checks.staged_log([stage(0, 1e-12, 0.5), stage(1, 1e-12, 0.6)], 1.0)
    with pytest.raises(CheckFailed):
        checks.staged_log([stage(0, 1e-6, 0.5)], 1.0)


def test_csv_that_differs_on_rerun_is_rejected(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "basis.csv").write_text("j,lambda_j\n0,9.869604401089358\n")
    checks.same_csvs(a, b)
    (b / "basis.csv").write_text("j,lambda_j\n0,9.869604401089359\n")
    with pytest.raises(CheckFailed, match="basis.csv"):
        checks.same_csvs(a, b)


def test_fail_certificate_row_is_reported():
    registry = ["eigenvalues-exact", "mode-normalization"]
    rows = [{"check": "eigenvalues-exact", "status": "pass", "detail": ""},
            {"check": "mode-normalization", "status": "FAIL", "detail": ""}]
    assert checks.certificate_rows(rows, registry) == ["mode-normalization"]
    with pytest.raises(CheckFailed):
        checks.certificate_rows(rows[:1], registry)


def test_raising_operation_is_counted_failed_and_the_pass_continues():
    def boom():
        raise nh.NumericError("no convergence")

    def wrong(out):
        raise CheckFailed("wrong answer")

    ops = [("raises", boom, lambda out: None), ("wrong", lambda: 1, wrong),
           ("fine", lambda: 2, lambda out: None)]
    rows = workloads.run_ops(ops, contextlib.nullcontext, lambda: None)
    assert [r[0] for r in rows] == ["raises", "wrong", "fine"]
    assert rows[0][1].startswith("NumericError") and rows[1][1].startswith("CheckFailed")
    assert rows[2][1] is None


def test_metric_names_match_benchmark_json_and_the_program():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.metric_specs()
    assert list(tracing.CHECK_NAMES) == [name for name, _ in certify.CHECKS]
    assert tracing.VERBS == cli.VERBS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES) == list(run.WORKLOADS)


def test_tracer_wraps_every_binding_and_nests_spans():
    tracer = tracing.Tracer()
    original = nh.restricted_mass_matrix
    tracer.install()
    try:
        from nullheat import observability
        assert observability.restricted_mass_matrix is not original
        basis = nh.build_basis(workloads.DOMAIN, 24)
        nh.spectral_obs_constant(basis, (0.3, 0.8), float(basis.lambdas[-1]))
        with tracer.paused():
            nh.build_basis(workloads.DOMAIN, 4)
    finally:
        tracer.uninstall()
    assert nh.restricted_mass_matrix is original
    by_name = {s.name: s for s in tracer.spans}
    assert "basis.build_basis" in by_name and len(tracer.spans) >= 4
    outer = by_name["observability.spectral_obs_constant"]
    assert by_name["basis.restricted_mass_matrix"].parent == outer.sid
    assert by_name["_highprec.smallest_eigenpair_mp"].parent == outer.sid
    metrics = tracing.layer_metrics(tracer.spans, 1, 1.0)
    assert metrics["observability.spectral_obs_constant.calls"] == 1
    assert metrics["highprec.mass_matrix_mp.calls"] == 1
    assert 0 <= metrics["observability.spectral_obs_constant.self_s"] <= outer.end - outer.start


def test_tracer_counts_ridge_fallback_warnings():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        basis = nh.build_basis(workloads.DOMAIN, 128)
        dec = nh.decompose(nh.assemble_generator(basis, nh.project_kernel(nh.ZeroKernel(), basis)))
        nh.observability_cost(dec, nh.restricted_mass_matrix(basis, 0.3, 0.8), 0.02)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, 1, 1.0)
    assert metrics["observability.observability_cost.ridge_fallbacks"] == 1


def test_union_of_overlapping_children():
    assert tracing._union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert tracing._union_length([(-1, 2)], 0, 1) == pytest.approx(1.0)
