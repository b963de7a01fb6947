"""certify.run_all's memo: shared models and packet sweep, once per run."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from nullheat import GaussianKernel, build_basis, certify, specobs_sweep_and_fit
from nullheat.observability import fit_specobs_sweep

SEED = 20260809


def _counting(monkeypatch, name):
    calls = Counter()
    original = getattr(certify, name)

    def counted(*args):
        calls[args if name == "build_model" else args[1]] += 1
        return original(*args)

    monkeypatch.setattr(certify, name, counted)
    return calls


def test_each_check_alone_matches_its_run_all_row():
    rows = certify.run_all(SEED)
    assert [name for name, _, _ in rows] == [name for name, _ in certify.CHECKS]
    for (name, fn), row in zip(certify.CHECKS, rows):
        ok, detail = fn(np.random.default_rng(SEED))
        assert (name, bool(ok), detail) == row


def test_shared_work_runs_once_per_run_and_again_in_the_next(monkeypatch):
    models = _counting(monkeypatch, "build_model")
    sweeps = _counting(monkeypatch, "spectral_obs_constants")
    certify.run_all(SEED)
    # hs-domination, truncation-monotone, weyl-shift and the others ask for
    # 23 distinct (domain, kernel, N) models between them
    assert len(models) == 23 and set(models.values()) == {1}
    assert sweeps == {(0.3, 0.8): 1}
    assert certify._RUN_MEMO.get() is None
    certify.run_all(SEED)
    assert len(models) == 23 and set(models.values()) == {2}
    assert sweeps == {(0.3, 0.8): 2}


def test_outside_a_run_nothing_is_kept(domain):
    kernel = GaussianKernel(5.0, 0.2)
    first, again = certify._model(domain, kernel, 8), certify._model(domain, kernel, 8)
    assert first is not again and first[1].matrix is not again[1].matrix
    assert certify._packet_sweep()[2] is not certify._packet_sweep()[2]


def test_fit_on_shared_reports_equals_the_sweep_bitwise(domain):
    basis, cutoffs, reports = certify._packet_sweep()
    fit = fit_specobs_sweep(reports)
    ref = specobs_sweep_and_fit(build_basis(domain, 26), (0.3, 0.8), cutoffs)
    assert fit.sqrt_fit == ref.sqrt_fit and fit.linear_fit == ref.linear_fit
    assert fit.preferred == ref.preferred
    assert [rep.c_min for rep in fit.reports] == [rep.c_min for rep in ref.reports]


@pytest.mark.parametrize("write", [
    lambda: certify._model(certify.DEFAULT_DOMAIN, GaussianKernel(5.0, 0.2), 16)[1].matrix,
    lambda: certify._model(certify.DEFAULT_DOMAIN, GaussianKernel(5.0, 0.2), 16)[2].modes,
    lambda: certify._model(certify.DEFAULT_DOMAIN, GaussianKernel(5.0, 0.2), 16)[3],
    lambda: certify._packet_sweep()[2][0].witness,
], ids=["kernel-matrix", "eigenvectors", "mass-matrix", "packet-witness"])
def test_a_check_that_writes_into_a_shared_array_raises(monkeypatch, write):
    def check(rng):
        write()[0] = 0.0
        return True, ""

    monkeypatch.setattr(certify, "CHECKS", [("writer", check)])
    with pytest.raises(ValueError, match="read-only"):
        certify.run_all(SEED)
    assert certify._RUN_MEMO.get() is None


def test_symmetric_projection_certifies_exact_parity_zeros(monkeypatch):
    # the Gaussians' entries with m + n odd must read 0.0 exactly: one
    # symmetric pair of 1e-300 in one of them fails the certificate
    ok, detail = certify.check_projection_symmetric_bitwise(np.random.default_rng(SEED))
    assert ok and detail == ("K == K^T bitwise for all bundled kernels; 256 of 256 odd m + n "
                             "entries of the 2 Gaussians exactly 0.0")
    model = certify._model

    def noisy(domain, kernel, n):
        basis, kmat, dec, m_omega = model(domain, kernel, n)
        if kernel == GaussianKernel(20.0, 0.15):
            K = kmat.matrix.copy()
            K[2, 5] = K[5, 2] = 1e-300
            kmat = dataclasses.replace(kmat, matrix=K)
        return basis, kmat, dec, m_omega

    monkeypatch.setattr(certify, "_model", noisy)
    ok, detail = certify.check_projection_symmetric_bitwise(np.random.default_rng(SEED))
    assert not ok and "254 of 256" in detail
