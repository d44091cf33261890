"""Every benchmark check accepts a correct output and rejects one corrupted
on purpose, so none of them passes vacuously.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import checks  # noqa: E402

NAMES = ["mu", "tau", "mu_site1", "tau_site1", "mu_site2", "tau_site2"]


def compare_payload(predicted, actual):
    return {"entries": [{"quantity": n, "predicted": float(p), "actual": float(a),
                         "mc_standard_error": 0.0}
                        for n, p, a in zip(NAMES, predicted, actual)]}


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_fit_summary(rng):
    good = {"converged": True, "grad_norm": 3e-9,
            "posterior_sd": {n: float(v) for n, v in zip(NAMES, rng.uniform(0.1, 2, 6))}}
    assert checks.fit_summary(good, 1e-8) == []
    assert checks.fit_summary({**good, "converged": False}, 1e-8)
    assert checks.fit_summary({**good, "grad_norm": 2e-8}, 1e-8)
    for bad_sd in (-0.5, 0.0, float("nan")):
        sds = dict(good["posterior_sd"], tau=bad_sd)
        assert checks.fit_summary({**good, "posterior_sd": sds}, 1e-8)


def test_refit_slope(rng):
    pred = rng.normal(size=6)
    good = compare_payload(pred, pred * 1.002)
    assert checks.refit_slope(good, ["mu", "tau"]) == []
    assert checks.refit_slope(compare_payload(pred, pred * 1.05), ["mu", "tau"])
    shuffled = compare_payload(pred, pred[[1, 0, 2, 3, 4, 5]])
    assert checks.refit_slope(shuffled, ["mu", "tau"])


def test_sensitivity_matches_prediction(rng):
    pred = rng.normal(size=6)
    cmp_ = compare_payload(pred, pred)

    def sens(derivs):
        entries = [{"quantity": n, "hyperparameter": "prior_info_11",
                    "derivative": float(d)} for n, d in zip(NAMES, derivs)]
        entries += [{"quantity": n, "hyperparameter": "lkj_shape", "derivative": 9.0}
                    for n in NAMES]
        return {"entries": entries}

    assert checks.sensitivity_matches_prediction(sens(pred), cmp_, "prior_info_11") == []
    flipped = pred.copy()
    flipped[2] = -flipped[2]
    assert checks.sensitivity_matches_prediction(sens(flipped), cmp_, "prior_info_11")
    shuffled = compare_payload(pred[rng.permutation(6)], pred)
    assert checks.sensitivity_matches_prediction(sens(pred), shuffled, "prior_info_11")
    assert checks.sensitivity_matches_prediction(sens(pred), cmp_, "noise_shape")


def test_sampled_correlation(rng):
    pred = rng.normal(size=6)
    noisy = pred + 0.05 * rng.normal(size=6)
    assert checks.sampled_correlation(compare_payload(pred, noisy), NAMES) == []
    assert checks.sampled_correlation(compare_payload(pred, noisy[::-1]), NAMES)
    # coupled chains that never separate: every sampled change is 0
    assert checks.sampled_correlation(compare_payload(pred, np.zeros(6)), NAMES)


def test_identical():
    assert checks.identical("f", b'{"a": 1}', b'{"a": 1}') == []
    assert checks.identical("f", b'{"a": 1}', b'{"a": 2}')
    grid = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    assert checks.identical("g", grid, grid.copy()) == []
    assert checks.identical("g", grid, np.nextafter(grid, 2.0))


def influence_case(rng, dim=9, n=40):
    top_mean = np.array([0.8, -0.3])
    a = rng.normal(size=(2, 2))
    top_cov = a @ a.T + 0.2 * np.eye(2)
    prior_prec = np.array([[0.02, 0.005], [0.005, 0.03]])
    coef = rng.normal(size=(dim, 2))
    points = top_mean + rng.normal(size=(n, 2)) * 2.0
    ratio = np.exp(scipy.stats.multivariate_normal(top_mean, top_cov).logpdf(points)
                   - scipy.stats.multivariate_normal(
                       np.zeros(2), np.linalg.inv(prior_prec)).logpdf(points))
    rows = ratio[:, None] * ((points - top_mean) @ coef.T)
    return points, rows, top_mean, top_cov, prior_prec, coef


def test_influence_linear(rng):
    points, rows, top_mean, top_cov, prior_prec, coef = influence_case(rng)
    args = (top_mean, top_cov, prior_prec, coef)
    assert checks.influence_linear(points, rows, *args) == []
    assert checks.influence_linear(points, rows * (1 + 1e-6), *args)
    assert checks.influence_linear(points, -rows, *args)
    assert checks.influence_linear(points, rows[rng.permutation(len(rows))], *args)


def test_queries_match_grid(rng):
    rows = rng.normal(size=(20, 9))
    assert checks.queries_match_grid(rows * (1 + 1e-13), rows) == []
    assert checks.queries_match_grid(rows * (1 + 1e-6), rows)
    assert checks.queries_match_grid(rows[::-1], rows)


def test_influence_oracle(rng):
    oracle = rng.normal(size=21)
    assert checks.influence_oracle(oracle * 1.001, oracle) == []
    assert checks.influence_oracle(oracle * 1.05, oracle)
    assert checks.influence_oracle(-oracle, oracle)


def test_converged():
    assert checks.converged(SimpleNamespace(converged=True, grad_norm=5e-9), 1e-8) == []
    assert checks.converged(SimpleNamespace(converged=True, grad_norm=5e-8), 1e-8)
    assert checks.converged(SimpleNamespace(converged=False, grad_norm=5e-9), 1e-8)


def test_symmetric_psd(rng):
    a = rng.normal(size=(6, 6))
    sigma = a @ a.T
    sigma = (sigma + sigma.T) / 2.0
    assert checks.symmetric_psd(sigma) == []
    skew = sigma.copy()
    skew[0, 1] += 1e-9
    assert checks.symmetric_psd(skew)
    evals, evecs = np.linalg.eigh(sigma)
    evals[0] = -0.1 * evals[-1]
    indefinite = evecs @ np.diag(evals) @ evecs.T
    assert checks.symmetric_psd((indefinite + indefinite.T) / 2.0)


def test_derivative_vs_refits():
    assert checks.derivative_vs_refits(-0.0386243, -0.0386241) == []
    assert checks.derivative_vs_refits(0.0386243, -0.0386241)
    assert checks.derivative_vs_refits(-0.0396243, -0.0386241)
