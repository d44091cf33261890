"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import time

import numpy as np
import pytest

from lrvb import expfam as ef
from lrvb import linear_response as lr
from lrvb import mfvb, oracle
from lrvb import robustness as rb
from lrvb.expfam import FAMILIES, Family
from lrvb.models import (build_microcredit_model, gaussian_target_model,
                         normal_invgamma_model, normal_normal_model,
                         simulate_microcredit)
from lrvb.models.microcredit import MicrocreditParams
from lrvb.oracle import McmcConfig, quadrature_expectation
from lrvb.util import fd_hessian, vech

RESULTS = []


def report(label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    RESULTS.append(line)
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="module")
def hierarchical():
    truth = MicrocreditParams(1.0, 0.5,
                              np.array([[1.0, 0.21], [0.21, 0.49]]),
                              100.0 * (1.0 + 0.1 * np.arange(7)))
    data = simulate_microcredit(truth, 200, seed=42)
    model = build_microcredit_model(data)
    sol = mfvb.fit(model)
    sys = lr.build_system(model, sol)
    return model, sol, sys


@pytest.fixture(scope="module")
def conjugate():
    model = normal_normal_model(np.array([1.3, 0.7, 1.2, 0.8]), 1.0,
                                ("moment", 0.0, 1.0))
    sol = mfvb.fit(model, opts=mfvb.FitOptions(tol=1e-11))
    sys = lr.build_system(model, sol)
    return model, sol, sys


def test_criterion_1_gaussian_exactness():
    prec = np.array([[1.0, -0.5, 0.2], [-0.5, 1.5, -0.3], [0.2, -0.3, 2.0]])
    model = gaussian_target_model(prec @ np.array([0.5, -0.2, 0.1]), prec)
    start = time.perf_counter()
    sol = mfvb.fit(model)
    sys = lr.build_system(model, sol)
    loc = model.layout.location_indices()
    block = sys.sigma_hat[np.ix_(loc, loc)]
    elapsed = time.perf_counter() - start
    exact = np.linalg.inv(prec)
    rel = np.max(np.abs(block - exact)) / np.max(np.abs(exact))
    report("criterion 1 (Gaussian exactness)",
           rel < 1e-6 and elapsed < 1.0,
           f"mean-block vs analytic inverse rel err {rel:.2e} "
           f"(tol 1e-6), runtime {elapsed:.3f}s (< 1s)")


def test_criterion_2_conjugate_sensitivity_identity(conjugate):
    model, sol, sys = conjugate
    s1 = rb.hyperparam_sensitivity(model, sol, sys, {"prior_nat_1": 1.0})
    s2 = rb.hyperparam_sensitivity(model, sol, sys, {"prior_nat_2": 1.0})
    exact_cols = (np.array_equal(s1, sys.sigma_hat[:, 0])
                  and np.array_equal(s2, sys.sigma_hat[:, 1]))
    # closed-form posterior N(0.8, 0.2): d mean / d nat = (var, 2 mean var)
    err = max(abs(s1[0] - 0.2), abs(s2[0] - 2.0 * 0.8 * 0.2))
    report("criterion 2 (conjugate sensitivity identity)",
           exact_cols and err < 1e-8,
           f"covariance columns bit-exact: {exact_cols}; "
           f"closed-form derivative err {err:.2e} (tol 1e-8)")


def test_criterion_3_influence_oracle(conjugate):
    model, sol, sys = conjugate
    at_mean = rb.influence_function(model, sol, sys, "theta", sol.mean[0])
    zero_ok = bool(np.all(at_mean == 0.0))
    sd = np.sqrt(sol.mean[1] - sol.mean[0] ** 2)
    pts = sol.mean[0] + sd * np.linspace(-2.5, 2.5, 21)
    grid = rb.influence_grid(model, sol, sys, "theta", pts)
    eps = 1e-4
    worst = 0.0
    for pt, pred in zip(pts, grid[:, 0]):
        base = oracle.contaminated_posterior_mean(model, "theta",
                                                  ("dirac", pt), 0.0)[0]
        d1 = (oracle.contaminated_posterior_mean(
            model, "theta", ("dirac", pt), eps)[0] - base) / eps
        d2 = (oracle.contaminated_posterior_mean(
            model, "theta", ("dirac", pt), eps / 2.0)[0] - base) / (eps / 2.0)
        richardson = 2.0 * d2 - d1
        if abs(richardson) > 1e-10:
            worst = max(worst, abs(pred - richardson) / abs(richardson))
    report("criterion 3 (influence-function oracle)",
           zero_ok and worst < 0.02,
           f"21-point grid vs quadrature+Richardson worst rel err {worst:.2e} "
           f"(tol 2e-2); influence at the fitted mean exactly zero: {zero_ok}")


def test_criterion_4_vb_derivative_exactness(hierarchical):
    model, sol, sys = hierarchical
    res = oracle.perturb_and_rerun(model, {"prior_info_11": 1.0}, engine="vb",
                                   sol=sol, sys=sys,
                                   fit_opts=mfvb.FitOptions(tol=1e-10))
    top = res.restricted(["mu", "tau"])
    report("criterion 4 (refit derivative of the fixed point)",
           abs(top.slope - 1.0) < 0.01,
           f"top-level predicted-vs-refit slope {top.slope:.6f} (within 1% of 1)")


def test_criterion_5_mcmc_agreement(hierarchical):
    model, sol, sys = hierarchical
    start = time.perf_counter()
    cfg = McmcConfig(chain_length=120_000, burn_in=20_000, seed=2024)
    res = oracle.perturb_and_rerun(model, {"prior_info_11": 1.0}, engine="mcmc",
                                   step=1.0, sol=sol, sys=sys, mcmc_config=cfg,
                                   mcmc_adapt=1000)
    elapsed = time.perf_counter() - start
    names = (["mu", "tau"] + [f"mu_site{j+1}" for j in range(7)]
             + [f"tau_site{j+1}" for j in range(7)])
    sub = res.restricted(names)
    report("criterion 5 (sampling-rerun agreement)",
           sub.correlation >= 0.95 and elapsed < 600.0,
           f"correlation {sub.correlation:.4f} (>= 0.95) over 16 effects with "
           f"1e5 kept draws per chain; runtime {elapsed/60:.2f} min (< 10 min)")


def test_criterion_6_closed_form_moments():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        a = rng.normal(size=(2, 2))
        scale = (a @ a.T + 0.5 * np.eye(2)) / rng.uniform(2.0, 8.0)
        dof = rng.uniform(3.5, 20.0)
        w = ef.wishart_expectations(dof, scale)
        fam = FAMILIES[Family.WISHART]
        draws = fam.sample(fam.natural_from_standard(dof, scale), 10 ** 5, rng)
        inv = np.linalg.inv(draws)
        diag = inv[:, [0, 1], [0, 1]]
        stats = fam.suff_stats(draws)
        for mc, exact in [
            (stats[:, :3], vech(w.mean_precision)),
            (stats[:, 3:4], np.array([w.logdet])),
            (np.log(diag), w.log_sigma_diag),
            (np.sqrt(diag), w.sqrt_sigma_diag),
            (1.0 / diag, w.inv_sigma_diag),
        ]:
            se = mc.std(axis=0, ddof=1) / np.sqrt(mc.shape[0])
            worst = max(worst, np.max(np.abs(mc.mean(axis=0) - exact) / se))
    for _ in range(50):
        shape = rng.uniform(0.6, 8.0)
        scl = rng.uniform(0.2, 6.0)
        vals = np.sqrt(scl / rng.gamma(shape, 1.0, size=10 ** 6))
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        z = abs(vals.mean() - ef.invgamma_sqrt_expectation(shape, scl)) / se
        worst = max(worst, z)
    report("criterion 6 (closed-form moments vs Monte Carlo)",
           worst < 3.0,
           f"worst |z| {worst:.3f} over 50 random draws per family "
           f"(1e5-1e6 samples, 3 SE bound)")


def test_criterion_7_worst_case_dominance(conjugate):
    model, sol, sys = conjugate
    alpha = model.hyperparams

    def prior_dens(x):
        return np.exp(model.prior_block_logpdf["theta"](x, alpha))

    sd = np.sqrt(sol.mean[1] - sol.mean[0] ** 2)
    min_margin = np.inf
    for p_norm in (2.0, 3.0):
        wc = rb.worst_case_perturbation(model, sol, sys, "theta", "theta", p_norm)
        rng = np.random.default_rng(13)
        for _ in range(50):
            coef = rng.normal(size=3)
            locs = rng.normal(sol.mean[0], 3.0 * sd, size=3)
            widths = rng.uniform(0.2, 1.0, size=3)

            def raw(x):
                return sum(c * np.exp(-0.5 * ((x - m) / w) ** 2)
                           for c, m, w in zip(coef, locs, widths))

            nrm, _ = quadrature_expectation(prior_dens,
                                            lambda x: abs(raw(x)) ** p_norm,
                                            (-np.inf, np.inf), tol=1e-9)
            unit = lambda x: raw(x) / nrm ** (1.0 / p_norm)
            der = rb.perturbation_derivative(model, sol, sys, "theta", "theta",
                                             unit)
            min_margin = min(min_margin, wc.attained_derivative - der)
    report("criterion 7 (worst-case dominance)",
           min_margin >= -1e-6,
           f"min margin over 50 random unit-size perturbations x p in {{2,3}}: "
           f"{min_margin:.3e} (>= -1e-6)")


def test_criterion_8_numerical_hygiene(conjugate, hierarchical):
    zoo = [conjugate, hierarchical]
    rng = np.random.default_rng(3)
    nig = normal_invgamma_model(rng.normal(1.5, 1.2, size=20), 0.0, 1.0, 2.5, 2.0)
    nig_sol = mfvb.fit(nig, opts=mfvb.FitOptions(tol=1e-10))
    zoo.append((nig, nig_sol, lr.build_system(nig, nig_sol)))
    g2 = gaussian_target_model(np.zeros(2), np.array([[1.0, -0.5], [-0.5, 1.0]]))
    g2_sol = mfvb.fit(g2)
    zoo.append((g2, g2_sol, lr.build_system(g2, g2_sol)))

    worst_h = 0.0
    psd_ok = True
    trace_ok = True
    for model, sol, sys in zoo:
        alpha = model.hyperparams

        def objective(m, model=model, alpha=alpha):
            return model.expected_log_lik(m) + model.expected_log_prior(m, alpha)

        fd = fd_hessian(objective, sol.mean, rel_step=2e-4)
        scale = max(np.max(np.abs(fd)), 1.0)
        worst_h = max(worst_h, np.max(np.abs(sys.h - fd)) / scale)
        sigma = sys.sigma_hat
        psd_ok &= bool(np.max(np.abs(sigma - sigma.T))
                       <= 1e-8 * max(np.max(np.abs(sigma)), 1.0))
        psd_ok &= bool(np.min(np.linalg.eigvalsh(sigma))
                       >= -1e-8 * np.max(np.abs(sigma)))
        trace = np.array(sol.elbo_trace)
        slack = 1e-9 * max(1.0, np.max(np.abs(trace)))
        trace_ok &= bool(np.all(np.diff(trace) >= -slack))
    report("criterion 8 (numerical hygiene)",
           worst_h < 1e-5 and psd_ok and trace_ok,
           f"objective Hessian vs finite differences worst rel err {worst_h:.2e} "
           f"(tol 1e-5); corrected covariance symmetric PSD: {psd_ok}; "
           f"objective non-decreasing across accepted steps: {trace_ok}")


def test_zzz_summary():
    print("\n" + "=" * 72)
    for line in RESULTS:
        print(line)
    print("=" * 72)
    assert len(RESULTS) == 8
