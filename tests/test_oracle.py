import dataclasses
import functools
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
import scipy.stats as st

from lrvb import cli, mfvb, oracle
from lrvb.errors import (DegenerateChain, DomainError, NotConjugate,
                         QuadratureFailure)
from lrvb.models import (build_microcredit_model, load_microcredit_csv,
                         normal_normal_model)
from lrvb.oracle import McmcConfig

from conftest import BUNDLED_CSV, NN_DATA, ROOT


class TestQuadratureExpectation:
    def test_gaussian_mean(self):
        dens = lambda x: st.norm.pdf(x, 2.0, 2.0)
        val, err = oracle.quadrature_expectation(dens, lambda x: x, (-np.inf, np.inf))
        assert abs(val - 2.0) < 1e-9 and err <= 1e-8

    def test_standard_normal_second_moment(self):
        dens = lambda x: st.norm.pdf(x)
        val, _ = oracle.quadrature_expectation(dens, lambda x: x ** 2, (-np.inf, np.inf))
        assert abs(val - 1.0) < 1e-9

    def test_contaminated_prior_normalizer(self):
        eps = 0.1
        dens = lambda x: (1 - eps) * st.norm.pdf(x) + eps * st.norm.pdf(x, 3.0, 0.5)
        val, _ = oracle.quadrature_expectation(dens, lambda x: 1.0, (-np.inf, np.inf))
        assert abs(val - 1.0) < 1e-9

    def test_two_dimensional(self):
        dens = lambda x: st.norm.pdf(x[0]) * st.norm.pdf(x[1], 1.0, 0.5)
        val, _ = oracle.quadrature_expectation(dens, lambda x: x[0] + x[1],
                                               ((-8, 8), (-4, 6)), tol=1e-6)
        assert abs(val - 1.0) < 1e-6

    def test_vector_integrand(self):
        # the entries integrated together equal each integrated alone
        dens = lambda x: st.norm.pdf(x, 2.0, 2.0)
        val, err = oracle.quadrature_expectation(
            dens, lambda x: np.array([1.0, x, x ** 2]), (-np.inf, np.inf))
        assert np.allclose(val, [1.0, 2.0, 8.0], rtol=0, atol=1e-9) and err <= 1e-8
        # N(0, 1) x N(1, 0.5^2), without scipy.stats' per-call overhead
        dens2 = lambda x: np.exp(-0.5 * x[0] ** 2 - 2.0 * (x[1] - 1.0) ** 2) / np.pi
        val, err = oracle.quadrature_expectation(
            dens2, lambda x: np.array([1.0, x[0], x[1]]), ((-8, 8), (-4, 6)), tol=1e-6)
        assert np.allclose(val, [1.0, 0.0, 1.0], rtol=0, atol=1e-6) and err <= 1e-6

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_failure_raises(self):
        # wildly oscillatory integrand starves the error target
        dens = lambda x: st.norm.pdf(x)
        with pytest.raises(QuadratureFailure):
            oracle.quadrature_expectation(dens, lambda x: np.sin(3e7 * x * x),
                                          (-np.inf, np.inf), tol=1e-12)


class TestExactConjugatePosterior:
    def test_normal_normal_update(self, nn_model):
        post = oracle.exact_conjugate_posterior(nn_model)
        assert np.allclose(post.mean, [0.8, 0.8 ** 2 + 0.2], rtol=1e-12)

    def test_zero_observations_returns_prior(self):
        model = normal_normal_model(np.array([]), 1.0, ("moment", 0.3, 2.0))
        post = oracle.exact_conjugate_posterior(model)
        assert np.allclose(post.mean, [0.3, 0.3 ** 2 + 2.0], rtol=1e-12)

    def test_normal_invgamma_matches_quadrature(self, nig_model):
        post = oracle.exact_conjugate_posterior(nig_model)
        quad = oracle.quadrature_posterior_mean(nig_model)
        assert np.max(np.abs(post.mean - quad)) < 1e-4 * max(1, np.max(np.abs(post.mean)))

    def test_hierarchical_not_conjugate(self, micro_model):
        with pytest.raises(NotConjugate):
            oracle.exact_conjugate_posterior(micro_model)

    def test_gaussian_target_is_its_own_posterior(self, gauss2_model):
        post = oracle.exact_conjugate_posterior(gauss2_model)
        cov = np.linalg.inv(np.array([[1.0, -0.5], [-0.5, 1.0]]))
        assert np.allclose(post.mean, [0.0, cov[0, 0], 0.0, cov[1, 1]], rtol=1e-12)
        assert post.log_evidence is None

    def test_contaminated_model_not_conjugate(self, nn_model):
        cont = oracle.contaminated_model(
            nn_model, "theta", lambda x: st.norm.logpdf(x, 1.0, 2.0), 0.1)
        assert cont.exact_posterior is None
        with pytest.raises(NotConjugate):
            oracle.exact_conjugate_posterior(cont)


class TestContaminatedModel:
    """The refit oracle's model, whose theta prior is 0.9 N(0, 1) + 0.1 N(1, 2^2):
    the contaminant's tails are heavier than the prior's."""

    @pytest.fixture(scope="class")
    def cont(self, nn_model):
        pc = lambda x: st.norm.logpdf(x, 1.0, 2.0)
        exact = oracle.contaminated_posterior_mean(nn_model, "theta", ("density", pc), 0.1)
        return oracle.contaminated_model(nn_model, "theta", pc, 0.1), exact

    def test_has_no_pointwise_posterior(self, cont):
        # the base model's sampler hook would sample the uncontaminated posterior
        model, _ = cont
        assert model.sampler_log_posterior is None and model.prior_block_logpdf == {}
        with pytest.raises(DomainError, match="no pointwise posterior"):
            oracle.quadrature_posterior_mean(model, box=[(-3.0, 5.0)])
        with pytest.raises(DomainError, match="no pointwise posterior"):
            oracle.sampler_log_target(model)
        for engine in ("quadrature", "mcmc"):
            with pytest.raises(DomainError, match="no pointwise posterior"):
                oracle.check_rerun_inputs(model, engine, {"prior_nat_1": 1.0})
        oracle.check_rerun_inputs(model, "vb", {"prior_nat_1": 1.0})
        with pytest.raises(DomainError, match="no pointwise posterior"):
            oracle.contaminated_posterior_mean(model, "theta", ("dirac", 0.5), 0.1)

    def test_refit_matches_exact_posterior(self, cont, nn_fit):
        # exp(log p_c - log p) overflows in the tails, where the correction's
        # log is taken by logaddexp
        model, exact = cont
        sol = mfvb.fit(model, init=nn_fit[0].mean)
        assert np.max(np.abs(sol.mean - exact)) < 1e-3


class TestContaminationInputs:
    """Both contaminated oracles check the weight and the block before any
    quadrature runs."""

    @staticmethod
    def _pc(x):
        return st.norm.logpdf(x, 1.0, 2.0)

    @pytest.fixture
    def no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(oracle, "quadrature_expectation", refuse)

    @pytest.mark.parametrize("eps", [-0.5, 1.5, np.nan])
    def test_weight_outside_the_unit_interval(self, nn_model, no_quadrature, eps):
        for contaminant in (("dirac", 0.5), ("density", self._pc)):
            with pytest.raises(DomainError, match=r"eps must be in \[0, 1\]"):
                oracle.contaminated_posterior_mean(nn_model, "theta", contaminant, eps)
        with pytest.raises(DomainError, match=r"eps must be in \[0, 1\]"):
            oracle.contaminated_model(nn_model, "theta", self._pc, eps)

    def test_unknown_contaminant_kind(self, nn_model, no_quadrature):
        with pytest.raises(DomainError, match="unknown contaminant kind 'point'"):
            oracle.contaminated_posterior_mean(nn_model, "theta", ("point", 0.5), 0.1)

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_weight_at_either_end(self, nn_model, nn_fit, eps):
        # the posterior under the base prior (eps = 0) or under the
        # contaminant alone (eps = 1), both normal-normal conjugate
        prior = ("moment", 0.0, 1.0) if eps == 0.0 else ("moment", 1.0, 4.0)
        exact = oracle.exact_conjugate_posterior(
            normal_normal_model(NN_DATA, 1.0, prior)).mean
        got = oracle.contaminated_posterior_mean(nn_model, "theta", ("density", self._pc), eps)
        assert np.max(np.abs(got - exact)) < 1e-9
        model = oracle.contaminated_model(nn_model, "theta", self._pc, eps)
        sol = mfvb.fit(model, init=nn_fit[0].mean)
        assert np.max(np.abs(sol.mean - exact)) < 1e-7

    def test_block_across_which_the_prior_does_not_factor(self, nn_model, nig_model,
                                                           no_quadrature):
        # the normal-inverse-gamma prior on theta depends on the noise variance
        with pytest.raises(DomainError, match="prior does not factor across block 'theta'; "
                                              r"factorized blocks: \['noise_var'\]"):
            oracle.contaminated_model(nig_model, "theta", self._pc, 0.1)
        unfactored = dataclasses.replace(nn_model, prior_block_logpdf={})
        with pytest.raises(DomainError, match="prior does not factor across block 'theta'"):
            oracle.contaminated_posterior_mean(unfactored, "theta", ("dirac", 0.5), 0.1)


class TestMetropolis:
    def _logpost(self, model):
        return oracle.sampler_log_target(model)

    def test_standard_normal_target(self):
        cfg = McmcConfig(chain_length=40_000, burn_in=5_000, seed=11)
        res = oracle.metropolis_sample(lambda z: -0.5 * float(z @ z),
                                       np.zeros(1), cfg)
        assert abs(res.means[0]) < 3.0 * res.standard_errors[0]
        assert 0.2 < res.acceptance_rate < 0.7

    def test_matches_conjugate_posterior(self, nn_model):
        cfg = McmcConfig(chain_length=40_000, burn_in=5_000, seed=7)
        res = oracle.metropolis_sample(self._logpost(nn_model), np.zeros(1), cfg)
        stats = nn_model.layout.suff_stats_of_sampler_matrix(res.draws)
        se, _ = oracle.batch_means_se(stats)
        post = oracle.exact_conjugate_posterior(nn_model)
        assert np.all(np.abs(stats.mean(axis=0) - post.mean) < 3.0 * se)

    def test_seeded_runs_identical(self, nn_model):
        cfg = McmcConfig(chain_length=4_000, burn_in=500, seed=5)
        a = oracle.metropolis_sample(self._logpost(nn_model), np.zeros(1), cfg)
        b = oracle.metropolis_sample(self._logpost(nn_model), np.zeros(1), cfg)
        assert np.array_equal(a.draws, b.draws)
        assert a.acceptance_rate == b.acceptance_rate

    def test_degenerate_chain_detected(self):
        cfg = McmcConfig(chain_length=2_000, burn_in=100, step_scales=1e9, seed=0)
        target = lambda z: -0.5 * float(z @ z)
        with pytest.raises(DegenerateChain):
            oracle.metropolis_sample(target, np.zeros(2), cfg, adapt_sweeps=0)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            McmcConfig(chain_length=10, burn_in=20, seed=0)
        with pytest.raises(DomainError):
            McmcConfig(chain_length=20, burn_in=2, step_scales=-1.0, seed=0)
        # batch means need one draw per batch: fewer than 10 once failed
        # to reshape after the whole chain had run
        for length, burn_in in ((5, 0), (9, 0), (15, 6), (10, -1)):
            with pytest.raises(DomainError, match="at least 10 draws"):
                McmcConfig(chain_length=length, burn_in=burn_in, seed=0)
        # lengths that are not integers, and scales that are not finite,
        # once failed only inside the sampler
        for length, burn_in in ((100.5, 0), (100, 0.5), (np.inf, 0)):
            with pytest.raises(DomainError, match="must be integers"):
                McmcConfig(chain_length=length, burn_in=burn_in, seed=0)
        for scales in (np.nan, np.inf, [1.0, np.nan]):
            with pytest.raises(DomainError, match="finite and positive"):
                McmcConfig(chain_length=20, burn_in=2, step_scales=scales, seed=0)
        McmcConfig(chain_length=np.int64(20), burn_in=np.int32(2), seed=0)

    def test_shortest_chain_has_standard_errors(self):
        res = oracle.metropolis_sample(lambda z: -0.5 * float(z @ z), np.zeros(1),
                                       McmcConfig(chain_length=12, burn_in=2, seed=0),
                                       adapt_sweeps=0)
        assert res.draws.shape == (10, 1)
        assert np.all(np.isfinite(res.standard_errors))

    def test_nonfinite_init_rejected(self):
        cfg = McmcConfig(chain_length=100, burn_in=10, seed=0)
        with pytest.raises(DomainError):
            oracle.metropolis_sample(lambda z: -np.inf, np.zeros(1), cfg)

    def test_batch_means_of_one_series_is_one_column(self):
        series = np.random.default_rng(4).normal(size=1_000).cumsum()
        se, ess = oracle.batch_means_se(series)
        se2, ess2 = oracle.batch_means_se(series[:, None])
        assert se.shape == ess.shape == (1,)
        assert np.array_equal(se, se2) and np.array_equal(ess, ess2)


def _recorded(target, log, starts=None):
    """The target with every value the sampler reads from it appended to
    ``log``: ("full", value) per call and per re-sum of its cached moves at
    a sweep's start, and ("move", value) per cached proposal.  With
    ``starts``, each re-sum also appends (x, value) there, x copied."""
    @functools.wraps(target)
    def recorded(z):
        value = target(z)
        log.append(("full", value))
        return value

    moves = getattr(target, "coordinate_moves", None)
    if moves is not None:
        def coordinate_moves(x):
            resum, propose, accept = moves(x)

            def recorded_resum():
                value = resum()
                log.append(("full", value))
                if starts is not None:
                    starts.append((x.copy(), value))
                return value

            def recorded_propose(j, xj):
                value = propose(j, xj)
                log.append(("move", value))
                return value

            return recorded_resum, recorded_propose, accept

        recorded.coordinate_moves = coordinate_moves
    return recorded


def _margins(log, seed, d, sweeps):
    """fp - f - log u of every proposal in order, replaying the sampler's
    acceptance rule over the logged values and its seeded uniform stream
    (a normal and a uniform draw per coordinate per sweep)."""
    rng = np.random.default_rng(seed)
    cached = any(kind == "move" for kind, _ in log)
    values = iter(log)
    _, f = next(values)
    margins = []
    for _ in range(sweeps):
        rng.normal(size=d)
        logu = np.log(rng.random(d))
        if cached:
            _, f = next(values)  # the re-summed value at the sweep's start
        for j in range(d):
            _, fp = next(values)
            margins.append(fp - f - logu[j])
            if fp - f > logu[j]:
                f = fp
    return np.array(margins)


class TestCachedMoves:
    """The microcredit sampler target's cached coordinate moves against
    full evaluations, on the bundled data."""

    @pytest.fixture(scope="class")
    def bundled(self):
        model = build_microcredit_model(load_microcredit_csv(BUNDLED_CSV))
        layout = model.layout
        sol = mfvb.fit(model)
        return model, layout.sampler_from_values(layout.representative_values(sol.mean))

    def _targets(self, model):
        alpha = model.hyperparams
        cached = model.sampler_log_posterior(alpha)
        # a plain callable over the hook: no coordinate_moves, so the
        # sampler evaluates it in full at every proposal
        full = lambda z: cached(z)
        # a re-wrap like the benchmark tracer's, which keeps only __dict__
        shim = functools.wraps(cached)(lambda z: cached(z))
        return {"full": full, "cached": cached, "shim": shim}

    @pytest.mark.parametrize("seed", [0, 10])
    def test_short_chains_match_full_evaluations(self, bundled, seed):
        model, z0 = bundled
        d, sweeps = z0.size, 400
        cfg = McmcConfig(chain_length=300, burn_in=0, seed=seed)
        runs = {}
        for name, target in self._targets(model).items():
            log = []
            draws = oracle.metropolis_sample(_recorded(target, log), z0, cfg,
                                             adapt_sweeps=100).draws
            moves = sum(kind == "move" for kind, _ in log)
            assert moves == (0 if name == "full" else sweeps * d)
            runs[name] = draws, log
        ref_draws, ref_log = runs.pop("full")
        ref = _margins(ref_log, seed, d, sweeps)
        for name, (draws, log) in runs.items():
            margins = _margins(log, seed, d, sweeps)
            differ = np.flatnonzero((margins > 0) != (ref > 0))
            if differ.size == 0:
                assert np.array_equal(draws, ref_draws), name
                continue
            i = differ[0]
            print(f"seed {seed}, {name}: decision {i} (sweep {i // d}, coordinate "
                  f"{i % d}) differs at margins {margins[i]:.3g} / {ref[i]:.3g}")
            assert abs(margins[i]) < 1e-9 and abs(ref[i]) < 1e-9
            kept = max(i // d - 100, 0)  # draws of the sweeps before it
            assert np.array_equal(draws[:kept], ref_draws[:kept])

    def test_site_moves_add(self, bundled):
        # the target is a sum of per-site rows given the globals: moving site
        # 2's effect and then site 5's log noise variance changes it by the
        # sum of the two single moves, priced linearly
        model, z0 = bundled
        k_sites = (z0.size - 5) // 3
        target = model.sampler_log_posterior(model.hyperparams)
        f0 = target(z0)
        moves = ((2 + 2 * 1, 0.3), (2 + 2 * k_sites + 4, -0.2))
        singles = []
        for j, step in moves:
            _, propose, _ = target.coordinate_moves(z0.copy())
            value = propose(j, z0[j] + step)
            z = z0.copy()
            z[j] += step
            full = target(z)
            assert abs(value - full) <= 1e-12 * abs(full), j
            singles.append(value - f0)
        x = z0.copy()
        resum, propose, accept = target.coordinate_moves(x)
        assert resum() == f0
        for j, step in moves:
            value = propose(j, x[j] + step)
            accept()
            x[j] += step
        full = target(x)
        assert abs(value - full) <= 1e-12 * abs(full)
        assert abs((value - f0) - sum(singles)) <= 1e-12 * abs(f0)
        assert abs(resum() - full) <= 1e-12 * abs(full)

    def test_sweep_starts_match_full_evaluations(self, bundled):
        # the moves are made once per chain; each sweep re-sums the kept site
        # rows, which must give the full evaluation at the sweep's start
        model, z0 = bundled
        target = model.sampler_log_posterior(model.hyperparams)
        log, starts = [], []
        oracle.metropolis_sample(_recorded(target, log, starts), z0,
                                 McmcConfig(chain_length=1_000, burn_in=0, seed=3),
                                 adapt_sweeps=100)
        assert len(starts) == 1_100
        assert len({x.tobytes() for x, _ in starts}) > 1_000  # the chain moves
        for x, f in starts:
            full = target(x)
            assert abs(f - full) <= 1e-12 * abs(full)

    def test_nonfinite_proposals_rejected_as_in_full_path(self, bundled):
        # huge steps on mu_1 overflow d^2 and on log v_1 overflow exp(-log v)
        model, z0 = bundled
        d = z0.size
        k_sites = (d - 5) // 3
        scales = np.full(d, 0.05)
        scales[2], scales[2 + 2 * k_sites] = 1e200, 1e3
        cfg = McmcConfig(chain_length=40, burn_in=0, step_scales=scales, seed=1)
        targets = self._targets(model)
        runs = {}
        for name in ("full", "cached"):
            log = []
            runs[name] = oracle.metropolis_sample(
                _recorded(targets[name], log), z0, cfg, adapt_sweeps=0), log
        huge = [2, 2 + 2 * k_sites]
        for run, log in runs.values():
            assert np.all(run.draws[:, huge] == z0[huge])  # never accepted
            assert sum(np.isneginf(value) for _, value in log) > 10
        assert np.array_equal(runs["cached"][0].draws, runs["full"][0].draws)

    def test_extreme_site_coordinates_are_minus_inf_without_warning(self, bundled):
        # log v_1 = -800 overflows exp(-log v) and mu_1 = 1e200 its squares;
        # no errstate here, so a RuntimeWarning fails the test
        model, z0 = bundled
        k_sites = (z0.size - 5) // 3
        target = self._targets(model)["cached"]
        _, propose, _ = target.coordinate_moves(z0)
        for j, xj in ((2 + 2 * k_sites, -800.0), (2, 1e200)):
            z = z0.copy()
            z[j] = xj
            assert target(z) == -np.inf, j
            assert propose(j, xj) == -np.inf, j
        # mu_1 = mu_2 = 1e154: each site's d1^2 is finite, their sum is not
        z = z0.copy()
        z[[2, 4]] = 1e154
        for name, full in self._targets(model).items():
            assert full(z) == -np.inf, name

    def test_precision_determinant_does_not_cancel(self, bundled):
        # with l21 fixed, the log target falls without bound as log l22 goes
        # to -inf, where |P| formed as p11 p22 - p12^2 would cancel
        model, z0 = bundled
        pos = z0.size - 1  # log l22
        target = self._targets(model)["cached"]
        _, propose, _ = target.coordinate_moves(z0)
        values = []
        for xj in (-40.0, -400.0, -12_904.66):
            z = z0.copy()
            z[pos] = xj
            values.append(target(z))
            assert propose(pos, xj) == values[-1]
        assert values[0] < target(z0)
        for before, after in zip(values, values[1:]):
            assert after == -np.inf or after < before

    def test_precision_overflow_is_minus_inf_without_warning(self, bundled):
        # log l11 = 800 overflows exp, and steps of 1e3 on log l11 take P
        # past the float range both ways; no errstate here, so a
        # RuntimeWarning fails the test
        model, z0 = bundled
        d = z0.size
        pos_chol = d - 3
        targets = self._targets(model)
        z = z0.copy()
        z[pos_chol] = 800.0
        for name, target in targets.items():
            assert target(z) == -np.inf, name
        _, propose, _ = targets["cached"].coordinate_moves(z0)
        assert propose(pos_chol, 800.0) == -np.inf
        scales = np.full(d, 0.05)
        scales[pos_chol] = 1e3
        cfg = McmcConfig(chain_length=40, burn_in=0, step_scales=scales, seed=2)
        runs = {}
        for name in ("full", "cached"):
            log = []
            runs[name] = oracle.metropolis_sample(
                _recorded(targets[name], log), z0, cfg, adapt_sweeps=0), log
        for run, log in runs.values():
            assert np.all(run.draws[:, pos_chol] == z0[pos_chol])  # never accepted
            assert sum(np.isneginf(value) for _, value in log) >= 30
        assert np.array_equal(runs["cached"][0].draws, runs["full"][0].draws)


def _serial_rerun(model, sol, direction, step, config):
    """The mcmc engine's result rebuilt in this process: the chain at alpha,
    then the chain at the perturbed alpha, in turn."""
    alpha, layout = model.hyperparams, model.layout
    z0 = layout.sampler_from_values(layout.representative_values(sol.mean))
    perturbed = dataclasses.replace(model, hyperparams=alpha.perturbed(direction, step))
    runs = [oracle.metropolis_sample(oracle.sampler_log_target(m), z0, config)
            for m in (model, perturbed)]
    base, pert = (layout.suff_stats_of_sampler_matrix(r.draws) for r in runs)
    diff = (pert - base) / step
    chains = {role: {"acceptance_rate": r.acceptance_rate, "min_ess": float(np.min(r.ess))}
              for role, r in zip(("base", "perturbed"), runs)}
    return diff.mean(axis=0), oracle.batch_means_se(diff)[0], chains


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestPerturbAndRerun:
    def test_quadrature_engine_exact_for_gaussian(self, nn_model):
        res = oracle.perturb_and_rerun(nn_model, {"prior_nat_1": 1.0},
                                       engine="quadrature")
        assert abs(res.slope - 1.0) < 1e-3
        assert np.all(res.mc_standard_errors > 0)

    def test_vb_engine_exact_derivative(self, nn_model):
        res = oracle.perturb_and_rerun(nn_model, {"prior_nat_2": 1.0}, engine="vb")
        assert abs(res.slope - 1.0) < 1e-4

    def test_mcmc_engine_couples_chains(self, nn_model):
        res = oracle.perturb_and_rerun(
            nn_model, {"prior_nat_1": 1.0}, engine="mcmc", step=0.3,
            mcmc_config=McmcConfig(chain_length=30_000, burn_in=5_000, seed=3))
        assert res.correlation > 0.95
        assert np.all(np.abs(res.actual_deltas - res.predicted_deltas)
                      < 5.0 * res.mc_standard_errors + 1e-3)
        assert set(res.chains) == {"base", "perturbed"}
        for chain in res.chains.values():
            assert 0.3 < chain["acceptance_rate"] < 0.6
            assert 1.0 < chain["min_ess"] <= 25_000
        assert res.restricted(["theta"]).chains == res.chains

    def test_result_alignment(self, nn_model):
        res = oracle.perturb_and_rerun(nn_model, {"prior_nat_1": 1.0}, engine="vb")
        assert res.names == tuple(nn_model.layout.coord_names())
        assert (res.predicted_deltas.shape == res.actual_deltas.shape
                == res.mc_standard_errors.shape)
        assert res.chains is None
        sub = res.restricted(["theta"])
        assert sub.names == ("theta",)
        assert sub.predicted_deltas[0] == res.predicted_deltas[0]

    def test_unknown_name_lists_valid_keys(self, nn_model):
        # without a step, the default-step computation raised a bare KeyError
        for step in (None, 0.1):
            with pytest.raises(KeyError, match="valid keys"):
                oracle.perturb_and_rerun(nn_model, {"nope": 1.0}, "vb", step=step)

    def test_unknown_engine(self, nn_model):
        with pytest.raises(DomainError):
            oracle.perturb_and_rerun(nn_model, {"prior_nat_1": 1.0}, engine="exact")

    @pytest.mark.parametrize("direction, step", [
        ({"prior_nat_1": 0.0}, None), ({"prior_nat_1": 0.0, "prior_nat_2": 0.0}, 1.0),
        ({"prior_nat_1": np.nan}, None), ({"prior_nat_1": 1.0}, 0.0),
        ({"prior_nat_1": 1.0}, np.nan), ({"prior_nat_1": 1.0}, -np.inf)])
    def test_degenerate_direction_or_step_rejected(self, nn_model, direction, step):
        with pytest.raises(DomainError):
            oracle.perturb_and_rerun(nn_model, direction, engine="vb", step=step)

    # the mcmc engine runs the perturbed chain in a forked child

    @pytest.fixture(scope="class")
    def bundled(self):
        model = build_microcredit_model(load_microcredit_csv(BUNDLED_CSV))
        return model, mfvb.fit(model)

    @pytest.mark.parametrize("which", ["nn", "bundled"])
    def test_fork_changes_no_result(self, nn_model, bundled, which):
        if which == "nn":
            model, sol = nn_model, mfvb.fit(nn_model)
            direction, step = {"prior_nat_1": 1.0}, 0.3
        else:
            (model, sol), direction, step = bundled, {"prior_info_11": 1.0}, 1.0
        config = McmcConfig(chain_length=1500, burn_in=300, seed=2)
        res = oracle.perturb_and_rerun(model, direction, "mcmc", step=step, sol=sol,
                                       mcmc_config=config)
        actual, se, chains = _serial_rerun(model, sol, direction, step, config)
        assert np.array_equal(res.actual_deltas, actual)
        assert np.array_equal(res.mc_standard_errors, se)
        assert res.chains["base"] == chains["base"]
        assert res.chains["perturbed"] == chains["perturbed"]
        # swapping the two roles would change both
        assert np.any(actual != 0) and chains["base"] != chains["perturbed"]
        _no_child_left()

    def test_child_error_reraised_in_parent(self, nn_model):
        # the perturbed target is -inf at z0; the base target is not
        direction, step = {"prior_nat_1": 1.0}, 1e300
        sol = mfvb.fit(nn_model)
        config = McmcConfig(chain_length=200, burn_in=50)
        with pytest.raises(DomainError) as serial:
            _serial_rerun(nn_model, sol, direction, step, config)
        with pytest.raises(DomainError) as forked:
            oracle.perturb_and_rerun(nn_model, direction, "mcmc", step=step, sol=sol,
                                     mcmc_config=config)
        assert str(forked.value) == str(serial.value) == (
            "log target not finite at the initial point")
        _no_child_left()

    @pytest.fixture
    def before_sampling(self, monkeypatch):
        """before_sampling(hook): metropolis_sample first calls
        hook(in_parent), True in this process and False in the forked child."""
        parent, sample = os.getpid(), oracle.metropolis_sample

        def install(hook):
            def sampler(*args, **kwargs):
                hook(os.getpid() == parent)
                return sample(*args, **kwargs)

            monkeypatch.setattr(oracle, "metropolis_sample", sampler)

        return install

    @pytest.mark.parametrize("exc", [DegenerateChain("parent chain"), KeyboardInterrupt()])
    def test_parent_error_kills_and_reaps_the_child(self, nn_model, before_sampling, exc):
        def hook(in_parent):
            if in_parent:
                raise exc

        before_sampling(hook)
        # a child left to finish its chain would take tens of seconds
        config = McmcConfig(chain_length=3_000_000, burn_in=0)
        start = time.perf_counter()
        with pytest.raises(type(exc)) as info:
            oracle.perturb_and_rerun(nn_model, {"prior_nat_1": 1.0}, "mcmc", step=0.3,
                                     mcmc_config=config)
        assert info.value is exc
        assert time.perf_counter() - start < 5.0
        _no_child_left()

    def test_base_chain_error_wins(self, nn_model, before_sampling):
        def hook(in_parent):
            raise DegenerateChain("base" if in_parent else "perturbed")

        before_sampling(hook)
        with pytest.raises(DegenerateChain, match="^base$"):
            oracle.perturb_and_rerun(nn_model, {"prior_nat_1": 1.0}, "mcmc", step=0.3,
                                     mcmc_config=McmcConfig(chain_length=300, burn_in=50))
        _no_child_left()

    def test_child_degenerate_chain_exits_3(self, before_sampling, tmp_path, capsys):
        def hook(in_parent):
            if not in_parent:
                raise DegenerateChain("perturbed chain degenerate")

        before_sampling(hook)
        out = tmp_path / "cmp.json"
        code = cli.main(["compare", "--model", "normal-normal", "--engine", "mcmc",
                         "--direction", "prior_nat_1=1", "--step", "0.3",
                         "--chain-length", "300", "--burn-in", "50", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure [DegenerateChain]: perturbed chain degenerate\n")
        assert not out.exists()
        _no_child_left()

    def test_child_warnings_issued_in_parent(self, nn_model, before_sampling):
        before_sampling(lambda in_parent: warnings.warn(
            "from parent" if in_parent else "from child"))
        with pytest.warns(UserWarning) as record:
            oracle.perturb_and_rerun(nn_model, {"prior_nat_1": 1.0}, "mcmc", step=0.3,
                                     mcmc_config=McmcConfig(chain_length=300, burn_in=50))
        assert [str(w.message) for w in record] == ["from parent", "from child"]
        _no_child_left()

    def test_stdio_buffer_written_once(self):
        # stdout to a pipe is block-buffered: a child that flushed the
        # buffer it inherited would write the line a second time
        script = ("import numpy as np\n"
                  "from lrvb import oracle\n"
                  "from lrvb.models import normal_normal_model\n"
                  "print('written once')\n"
                  f"model = normal_normal_model(np.array({NN_DATA.tolist()}), 1.0, "
                  "('moment', 0.0, 1.0))\n"
                  "oracle.perturb_and_rerun(model, {'prior_nat_1': 1.0}, 'mcmc', step=0.3,"
                  " mcmc_config=oracle.McmcConfig(chain_length=300, burn_in=50))\n")
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        env.pop("PYTHONUNBUFFERED", None)
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "written once\n"
