import functools
import os
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats as st

from lrvb import mfvb, oracle
from lrvb.errors import (DegenerateChain, DomainError, NotConjugate,
                         QuadratureFailure)
from lrvb.models import (build_microcredit_model, load_microcredit_csv,
                         normal_normal_model)
from lrvb.oracle import McmcConfig

BUNDLED_CSV = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "data", "microcredit_synthetic.csv")


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


class TestMetropolis:
    def _logpost(self, model):
        return oracle.sampler_log_target(model, model.hyperparams)

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
            McmcConfig(chain_length=10, burn_in=2, step_scales=-1.0, seed=0)

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


def _recorded(target, log):
    """The target with every value the sampler reads from it appended to
    ``log``: ("full", value) per call and per rebuild of its cached moves,
    and ("move", value) per cached proposal."""
    @functools.wraps(target)
    def recorded(z):
        value = target(z)
        log.append(("full", value))
        return value

    moves = getattr(target, "coordinate_moves", None)
    if moves is not None:
        def coordinate_moves(x):
            f, propose, accept = moves(x)
            log.append(("full", f))

            def recorded_propose(j, xj):
                value = propose(j, xj)
                log.append(("move", value))
                return value

            return f, recorded_propose, accept

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
            _, f = next(values)  # the rebuilt moves' value at the sweep's start
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
        generic = oracle.sampler_log_target(
            replace(model, sampler_log_posterior=None), alpha)
        # a re-wrap like the benchmark tracer's, which keeps only __dict__
        shim = functools.wraps(cached)(lambda z: cached(z))
        return {"generic": generic, "cached": cached, "shim": shim}

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
            assert moves == (0 if name == "generic" else sweeps * d)
            runs[name] = draws, log
        ref_draws, ref_log = runs.pop("generic")
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
        with np.errstate(over="ignore", invalid="ignore"):
            for name in ("generic", "cached"):
                log = []
                runs[name] = oracle.metropolis_sample(
                    _recorded(targets[name], log), z0, cfg, adapt_sweeps=0), log
        huge = [2, 2 + 2 * k_sites]
        for run, log in runs.values():
            assert np.all(run.draws[:, huge] == z0[huge])  # never accepted
            assert sum(np.isneginf(value) for _, value in log) > 10
        assert np.array_equal(runs["cached"][0].draws, runs["generic"][0].draws)

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
        for name in ("generic", "cached"):
            log = []
            runs[name] = oracle.metropolis_sample(
                _recorded(targets[name], log), z0, cfg, adapt_sweeps=0), log
        for run, log in runs.values():
            assert np.all(run.draws[:, pos_chol] == z0[pos_chol])  # never accepted
            assert sum(np.isneginf(value) for _, value in log) >= 30
        assert np.array_equal(runs["cached"][0].draws, runs["generic"][0].draws)


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
