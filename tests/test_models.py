import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrvb import mfvb, oracle
from lrvb.errors import DomainError
from lrvb.mfvb import Hyperparams
from lrvb.models import (build_microcredit_model, load_microcredit_csv,
                         save_microcredit_csv, simulate_microcredit)
from lrvb.models.microcredit import (DEFAULT_PRIORS, MicrocreditData,
                                     MicrocreditParams)
from lrvb.util import fd_jacobian

from conftest import TRUTH


class TestBuild:
    def test_default_priors(self):
        expect = {"prior_info_11": 0.02, "prior_info_12": 0.0,
                  "prior_info_22": 0.02, "lkj_shape": 15.01,
                  "scale_shape": 20.01, "scale_rate": 20.01,
                  "noise_shape": 2.01, "noise_rate": 2.01}
        assert dict(DEFAULT_PRIORS) == expect

    def test_single_site_rejected(self):
        data = simulate_microcredit(
            MicrocreditParams(0.0, 0.0, np.eye(2) * 0.1, np.array([1.0])),
            20, seed=0)
        with pytest.raises(DomainError):
            build_microcredit_model(data)

    def test_elbo_finite_at_prior_init(self, micro_model):
        m0 = micro_model.default_init(micro_model.hyperparams)
        assert np.isfinite(mfvb.elbo(micro_model, m0))

    def test_invalid_priors_rejected(self, micro_data):
        with pytest.raises(DomainError):
            build_microcredit_model(
                micro_data, DEFAULT_PRIORS.with_updates(prior_info_11=-1.0))

    def test_gradients_match_finite_differences(self, micro_model):
        m0 = micro_model.default_init(micro_model.hyperparams)
        m = m0 + 0.01 * np.cos(np.arange(m0.size))
        gl = micro_model.grad_log_lik(m)
        gl_fd = fd_jacobian(lambda x: np.array([micro_model.expected_log_lik(x)]),
                            m, rel_step=1e-7)[0]
        assert np.max(np.abs(gl - gl_fd)) / max(1, np.max(np.abs(gl_fd))) < 1e-7
        gp = micro_model.grad_log_prior(m, micro_model.hyperparams)
        gp_fd = fd_jacobian(
            lambda x: np.array([micro_model.expected_log_prior(x, micro_model.hyperparams)]),
            m, rel_step=1e-7)[0]
        assert np.max(np.abs(gp - gp_fd)) / max(1, np.max(np.abs(gp_fd))) < 1e-7

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.lists(st.integers(1, 30), min_size=2, max_size=6),
           st.lists(st.floats(-1.0, 1.5), min_size=7, max_size=7),
           st.floats(-0.9, 0.9), st.integers(0, 2 ** 32 - 1))
    def test_random_data_gradients_match_finite_differences(self, rows, log10_priors,
                                                            corr, seed):
        # random sites, rows and priors inside the domain; the gradient of
        # the expected log joint at a random interior mean vector.  The gap
        # is the differences' truncation error, which shrinks as the step
        # squared: the worst of 300 random cases was 6.8e-7 at the default
        # step and 6.8e-9 at a tenth of it
        rng = np.random.default_rng(seed)
        site = np.repeat(np.arange(len(rows)), rows)
        data = MicrocreditData(site, rng.integers(0, 2, site.size),
                               rng.normal(1.0, 3.0, site.size), n_sites=len(rows))
        info_11, info_22, *shapes = 10.0 ** np.asarray(log10_priors)
        alpha = DEFAULT_PRIORS.with_updates(
            prior_info_11=info_11, prior_info_22=info_22,
            prior_info_12=corr * np.sqrt(info_11 * info_22),
            **dict(zip(("lkj_shape", "scale_shape", "scale_rate", "noise_shape",
                        "noise_rate"), shapes)))
        model = build_microcredit_model(data, alpha)
        layout = model.layout
        z0 = layout.unconstrained_from_mean(model.default_init(alpha))
        m = layout.mean_from_unconstrained(z0 + rng.normal(scale=0.3, size=z0.size))
        grad = model.grad_log_lik(m) + model.grad_log_prior(m, alpha)
        fd = fd_jacobian(lambda x: np.array([model.expected_log_lik(x)
                                             + model.expected_log_prior(x, alpha)]), m)[0]
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_alpha_cross_gradient_matches_fd(self, micro_model, micro_fit):
        sol, _ = micro_fit
        alpha = micro_model.hyperparams
        for name in alpha.names:
            d = {name: 1.0}
            analytic = micro_model.prior_alpha_grad(sol.mean, alpha, d)
            h = 1e-6 * max(1.0, abs(alpha[name]))
            fd = (micro_model.grad_log_prior(sol.mean, alpha.perturbed(d, h))
                  - micro_model.grad_log_prior(sol.mean, alpha.perturbed(d, -h))) / (2 * h)
            assert np.max(np.abs(analytic - fd)) < 1e-5 * max(1, np.max(np.abs(fd)))

    def test_expected_log_prior_matches_monte_carlo(self, micro_model, micro_fit):
        # exercises every closed-form moment in the objective, including
        # the decomposed covariance terms
        sol, _ = micro_fit
        layout = micro_model.layout
        rng = np.random.default_rng(17)
        n = 40_000
        from lrvb import expfam as ef
        draws = {}
        for b, mb in zip(layout.blocks, layout.split(sol.mean)):
            blk = ef.ExpFamBlock.from_mean(b.family, np.asarray(mb))
            draws[b.name] = ef.sample_block(blk, n, rng)
        vals = np.empty(n)
        for i in range(n):
            values = {nm: (arr[i] if arr.ndim > 1 else float(arr[i]))
                      for nm, arr in draws.items()}
            vals[i] = micro_model.log_prior_values(values, micro_model.hyperparams)
        se = vals.std() / np.sqrt(n)
        expect = micro_model.expected_log_prior(sol.mean, micro_model.hyperparams)
        assert abs(vals.mean() - expect) < 3.0 * se

    def test_sampler_log_posterior_matches_generic(self, micro_model):
        layout = micro_model.layout
        alpha = micro_model.hyperparams
        fast = micro_model.sampler_log_posterior(alpha)
        z0 = layout.sampler_from_values(
            layout.representative_values(micro_model.default_init(alpha)))
        rng = np.random.default_rng(5)
        for _ in range(25):
            z = z0 + 0.3 * rng.normal(size=z0.size)
            values, lj = layout.values_from_sampler(z)
            generic = (micro_model.log_lik_values(values)
                       + micro_model.log_prior_values(values, alpha) + lj)
            assert abs(fast(z) - generic) < 1e-9 * max(1.0, abs(generic))


class TestSimulate:
    def test_deterministic(self):
        a = simulate_microcredit(TRUTH, 50, seed=9)
        b = simulate_microcredit(TRUTH, 50, seed=9)
        assert np.array_equal(a.outcome, b.outcome)
        assert np.array_equal(a.treatment, b.treatment)

    def test_recovers_truth_with_big_sites(self):
        # tight effect spread and huge sites: fitted top-level means land
        # within a few corrected posterior sds of the generating values
        truth = MicrocreditParams(1.0, 0.5,
                                  np.array([[0.04, 0.005], [0.005, 0.02]]),
                                  np.full(7, 1.0))
        data = simulate_microcredit(truth, 10_000, seed=1)
        model = build_microcredit_model(data)
        sol = mfvb.fit(model)
        from lrvb import linear_response
        sys = linear_response.build_system(model, sol)
        for name, target in [("mu", truth.mu), ("tau", truth.tau)]:
            i = model.layout.coord_index(name)
            sd = np.sqrt(sys.sigma_hat[i, i])
            assert abs(sol.mean[i] - target) < 3.0 * sd

    def test_all_control_still_converges(self):
        data = simulate_microcredit(TRUTH, 60, seed=3, treat_fraction=0.0)
        model = build_microcredit_model(data)
        sol = mfvb.fit(model)
        assert sol.converged
        # with no treated units the effect coordinate falls back to the
        # hierarchical pool around the top-level effect
        i = model.layout.coord_index("tau_site1")
        assert np.isfinite(sol.mean[i])

    def test_csv_round_trip(self, micro_data, tmp_path):
        path = tmp_path / "data.csv"
        save_microcredit_csv(micro_data, path)
        back = load_microcredit_csv(path)
        assert np.array_equal(back.site, micro_data.site)
        assert np.array_equal(back.treatment, micro_data.treatment)
        assert np.array_equal(back.outcome, micro_data.outcome)

    def test_validation(self):
        with pytest.raises(DomainError):
            MicrocreditData(np.array([0, 1]), np.array([0, 2]),
                            np.array([1.0, 2.0]), n_sites=2)
        with pytest.raises(DomainError):
            MicrocreditData(np.array([0, 0]), np.array([0, 1]),
                            np.array([np.inf, 2.0]), n_sites=1)
        with pytest.raises(DomainError):
            MicrocreditParams(0.0, 0.0, np.eye(2), np.array([-1.0]))


class TestAgainstMcmc:
    def test_vb_means_within_monte_carlo_error(self, micro_model, micro_fit):
        sol, _ = micro_fit
        layout = micro_model.layout
        alpha = micro_model.hyperparams
        target = micro_model.sampler_log_posterior(alpha)
        z0 = layout.sampler_from_values(layout.representative_values(sol.mean))
        cfg = oracle.McmcConfig(chain_length=60_000, burn_in=10_000, seed=21)
        run = oracle.metropolis_sample(target, z0, cfg, adapt_sweeps=800)
        stats = layout.suff_stats_of_sampler_matrix(run.draws)
        se, _ = oracle.batch_means_se(stats)
        names = layout.coord_names()
        means = stats.mean(axis=0)
        # 3 MC standard errors plus a 0.2% relative floor: the factorized
        # approximation carries an O(1e-3) bias on concentrated noise
        # precisions, which chains with ESS ~ 1e4 can resolve
        for name in (["mu", "tau"]
                     + [f"mu_site{j+1}" for j in range(7)]
                     + [f"tau_site{j+1}" for j in range(7)]
                     + [f"1/sigma2_site{j+1}" for j in range(7)]):
            i = names.index(name)
            bound = 3.0 * se[i] + 0.002 * abs(means[i])
            assert abs(sol.mean[i] - means[i]) < bound, name
        # the effect-precision block is the least well approximated factor;
        # tolerance relaxed tenfold and flagged
        for i in range(layout.slice_of("effect_prec").start, layout.dim):
            gap = abs(sol.mean[i] - means[i])
            bound = 10.0 * (3.0 * se[i] + 0.002 * abs(means[i]))
            assert gap < bound, f"{names[i]}: {gap} vs {bound}"
