import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrvb import cli, expfam, linear_response, mfvb, oracle, robustness
from lrvb.errors import DomainError
from lrvb.expfam import FAMILIES, Family
from lrvb.mfvb import Hyperparams
from lrvb.models import (build_microcredit_model, load_microcredit_csv,
                         save_microcredit_csv, simulate_microcredit)
from lrvb.models import microcredit
from lrvb.models.microcredit import (DEFAULT_PRIORS, MicrocreditData,
                                     MicrocreditParams)
from lrvb.oracle import McmcConfig
from lrvb.util import fd_jacobian, is_pos_def

from conftest import BUNDLED_CSV, TRUTH, sites_model
from test_microcredit_reference import loop_reference


def closed_over(fn, name):
    """The current value of the variable ``name`` that the closure fn reads."""
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


def study_model(n_sites, tmp_path):
    """The bundled 7-site study, or the benchmark's seeded study of n_sites."""
    if n_sites == 7:
        return build_microcredit_model(load_microcredit_csv(BUNDLED_CSV))
    return sites_model(tmp_path, n_sites)


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

    def test_sampler_hook_is_the_only_pointwise_posterior(self, micro_model):
        # the sampling oracles read the hook itself; the quadrature oracle
        # does not take this model; sensitivities difference grad_log_prior,
        # so no field holds a hand-written alpha-derivative either
        alpha = micro_model.hyperparams
        fields = {f.name for f in dataclasses.fields(micro_model)}
        assert not fields & {"log_lik_values", "log_prior_values", "prior_alpha_grad"}
        target = oracle.sampler_log_target(micro_model)
        assert hasattr(target, "coordinate_moves")
        layout = micro_model.layout
        z = layout.sampler_from_values(
            layout.representative_values(micro_model.default_init(alpha)))
        assert target(z) == micro_model.sampler_log_posterior(alpha)(z)
        oracle.check_rerun_inputs(micro_model, "mcmc", {"prior_info_11": 1.0})
        with pytest.raises(DomainError):
            oracle.check_rerun_inputs(micro_model, "quadrature", {"prior_info_11": 1.0})

    def test_expected_log_prior_matches_monte_carlo(self, micro_model, micro_fit):
        # exercises every closed-form moment in the objective, including
        # the decomposed covariance terms, against the per-site loop
        # reference's pointwise log prior
        sol, _ = micro_fit
        log_prior_values = loop_reference(micro_model.data)["log_prior_values"]
        layout = micro_model.layout
        rng = np.random.default_rng(17)
        n = 40_000
        draws = {}
        for b, mb in zip(layout.blocks, layout.split(sol.mean)):
            fam = FAMILIES[b.family]
            draws[b.name] = fam.sample(fam.natural_from_mean(np.asarray(mb), b.var_dim), n, rng)
        vals = np.empty(n)
        for i in range(n):
            values = {nm: (arr[i] if arr.ndim > 1 else float(arr[i]))
                      for nm, arr in draws.items()}
            vals[i] = log_prior_values(values, micro_model.hyperparams)
        se = vals.std() / np.sqrt(n)
        expect = micro_model.expected_log_prior(sol.mean, micro_model.hyperparams)
        assert abs(vals.mean() - expect) < 3.0 * se


class TestPriorMemos:
    """The model solves the Wishart (dof, scale) once per distinct
    effect-precision means and validates alpha once per alpha."""

    @pytest.fixture(scope="class")
    def bundled(self):
        """The bundled study and its fitted means."""
        data = load_microcredit_csv(BUNDLED_CSV)
        return data, mfvb.fit(build_microcredit_model(data)).mean

    @pytest.fixture
    def solves(self, monkeypatch):
        wishart = FAMILIES[Family.WISHART]
        calls = []
        solve = wishart.standard_from_mean

        def counted(m):
            calls.append(np.array(m))
            return solve(m)

        monkeypatch.setattr(wishart, "standard_from_mean", counted)
        return calls

    def test_one_wishart_solve_per_point(self, bundled, solves):
        data, m = bundled
        model = build_microcredit_model(data)
        alpha = model.hyperparams
        wis = model.layout.slice_of("effect_prec")
        for point in (m, m + 1e-3 * (np.arange(m.size) == wis.start)):
            solves.clear()
            value = model.expected_log_prior(point, alpha)
            grad = model.grad_log_prior(point, alpha)
            robustness.prior_direction_gradient(model, point, {"scale_rate": 1.0})
            assert len(solves) == 1
            fresh = build_microcredit_model(data)
            assert value == fresh.expected_log_prior(point, alpha)
            assert np.array_equal(grad, fresh.grad_log_prior(point, alpha))
        solves.clear()
        linear_response.hessian_of_objective(model, m)
        assert 8 <= len(solves) <= 10

    @pytest.mark.parametrize("n_sites", [7, 30])
    def test_wishart_moments_are_those_of_wishart_expectations(self, n_sites, tmp_path):
        # one copy of E[log S_jj] and E[1/S_jj]: the memo's arrays are, bit
        # for bit, those of wishart_expectations at the block's (dof, scale)
        model = study_model(n_sites, tmp_path)
        wishart_terms = closed_over(model.expected_log_prior, "wishart_terms")
        wis = model.layout.slice_of("effect_prec")
        wishart = FAMILIES[Family.WISHART]
        rng = np.random.default_rng(n_sites)
        m = model.default_init(model.hyperparams)
        for _ in range(20):
            a = rng.normal(size=(2, 2))
            m[wis] = wishart.mean_from_standard(np.exp(rng.uniform(np.log(3.01), np.log(1e3))),
                                                np.exp(rng.normal()) * (a @ a.T + 0.1 * np.eye(2)))
            log_terms, inv_terms, _ = wishart_terms(m)
            w = expfam.wishart_expectations(*wishart.standard_from_mean(m[wis]))
            assert np.array_equal(log_terms, w.log_sigma_diag)
            assert np.array_equal(inv_terms, w.inv_sigma_diag)

    def test_one_jacobian_build_per_point_of_h(self, bundled, monkeypatch):
        # H's 32 gradient calls move the effect_prec means in 8 of them, so
        # the mean-coordinate Jacobian is built at those points and once at
        # the fitted means: the effect_prec columns are differenced last
        data, m = bundled
        model = build_microcredit_model(data)
        builds = []
        multitrigamma = microcredit.multitrigamma
        monkeypatch.setattr(microcredit, "multitrigamma",
                            lambda *args: builds.append(args) or multitrigamma(*args))
        linear_response.hessian_of_objective(model, m)
        assert len(builds) == 9

    def test_failing_wishart_solve_is_not_kept(self, bundled, solves):
        data, m = bundled
        model = build_microcredit_model(data)
        alpha = model.hyperparams
        bad = m.copy()
        bad[model.layout.slice_of("effect_prec").stop - 1] -= 10.0  # dof <= K+1
        for _ in range(2):
            with pytest.raises(DomainError, match="degrees of freedom"):
                model.expected_log_prior(bad, alpha)
        assert len(solves) == 2
        assert np.isfinite(model.expected_log_prior(m, alpha))

    def test_alpha_validated_once(self, bundled, monkeypatch):
        data, m = bundled
        model = build_microcredit_model(data)
        checks = []
        monkeypatch.setattr(microcredit, "is_pos_def",
                            lambda a: checks.append(a) or is_pos_def(a))
        for alpha in (model.hyperparams, DEFAULT_PRIORS.with_updates(lkj_shape=3.0)):
            for _ in range(3):
                model.expected_log_prior(m, alpha)
                model.grad_log_prior(m, alpha)
                model.prior_block_logpdf["top"](np.zeros(2), alpha)
        assert len(checks) == 1  # the second alpha; the defaults were checked at build

    @pytest.mark.parametrize("update", [{"prior_info_11": -1.0},
                                        {"prior_info_12": np.nan},
                                        {"noise_rate": 0.0}])
    def test_invalid_alpha_raises_on_every_call(self, bundled, update):
        data, m = bundled
        model = build_microcredit_model(data)
        bad = DEFAULT_PRIORS.with_updates(**update)
        for _ in range(2):
            with pytest.raises(DomainError):
                model.expected_log_prior(m, bad)
        model.grad_log_prior(m, model.hyperparams)
        for _ in range(2):
            with pytest.raises(DomainError):
                model.prior_block_logpdf["top"](np.zeros(2), bad)


class TestPriorDomain:
    """Where expected_log_prior raises DomainError, grad_log_prior does too:
    prior_direction_gradient's one-sided difference relies on it."""

    @pytest.mark.parametrize("name, update", [
        ("nn", {"prior_nat_2": 0.5}), ("nn", {"prior_nat_1": np.nan}),
        ("nig", {"prior_obs": -1.0}),
        # eigenvalues -1.82, -0.73 and 2.05: det > 0, so a sign test passed it
        ("gaussian3d", {"info_11": -1.0, "info_22": -1.5}),
        ("micro", {"prior_info_11": -1.0})],
        ids=["nn-positive", "nn-nan", "nig", "gaussian3d", "micro"])
    def test_both_hooks_raise(self, request, name, update):
        model = (cli.MODELS[name](None, {}) if name == "gaussian3d"
                 else request.getfixturevalue(f"{name}_model"))
        m = model.default_init(model.hyperparams)
        bad = model.hyperparams.with_updates(**update)
        for hook in (model.expected_log_prior, model.grad_log_prior):
            with pytest.raises(DomainError):
                hook(m, bad)
        if name == "gaussian3d":
            with pytest.raises(DomainError, match="positive definite"):
                model.default_init(bad)


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
        # blank lines are skipped, as csv.DictReader skipped them
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + [""] + lines[2:] + ["", ""]) + "\n")
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


class TestSiteMoveSums:
    @pytest.mark.parametrize("n_sites", [7, 30])
    def test_kept_sums_follow_the_six_entry_rule(self, n_sites, tmp_path):
        # accepting a site move updates only the entries it changes (four for
        # an effect, three for a log noise variance); over a chain the kept
        # sums stay bit for bit those of adding all six entries' differences
        model = study_model(n_sites, tmp_path)
        layout = model.layout
        target = model.sampler_log_posterior(model.hyperparams)
        checked = []

        def coordinate_moves(x):
            resum, propose, accept = target.coordinate_moves(x)

            def checked_accept():
                _, k, changed, _ = closed_over(accept, "move")
                if k is None:  # (mu, tau) and precision moves
                    return accept()
                sums = list(closed_over(accept, "sums"))
                old = list(closed_over(accept, "rows")[k])
                new = list(old)
                for i, value in changed:
                    new[i] = value
                six_entry = [s + (a - b) for s, a, b in zip(sums, new, old)]
                accept()
                kept = closed_over(accept, "sums")
                assert np.array(kept).tobytes() == np.array(six_entry).tobytes()
                assert closed_over(accept, "rows")[k] == new
                checked.append(len(changed))

            return resum, propose, checked_accept

        def log_target(z):
            return target(z)

        log_target.coordinate_moves = coordinate_moves
        z0 = layout.sampler_from_values(layout.representative_values(
            model.default_init(model.hyperparams)))
        oracle.metropolis_sample(log_target, z0,
                                 McmcConfig(chain_length=300, burn_in=0, seed=n_sites),
                                 adapt_sweeps=100)
        assert checked.count(4) > 100 and checked.count(3) > 100
