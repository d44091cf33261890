import dataclasses

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

from lrvb import linear_response, mfvb, oracle
from lrvb import robustness as rb
from lrvb.errors import DomainError, ZeroPriorDensity
from lrvb.expfam import FAMILIES
from lrvb.models import gaussian_target_model, normal_normal_model
from lrvb.oracle import quadrature_expectation


class TestHyperparamSensitivity:
    def test_conjugate_identity_bit_exact(self, nn_model, nn_fit):
        # natural hyperparameters multiply the statistics directly, so
        # the sensitivity is literally a covariance column
        sol, sys = nn_fit
        for j, name in enumerate(["prior_nat_1", "prior_nat_2"]):
            sens = rb.hyperparam_sensitivity(nn_model, sol, sys, {name: 1.0})
            assert np.array_equal(sens, sys.sigma_hat[:, j])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(hst.lists(hst.floats(-10.0, 10.0), min_size=1, max_size=20),
           hst.floats(0.1, 10.0), hst.floats(-5.0, 5.0), hst.floats(0.1, 10.0))
    def test_random_conjugate_data_match_exact_derivative(self, data, noise_var,
                                                          prior_mean, prior_var):
        # Gaussian models make linear response exact, so the sensitivity
        # equals the derivative of the closed-form posterior mean
        model = normal_normal_model(np.array(data), noise_var,
                                    ("moment", prior_mean, prior_var))
        sol = mfvb.fit(model, opts=mfvb.FitOptions(tol=1e-11))
        sys = linear_response.build_system(model, sol)
        alpha = model.hyperparams
        exact = oracle.exact_conjugate_posterior(model).mean
        h = 1e-4 / (exact[1] - exact[0] ** 2)  # 2e-4 of the posterior precision
        for name in ("prior_nat_1", "prior_nat_2"):
            sens = rb.hyperparam_sensitivity(model, sol, sys, {name: 1.0})
            up, down = (oracle.exact_conjugate_posterior(
                model, alpha.perturbed({name: 1.0}, t)).mean for t in (h, -h))
            fd = (up - down) / (2.0 * h)
            assert np.max(np.abs(sens - fd)) <= 1e-6 * np.max(np.abs(fd)), name

    def test_matches_closed_form_posterior_derivative(self, nn_model, nn_fit):
        sol, sys = nn_fit
        # posterior N(0.8, 0.2): d mean / d nat_1 = variance, / d nat_2 = 2 mean var
        s1 = rb.hyperparam_sensitivity(nn_model, sol, sys, {"prior_nat_1": 1.0})
        s2 = rb.hyperparam_sensitivity(nn_model, sol, sys, {"prior_nat_2": 1.0})
        assert abs(s1[0] - 0.2) < 1e-8
        assert abs(s2[0] - 2.0 * 0.8 * 0.2) < 1e-8

    def test_fd_fallback_matches_analytic(self, nig_model, nig_fit):
        from dataclasses import replace
        sol, sys = nig_fit
        no_analytic = replace(nig_model, prior_alpha_grad=None)
        for name in ["prior_loc", "prior_obs", "prior_shape", "prior_rate"]:
            a = rb.hyperparam_sensitivity(nig_model, sol, sys, {name: 1.0})
            b = rb.hyperparam_sensitivity(no_analytic, sol, sys, {name: 1.0})
            assert np.max(np.abs(a - b)) < 1e-6 * max(1.0, np.max(np.abs(a)))

    def test_nig_against_refit_oracle(self, nig_model, nig_fit):
        sol, sys = nig_fit
        res = oracle.perturb_and_rerun(nig_model, {"prior_rate": 1.0}, engine="vb",
                                       sol=sol, sys=sys,
                                       fit_opts=mfvb.FitOptions(tol=1e-10))
        assert abs(res.slope - 1.0) < 1e-3

    def test_lkj_direction_against_refit(self, micro_model, micro_fit):
        # centered difference of the re-optimized effect mean over +-0.5
        sol, sys = micro_fit
        sens = rb.hyperparam_sensitivity(micro_model, sol, sys, {"lkj_shape": 1.0})
        i_tau = micro_model.layout.coord_index("tau")
        h = 0.5
        opts = mfvb.FitOptions(tol=1e-10)
        up = mfvb.fit(micro_model, init=sol.mean,
                      alpha=micro_model.hyperparams.perturbed({"lkj_shape": 1.0}, h),
                      opts=opts)
        dn = mfvb.fit(micro_model, init=sol.mean,
                      alpha=micro_model.hyperparams.perturbed({"lkj_shape": 1.0}, -h),
                      opts=opts)
        fd = (up.mean[i_tau] - dn.mean[i_tau]) / (2.0 * h)
        assert abs(sens[i_tau] - fd) / abs(fd) < 0.02


class TestInfluenceFunction:
    def test_zero_at_fitted_mean(self, nn_model, nn_fit):
        sol, sys = nn_fit
        vec = rb.influence_function(nn_model, sol, sys, "theta", sol.mean[0])
        assert np.all(vec == 0.0)

    def test_matches_contamination_oracle_on_grid(self, nn_model, nn_fit):
        sol, sys = nn_fit
        sd = np.sqrt(sol.mean[1] - sol.mean[0] ** 2)
        pts = sol.mean[0] + sd * np.linspace(-2.5, 2.5, 21)
        grid = rb.influence_grid(nn_model, sol, sys, "theta", pts)
        eps = 1e-4
        for pt, pred in zip(pts, grid[:, 0]):
            base = oracle.contaminated_posterior_mean(nn_model, "theta",
                                                      ("dirac", pt), 0.0)[0]
            d1 = (oracle.contaminated_posterior_mean(
                nn_model, "theta", ("dirac", pt), eps)[0] - base) / eps
            d2 = (oracle.contaminated_posterior_mean(
                nn_model, "theta", ("dirac", pt), eps / 2.0)[0] - base) / (eps / 2.0)
            richardson = 2.0 * d2 - d1
            if abs(richardson) > 1e-10:
                assert abs(pred - richardson) / abs(richardson) < 0.02

    def test_mixture_linearity(self, nn_model, nn_fit):
        # the contamination derivative is linear in the contaminant: a
        # two-component mixture equals the weighted sum of its parts
        sol, sys = nn_fit
        w1, w2 = 0.3, 0.7
        comp1 = lambda x: st.norm.logpdf(x, 0.2, 0.25)
        comp2 = lambda x: st.norm.logpdf(x, 1.5, 0.4)
        mix = lambda x: np.logaddexp(np.log(w1) + comp1(x), np.log(w2) + comp2(x))
        vals = {}
        for key, pc in [("mix", mix), ("c1", comp1), ("c2", comp2)]:
            spec = rb.ContaminationSpec("theta", ("density", pc))
            vals[key] = rb.contamination_sensitivity(nn_model, sol, sys, spec,
                                                     "theta")
        assert abs(vals["mix"] - (w1 * vals["c1"] + w2 * vals["c2"])) < 1e-9

    def test_grid_matches_dirac_contamination_bitwise(self, nn_model, nn_fit):
        sol, sys = nn_fit
        pts = np.linspace(-0.5, 2.0, 7)
        grid = rb.influence_grid(nn_model, sol, sys, "theta", pts)
        target = rb.resolve_target(nn_model.layout, "theta")
        for pt, row in zip(pts, grid):
            spec = rb.ContaminationSpec("theta", ("dirac", pt))
            val = rb.contamination_sensitivity(nn_model, sol, sys, spec, "theta")
            assert val == row[0]

    def test_zero_prior_density_rejected(self, nn_fit, nn_model):
        sol, sys = nn_fit
        with pytest.raises(ZeroPriorDensity):
            rb.influence_function(nn_model, sol, sys, "theta", 60.0)

    @pytest.mark.parametrize("name,block", [("nn", "theta"), ("micro", "top")])
    def test_rhs_matches_per_point_loop(self, request, name, block):
        # reference: the per-point loop the batched right-hand side replaced
        model = request.getfixturevalue(f"{name}_model")
        sol, sys = request.getfixturevalue(f"{name}_fit")
        alpha = model.hyperparams
        layout = model.layout
        bdef = layout.blocks[layout.block_index(block)]
        fam = FAMILIES[bdef.family]
        eta = fam.natural_from_mean(sys.mean[layout.slice_of(block)], bdef.var_dim)
        loc = layout.location_indices(block)
        rng = np.random.default_rng(5)
        pts = sys.mean[loc] + rng.normal(size=(50, loc.size))
        loop = np.zeros((layout.dim, len(pts)))
        for col, pt in enumerate(pts):
            val = pt[0] if loc.size == 1 else pt
            log_p = model.prior_block_logpdf[block](block, val, alpha)
            ratio = np.exp(float(fam.log_density(val, eta)) - log_p)
            loop[loc, col] = ratio * (pt - sys.mean[loc])
        rhs = rb._influence_rhs(model, sys, block, pts, alpha)
        # same formulas; a scalar power and the batched quadratic form may
        # round the last bit differently from their array counterparts
        assert np.allclose(rhs, loop, rtol=1e-14, atol=0.0)

    def test_zero_prior_density_rejected_within_grid(self, nn_fit, nn_model):
        # one underflowing point among many fails the whole grid and is named
        sol, sys = nn_fit
        with pytest.raises(ZeroPriorDensity, match="60.0"):
            rb.influence_grid(nn_model, sol, sys, "theta", [0.5, 60.0, 1.0])

    def test_dense_grid_calls_prior_once(self, micro_model, micro_fit):
        sol, sys = micro_fit
        calls = []
        hook = micro_model.prior_block_logpdf["top"]

        def counted(block, point, alpha):
            calls.append(np.shape(point))
            return hook(block, point, alpha)

        model = dataclasses.replace(micro_model, prior_block_logpdf={"top": counted})
        axes = [np.linspace(m - 3.0, m + 3.0, 201) for m in sol.mean[:2]]
        pts = np.column_stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")])
        grid = rb.influence_grid(model, sol, sys, "top", pts)
        assert calls == [(201 * 201, 2)]
        assert grid.shape == (201 * 201, sys.dim)

    def test_grid_parallel_matches_serial(self, micro_model, micro_fit, monkeypatch):
        sol, sys = micro_fit
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.normal(sol.mean[0], 1.0, 100),
                               rng.normal(sol.mean[1], 1.0, 100)])
        # a grid's values must not depend on how often it is computed or on
        # how its points are partitioned; LRVB_THREADS is set so that any
        # leftover reader of the old thread-pool knob would show up here
        monkeypatch.setenv("LRVB_THREADS", "4")
        whole = rb.influence_grid(micro_model, sol, sys, "top", pts)
        for _ in range(20):
            again = rb.influence_grid(micro_model, sol, sys, "top", pts)
            assert np.array_equal(whole, again)
        parts = [rb.influence_grid(micro_model, sol, sys, "top", chunk)
                 for chunk in np.array_split(pts, 4)]
        assert np.array_equal(np.vstack(parts), whole)


class TestPriorBlockLogpdf:
    """The hooks map an array of block values to an array of log densities."""

    @pytest.mark.parametrize("name,block,points", [
        ("nn", "theta", np.linspace(-4.0, 6.0, 37)),
        ("nig", "noise_var", np.geomspace(0.05, 40.0, 37)),
        ("micro", "top", np.column_stack([np.linspace(-3.0, 5.0, 37),
                                          np.linspace(2.0, -1.5, 37)])),
    ])
    def test_array_matches_per_point(self, request, name, block, points):
        model = request.getfixturevalue(f"{name}_model")
        hook = model.prior_block_logpdf[block]
        whole = hook(block, points, model.hyperparams)
        single = np.array([hook(block, pt, model.hyperparams) for pt in points])
        assert whole.shape == (len(points),)
        assert np.allclose(whole, single, rtol=1e-15, atol=0.0)

    def test_diagonal_gaussian_target_array_matches_per_point(self):
        model = gaussian_target_model(np.array([0.4, -1.0, 0.3]),
                                      np.diag([0.5, 2.0, 1.5]))
        points = np.linspace(-5.0, 5.0, 41)
        for block, hook in model.prior_block_logpdf.items():
            whole = hook(block, points, model.hyperparams)
            single = np.array([hook(block, x, model.hyperparams) for x in points])
            assert whole.shape == points.shape
            assert np.allclose(whole, single, rtol=1e-15, atol=0.0)

    def test_scalar_point_gives_float(self, nn_model, micro_model):
        alpha = nn_model.hyperparams
        assert isinstance(nn_model.prior_block_logpdf["theta"]("theta", 0.3, alpha), float)
        top = micro_model.prior_block_logpdf["top"]
        assert isinstance(top("top", np.array([0.3, 0.1]), micro_model.hyperparams), float)


@hst.composite
def influence_cases(draw):
    """A random normal-normal model, or a diagonal Gaussian target with
    d = 1-4, with one of its blocks to perturb."""
    unit = hst.floats(-1.0, 1.0, allow_subnormal=False)
    if draw(hst.booleans()):
        n = draw(hst.integers(1, 8))
        data = np.array([3.0 * draw(unit) for _ in range(n)])
        noise_var = 0.2 + 2.0 * (1.0 + draw(unit))
        prior_mean, prior_var = 2.0 * draw(unit), 0.3 + 2.0 * (1.0 + draw(unit))
        model = normal_normal_model(data, noise_var, ("moment", prior_mean, prior_var))
        return model, "theta", prior_mean, prior_var
    d = draw(hst.integers(1, 4))
    info = np.diag([0.3 + 1.5 * (1.0 + draw(unit)) for _ in range(d)])
    nat_loc = np.array([2.0 * draw(unit) for _ in range(d)])
    i = draw(hst.integers(0, d - 1))
    model = gaussian_target_model(nat_loc, info)
    return model, f"theta_{i+1}", nat_loc[i] / info[i, i], 1.0 / info[i, i]


class TestInfluenceProperty:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(influence_cases())
    def test_rows_over_density_ratio_are_linear(self, case):
        # q and p come from scipy.stats, and (I - VH)^-1 from numpy's dense
        # solve: nothing here shares the density code of lrvb
        model, block, prior_mean, prior_var = case
        sol = mfvb.fit(model, opts=mfvb.FitOptions(tol=1e-10))
        sys = linear_response.build_system(model, sol)
        loc = model.layout.location_indices(block)[0]
        fit_mean = sol.mean[loc]
        fit_sd = np.sqrt(sol.mean[loc + 1] - fit_mean ** 2)
        pts = fit_mean + fit_sd * np.linspace(-3.0, 3.0, 13)
        rows = rb.influence_grid(model, sol, sys, block, pts)
        q_over_p = np.exp(st.norm.logpdf(pts, fit_mean, fit_sd)
                          - st.norm.logpdf(pts, prior_mean, np.sqrt(prior_var)))
        unit = np.zeros(sys.dim)
        unit[loc] = 1.0
        coef = np.linalg.solve(np.eye(sys.dim) - sys.v @ sys.h, unit)
        expected = np.outer(pts - fit_mean, coef)
        err = np.max(np.abs(rows / q_over_p[:, None] - expected))
        assert err <= 1e-8 * np.max(np.abs(expected))


class TestContamination:
    def test_self_contamination_is_noop(self, nn_model, nn_fit):
        sol, sys = nn_fit
        spec = rb.ContaminationSpec(
            "theta", ("density", lambda x: st.norm.logpdf(x, 0.0, 1.0)))
        val = rb.contamination_sensitivity(nn_model, sol, sys, spec, "theta")
        assert abs(val) < 1e-10

    def test_narrow_density_converges_to_dirac(self, nn_model, nn_fit):
        sol, sys = nn_fit
        x0 = 1.3
        dirac = rb.influence_function(nn_model, sol, sys, "theta", x0)[0]
        vals = []
        for width in [0.3, 0.1, 0.03]:
            spec = rb.ContaminationSpec(
                "theta", ("density", lambda x, w=width: st.norm.logpdf(x, x0, w)))
            vals.append(rb.contamination_sensitivity(nn_model, sol, sys, spec, "theta"))
        gaps = np.abs(np.array(vals) - dirac)
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.05 * abs(dirac)

    def test_density_matches_quadrature_fd(self, nn_model, nn_fit):
        sol, sys = nn_fit
        pc = lambda x: st.norm.logpdf(x, 1.3, 0.2)
        spec = rb.ContaminationSpec("theta", ("density", pc))
        val = rb.contamination_sensitivity(nn_model, sol, sys, spec, "theta")
        eps = 1e-4
        base = oracle.contaminated_posterior_mean(nn_model, "theta",
                                                  ("density", pc), 0.0)[0]
        d1 = (oracle.contaminated_posterior_mean(
            nn_model, "theta", ("density", pc), eps)[0] - base) / eps
        d2 = (oracle.contaminated_posterior_mean(
            nn_model, "theta", ("density", pc), eps / 2.0)[0] - base) / (eps / 2.0)
        assert abs(val - (2.0 * d2 - d1)) / abs(2.0 * d2 - d1) < 0.02

    def test_density_on_coupled_block_matches_refit(self, nig_model, nig_fit):
        # contaminate the noise-variance prior: the objective Hessian has
        # cross-block terms, so this exercises the full correction column
        sol, sys = nig_fit
        pc = lambda v: st.invgamma.logpdf(v, 4.0, scale=5.0)
        spec = rb.ContaminationSpec("noise_var", ("density", pc))
        names = nig_model.layout.coord_names()
        predicted = {t: rb.contamination_sensitivity(nig_model, sol, sys, spec, t)
                     for t in names}
        eps = 2e-3
        opts = mfvb.FitOptions(tol=1e-10)
        deltas = {}
        for e in (eps, eps / 2.0):
            pert = oracle.contaminated_model(nig_model, "noise_var", pc, e)
            pfit = mfvb.fit(pert, init=sol.mean, opts=opts)
            deltas[e] = (pfit.mean - sol.mean) / e
        richardson = 2.0 * deltas[eps / 2.0] - deltas[eps]
        scale = np.max(np.abs(richardson))
        for target, val in predicted.items():
            ref = richardson[names.index(target)]
            # responding coordinates agree to 2%; the location coordinate
            # legitimately does not respond (conjugate scaling), so both
            # sides must then be negligible
            if abs(ref) > 1e-3 * scale:
                assert abs(val - ref) / abs(ref) < 0.02
            else:
                assert abs(val) < 1e-6 * max(scale, 1.0)

    def test_unnormalized_density_rejected(self, nn_model, nn_fit):
        spec = rb.ContaminationSpec(
            "theta", ("density", lambda x: st.norm.logpdf(x, 0.0, 1.0) + 0.3))
        with pytest.raises(DomainError):
            spec.validated(nn_model)

    def test_non_factorized_block_rejected(self, nig_model):
        spec = rb.ContaminationSpec("theta", ("dirac", 0.5))
        with pytest.raises(DomainError):
            spec.validated(nig_model)


class TestWorstCase:
    @pytest.mark.parametrize("p_norm", [2.0, 3.0])
    def test_unit_size_and_dominance(self, nn_model, nn_fit, p_norm):
        sol, sys = nn_fit
        wc = rb.worst_case_perturbation(nn_model, sol, sys, "theta", "theta", p_norm)
        assert abs(wc.a_values(sol.mean[0])) < 1e-12
        alpha = nn_model.hyperparams

        def prior_dens(x):
            return np.exp(nn_model.prior_block_logpdf["theta"]("theta", x, alpha))

        q_conj = p_norm / (p_norm - 1.0)
        norm_q, _ = quadrature_expectation(
            prior_dens, lambda x: abs(wc.a_values(x)) ** q_conj,
            (-np.inf, np.inf), tol=1e-9)
        scale = norm_q ** (1.0 / p_norm)
        unit_size, _ = quadrature_expectation(
            prior_dens,
            lambda x: (abs(wc.a_values(x)) ** (1.0 / (p_norm - 1.0)) / scale) ** p_norm,
            (-np.inf, np.inf), tol=1e-7)
        assert abs(unit_size - 1.0) < 1e-6
        assert np.isclose(wc.attained_derivative, norm_q ** (1.0 / q_conj), rtol=1e-9)

        rng = np.random.default_rng(13)
        sd = np.sqrt(sol.mean[1] - sol.mean[0] ** 2)
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
            der = rb.perturbation_derivative(nn_model, sol, sys, "theta", "theta", unit)
            assert der <= wc.attained_derivative + 1e-6

    def test_p_two_density_proportional_to_abs_a(self, nn_model, nn_fit):
        sol, sys = nn_fit
        wc = rb.worst_case_perturbation(nn_model, sol, sys, "theta", "theta", 2.0)
        alpha = nn_model.hyperparams
        xs = np.linspace(-1.0, 2.5, 9)
        prior = np.array([np.exp(nn_model.prior_block_logpdf["theta"]("theta", x, alpha))
                          for x in xs])
        ratio = np.array([wc.worst_density(x) for x in xs]) / (
            prior * np.abs([wc.a_values(x) for x in xs]))
        assert np.allclose(ratio, ratio[0], rtol=1e-9)

    def test_invalid_p_norm(self, nn_model, nn_fit):
        sol, sys = nn_fit
        with pytest.raises(DomainError):
            rb.worst_case_perturbation(nn_model, sol, sys, "theta", "theta", 1.0)


class TestReports:
    def test_empty(self, nn_model, nn_fit):
        sol, sys = nn_fit
        report = rb.make_report([], nn_model, sol, sys)
        assert report.entries == ()
        assert report.model_hash and report.solution_hash

    def test_single_conjugate_query_passthrough(self, nn_model, nn_fit):
        sol, sys = nn_fit
        q = rb.SensitivityQuery(quantity="theta", target="theta",
                                direction={"prior_nat_1": 1.0},
                                direction_label="prior_nat_1")
        report = rb.make_report([q], nn_model, sol, sys)
        entry = report.entries[0]
        expect = rb.hyperparam_sensitivity(nn_model, sol, sys, {"prior_nat_1": 1.0})[0]
        assert entry.value == expect
        assert np.isclose(entry.normalized,
                          expect / np.sqrt(sys.sigma_hat[0, 0]), rtol=1e-12)
        assert entry.error is None

    def test_zero_variance_quantity_tagged(self, nn_model, nn_fit):
        sol, sys = nn_fit
        # a target direction in the null space of the covariance
        vec = np.zeros(sys.dim)
        q = rb.SensitivityQuery(quantity="degenerate", target=vec,
                                direction={"prior_nat_1": 1.0})
        report = rb.make_report([q], nn_model, sol, sys)
        entry = report.entries[0]
        assert entry.value is None and entry.error is not None
        assert "variance" in entry.error
