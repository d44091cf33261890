import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

from lrvb import linear_response, mfvb, oracle
from lrvb import robustness as rb
from lrvb.errors import DimensionMismatch, DomainError, ZeroPriorDensity
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
            up, down = (oracle.exact_conjugate_posterior(dataclasses.replace(
                model, hyperparams=alpha.perturbed({name: 1.0}, t))).mean for t in (h, -h))
            fd = (up - down) / (2.0 * h)
            assert np.max(np.abs(sens - fd)) <= 1e-6 * np.max(np.abs(fd)), name

    def test_matches_closed_form_posterior_derivative(self, nn_model, nn_fit):
        sol, sys = nn_fit
        # posterior N(0.8, 0.2): d mean / d nat_1 = variance, / d nat_2 = 2 mean var
        s1 = rb.hyperparam_sensitivity(nn_model, sol, sys, {"prior_nat_1": 1.0})
        s2 = rb.hyperparam_sensitivity(nn_model, sol, sys, {"prior_nat_2": 1.0})
        assert abs(s1[0] - 0.2) < 1e-8
        assert abs(s2[0] - 2.0 * 0.8 * 0.2) < 1e-8

    @pytest.mark.parametrize("name", ["prior_loc", "prior_obs", "prior_shape",
                                      "prior_rate"])
    def test_nig_against_refit_oracle(self, nig_model, nig_fit, name):
        sol, sys = nig_fit
        res = oracle.perturb_and_rerun(nig_model, {name: 1.0}, engine="vb",
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
        up, dn = (mfvb.fit(dataclasses.replace(
            micro_model, hyperparams=micro_model.hyperparams.perturbed({"lkj_shape": 1.0}, t)),
            init=sol.mean, opts=opts) for t in (h, -h))
        fd = (up.mean[i_tau] - dn.mean[i_tau]) / (2.0 * h)
        assert abs(sens[i_tau] - fd) / abs(fd) < 0.02


class TestDirectionValidation:
    # the finite-difference path once raised a bare KeyError for an unknown
    # name and a ZeroDivisionError for a zero direction
    def test_unknown_name_nonfinite_and_zero_coefficients(self, micro_model, micro_fit):
        sol, sys = micro_fit
        with pytest.raises(KeyError, match="valid keys"):
            rb.hyperparam_sensitivity(micro_model, sol, sys, {"prior_info_1": 1.0})
        for coef in (np.nan, np.inf):
            with pytest.raises(DomainError, match="finite"):
                rb.hyperparam_sensitivity(micro_model, sol, sys, {"lkj_shape": coef})
        for direction in ({"lkj_shape": 0.0}, {}):
            assert not np.any(rb.hyperparam_sensitivity(micro_model, sol, sys, direction))

    def test_overflowing_derivative(self, nn_model, nn_fit):
        # the derivative along prior_nat_2 is the coefficient, rounded past
        # the largest float here; it overflowed with a RuntimeWarning
        sol, _ = nn_fit
        with pytest.raises(DomainError, match="overflows"):
            rb.prior_direction_gradient(nn_model, sol.mean,
                                        {"prior_nat_2": 1.7976931348099962e308})
        assert np.allclose(
            rb.prior_direction_gradient(nn_model, sol.mean, {"prior_nat_2": 1e300}),
            [0.0, 1e300], rtol=1e-10, atol=0.0)

    def test_report_tags_unknown_name(self, micro_model, micro_fit):
        # the typo was reported as value 0.0 with no error
        sol, sys = micro_fit
        q = rb.SensitivityQuery(quantity="mu", target="mu",
                                direction={"prior_info_1": 1.0})
        entry = rb.make_report([q], micro_model, sol, sys).entries[0]
        assert entry.value is None and entry.normalized is None
        assert entry.error.startswith("KeyError") and "valid keys" in entry.error


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
    def test_nonfinite_and_far_points(self, request, name, block):
        # a NaN point reached lu_solve and escaped as a ValueError; a far one
        # overflowed with RuntimeWarnings before its zero density was reported
        model = request.getfixturevalue(f"{name}_model")
        sol, sys = request.getfixturevalue(f"{name}_fit")
        centre = sys.mean[model.layout.location_indices(block)]
        for coord, error in ((np.nan, DomainError), (np.inf, DomainError),
                             (-np.inf, DomainError), (1e200, ZeroPriorDensity),
                             (-1e200, ZeroPriorDensity)):
            point = centre.copy()
            point[-1] = coord
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(error):
                    rb.influence_function(model, sol, sys, block, point)
                with pytest.raises(error):
                    rb.influence_grid(model, sol, sys, block, np.vstack([centre, point]))

    @pytest.mark.parametrize("name,block", [("nn", "theta"), ("micro", "top")])
    def test_grid_matches_dense_rhs_solve(self, request, name, block):
        # reference: the dense right-hand side, one column per point, that
        # the memoized response columns replaced
        model = request.getfixturevalue(f"{name}_model")
        sol, sys = request.getfixturevalue(f"{name}_fit")
        loc = model.layout.location_indices(block)
        pts = sys.mean[loc] + np.random.default_rng(5).normal(size=(50, loc.size))
        rows = rb.influence_grid(model, sol, sys, block, pts)
        expected = _dense_rhs_rows(model, sys, block, pts)
        assert np.max(np.abs(rows - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_memo_per_system_and_never_alpha(self, micro_model, micro_fit, monkeypatch):
        sol, _ = micro_fit
        sys = linear_response.build_system(micro_model, sol)
        before = repr(sys)
        solves, priors = [], []
        solve = linear_response.LrvbSystem.solve_identity_minus_vh

        def counted_solve(self, rhs):
            solves.append(np.shape(rhs))
            return solve(self, rhs)

        monkeypatch.setattr(linear_response.LrvbSystem, "solve_identity_minus_vh",
                            counted_solve)
        hook = micro_model.prior_block_logpdf["top"]
        model = dataclasses.replace(micro_model, prior_block_logpdf={
            "top": lambda *args: priors.append(1) or hook(*args)})
        point = sol.mean[:2] + np.array([0.7, -0.4])
        first = rb.influence_function(model, sol, sys, "top", point)
        second = rb.influence_function(model, sol, sys, "top", point)
        assert solves == [(sys.dim, 2)] and len(priors) == 2
        assert first.tobytes() == second.tobytes()
        assert repr(sys) == before
        # the memo is keyed by content, not by the model: a model with
        # another prior reads the same columns and prices its own prior
        alpha = micro_model.hyperparams.perturbed({"prior_info_11": 1.0}, 0.5)
        micro_at = dataclasses.replace(micro_model, hyperparams=alpha)
        model_at = dataclasses.replace(model, hyperparams=alpha)
        shifted = rb.influence_function(model_at, sol, sys, "top", point)
        assert len(solves) == 1 and len(priors) == 3
        ref = _dense_rhs_rows(micro_at, sys, "top", point[None])[0]
        assert np.max(np.abs(shifted - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert not np.array_equal(shifted, first)
        # a system from another fit fills its own memo
        sol2 = mfvb.fit(micro_at, init=sol.mean)
        sys2 = linear_response.build_system(micro_at, sol2)
        other = rb.influence_function(model_at, sol2, sys2, "top", point)
        assert len(solves) == 2
        ref = _dense_rhs_rows(micro_at, sys2, "top", point[None])[0]
        assert np.max(np.abs(other - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_memo_outside_equality_and_repr(self):
        fields = dataclasses.fields(linear_response.LrvbSystem)
        names = ("mean", "v", "h", "sigma_hat", "condition")
        assert tuple(f.name for f in fields if f.compare) == names
        assert tuple(f.name for f in fields if f.repr) == names

    @pytest.mark.parametrize("name, block, shape", [("nn", "theta", (0,)),
                                                    ("micro", "top", (0, 2))])
    def test_empty_grid(self, request, name, block, shape):
        # the 2-D grid raised IndexError in the multivariate log density
        model = request.getfixturevalue(f"{name}_model")
        sol, sys = request.getfixturevalue(f"{name}_fit")
        grid = rb.influence_grid(model, sol, sys, block, np.empty(shape))
        assert grid.shape == (0, sys.dim)

    def test_zero_prior_density_rejected_within_grid(self, nn_fit, nn_model):
        # one underflowing point among many fails the whole grid and is named
        sol, sys = nn_fit
        with pytest.raises(ZeroPriorDensity, match="60.0"):
            rb.influence_grid(nn_model, sol, sys, "theta", [0.5, 60.0, 1.0])

    def test_dense_grid_calls_prior_once(self, micro_model, micro_fit):
        sol, sys = micro_fit
        calls = []
        hook = micro_model.prior_block_logpdf["top"]

        def counted(point, alpha):
            calls.append(np.shape(point))
            return hook(point, alpha)

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


def _dense_rhs_rows(model, sys, block, points):
    """Influence rows from a dense right-hand side with one column per
    point, solved against a fresh LU of I - VH."""
    layout = model.layout
    bdef = layout.blocks[model.factorized_block(block)]
    fam = FAMILIES[bdef.family]
    eta = fam.natural_from_mean(sys.mean[layout.slice_of(block)], bdef.var_dim)
    loc = layout.location_indices(block)
    rhs = np.zeros((layout.dim, len(points)))
    for col, pt in enumerate(points):
        val = pt[0] if loc.size == 1 else pt
        log_p = model.prior_block_logpdf[block](val, model.hyperparams)
        rhs[loc, col] = np.exp(float(fam.log_density(val, eta)) - log_p) * (pt - sys.mean[loc])
    lu = scipy.linalg.lu_factor(np.eye(layout.dim) - sys.v @ sys.h)
    return scipy.linalg.lu_solve(lu, rhs).T


class TestQueryInputs:
    """Queries check their block, and influence queries their points, before
    pricing anything."""

    @pytest.mark.parametrize("query", [
        lambda m, sol, sys: rb.influence_function(m, sol, sys, "theta", 1.0),
        lambda m, sol, sys: rb.influence_grid(m, sol, sys, "theta", [1.0, 2.0]),
        lambda m, sol, sys: rb.worst_case_perturbation(m, sol, sys, "theta", "theta", 2.0),
        lambda m, sol, sys: rb.perturbation_derivative(m, sol, sys, "theta", "theta",
                                                       lambda x: 1.0),
    ], ids=["influence_function", "influence_grid", "worst_case", "perturbation"])
    def test_non_factorized_block(self, nig_model, nig_fit, query):
        # the normal-inverse-gamma prior couples theta with the noise variance
        sol, sys = nig_fit
        with pytest.raises(DomainError, match="prior does not factor across block 'theta'; "
                           r"factorized blocks: \['noise_var'\]"):
            query(nig_model, sol, sys)

    @pytest.mark.parametrize("block", ["nope", 5, -1, 0.0, True])
    @pytest.mark.parametrize("query", [
        lambda m, sol, sys, b: rb.influence_grid(m, sol, sys, b, [1.0, 2.0]),
        lambda m, sol, sys, b: oracle.contaminated_model(m, b, lambda x: 0.0, 0.1),
        lambda m, sol, sys, b: rb.ContaminationSpec(b, ("dirac", 0.5)).validated(m),
        lambda m, sol, sys, b: oracle.contaminated_posterior_mean(m, b, ("dirac", 0.5), 0.1),
    ], ids=["influence_grid", "contaminated_model", "validated",
            "contaminated_posterior_mean"])
    def test_unknown_block(self, nn_model, nn_fit, query, block):
        # a name raised a bare KeyError, 5 an IndexError, and -1 passed as
        # the empty slice of the block before it
        sol, sys = nn_fit
        with pytest.raises(DomainError, match=rf"unknown block {block!r}; blocks: \['theta'\]"):
            query(nn_model, sol, sys, block)

    def test_block_index_forms(self, nn_model):
        assert [nn_model.factorized_block(b) for b in ("theta", 0, np.int64(0))] == [0, 0, 0]

    def test_point_with_extra_entries(self, nn_model, nn_fit):
        sol, sys = nn_fit
        with pytest.raises(DimensionMismatch, match="points of 1 entries"):
            rb.influence_function(nn_model, sol, sys, "theta", [1.0, 2.0])

    def test_point_with_missing_entries(self, micro_model, micro_fit):
        sol, sys = micro_fit
        with pytest.raises(DimensionMismatch, match="points of 2 entries"):
            rb.influence_function(micro_model, sol, sys, "top", [1.0])

    def test_grid_not_made_of_whole_points(self, micro_model, micro_fit):
        sol, sys = micro_fit
        with pytest.raises(DimensionMismatch, match="points of 2 entries"):
            rb.influence_grid(micro_model, sol, sys, "top", [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("query", [
        lambda m, sol, sys: rb.contamination_sensitivity(
            m, sol, sys, rb.ContaminationSpec("top", ("density", _top_density)), "mu"),
        lambda m, sol, sys: rb.worst_case_perturbation(m, sol, sys, "top", "mu", 2.0),
        lambda m, sol, sys: rb.perturbation_derivative(m, sol, sys, "top", "mu",
                                                       lambda x: 1.0),
        lambda m, sol, sys: oracle.contaminated_model(m, "top", _top_density, 0.1),
    ], ids=["density_contamination", "worst_case", "perturbation", "contaminated_model"])
    def test_block_without_quadrature_support(self, micro_model, micro_fit, query):
        # the family refuses the 2-D top block before any quadrature runs
        sol, sys = micro_fit
        with pytest.raises(DomainError, match="no quadrature support for family "
                           "gaussian_multivariate"):
            query(micro_model, sol, sys)


def _top_density(x):
    return st.multivariate_normal.logpdf(x, np.zeros(2), np.eye(2))


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
        whole = hook(points, model.hyperparams)
        single = np.array([hook(pt, model.hyperparams) for pt in points])
        assert whole.shape == (len(points),)
        assert np.allclose(whole, single, rtol=1e-15, atol=0.0)

    def test_diagonal_gaussian_target_array_matches_per_point(self):
        model = gaussian_target_model(np.array([0.4, -1.0, 0.3]),
                                      np.diag([0.5, 2.0, 1.5]))
        points = np.linspace(-5.0, 5.0, 41)
        for hook in model.prior_block_logpdf.values():
            whole = hook(points, model.hyperparams)
            single = np.array([hook(x, model.hyperparams) for x in points])
            assert whole.shape == points.shape
            assert np.allclose(whole, single, rtol=1e-15, atol=0.0)

    def test_scalar_point_gives_float(self, nn_model, micro_model):
        alpha = nn_model.hyperparams
        assert isinstance(nn_model.prior_block_logpdf["theta"](0.3, alpha), float)
        top = micro_model.prior_block_logpdf["top"]
        assert isinstance(top(np.array([0.3, 0.1]), micro_model.hyperparams), float)


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

    @pytest.mark.parametrize("name, block, contaminants, targets", [
        ("nn", "theta", [lambda x: st.norm.logpdf(x, 1.3, 0.2),
                         lambda x: st.norm.logpdf(x, -1.0, 2.0),
                         lambda x: st.t.logpdf(x, 3.0, loc=0.5)], ["theta"]),
        ("nig", "noise_var", [lambda v: st.invgamma.logpdf(v, 4.0, scale=5.0)], None),
    ], ids=["nn-theta", "nig-noise_var"])
    def test_density_matches_solved_right_hand_side(self, request, name, block,
                                                    contaminants, targets):
        # the response functional priced against p_c equals the solve of
        # (I - VH) against E_q[(s(x) - m) p_c(x)/p(x)] on the block
        model = request.getfixturevalue(f"{name}_model")
        sol, sys = request.getfixturevalue(f"{name}_fit")
        for pc in contaminants:
            spec = rb.ContaminationSpec(block, ("density", pc))
            response = sys.solve_identity_minus_vh(
                _density_contamination_rhs(model, sys, block, pc))
            for target in targets or model.layout.coord_names():
                value = rb.contamination_sensitivity(model, sol, sys, spec, target)
                ref = float(rb.resolve_target(model.layout, target) @ response)
                assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), target

    def test_unnormalized_density_rejected(self, nn_model, nn_fit):
        spec = rb.ContaminationSpec(
            "theta", ("density", lambda x: st.norm.logpdf(x, 0.0, 1.0) + 0.3))
        with pytest.raises(DomainError):
            spec.validated(nn_model)

    def test_non_factorized_block_rejected(self, nig_model):
        spec = rb.ContaminationSpec("theta", ("dirac", 0.5))
        with pytest.raises(DomainError):
            spec.validated(nig_model)


def _density_contamination_rhs(model, sys, idx, pc_logpdf):
    """E_q[(s(x) - m) p_c(x)/p(x)] over the contaminated block, whose solve
    against (I - VH) is the density contamination derivative."""
    _, bdef, sl, mb, fam, eta = rb._block_setup(model, sys, idx)
    bounds = fam.quad_support()

    def weight(x):
        # q(x) p_c(x) / p(x)
        return np.exp(pc_logpdf(x) + rb._log_density_ratio(model, bdef, fam, eta, x)[0])

    val, _ = quadrature_expectation(weight, lambda x: fam.suff_stats(x)[0] - mb, bounds,
                                    tol=1e-9)
    rhs = np.zeros(sys.dim)
    rhs[sl] = val
    return rhs


class TestWorstCase:
    @pytest.mark.parametrize("p_norm", [2.0, 3.0])
    def test_unit_size_and_dominance(self, nn_model, nn_fit, p_norm):
        sol, sys = nn_fit
        wc = rb.worst_case_perturbation(nn_model, sol, sys, "theta", "theta", p_norm)
        assert abs(wc.a_values(sol.mean[0])) < 1e-12
        alpha = nn_model.hyperparams

        def prior_dens(x):
            return np.exp(nn_model.prior_block_logpdf["theta"](x, alpha))

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
        prior = np.array([np.exp(nn_model.prior_block_logpdf["theta"](x, alpha))
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

    def test_each_direction_priced_once(self, micro_model, micro_fit, monkeypatch):
        # a report over several quantities differences the prior gradient
        # once per direction, and each entry is its direction priced alone
        sol, sys = micro_fit
        price, calls = rb.prior_direction_gradient, []

        def counted(model, m, direction):
            calls.append(tuple(direction))
            return price(model, m, direction)

        monkeypatch.setattr(rb, "prior_direction_gradient", counted)
        names = micro_model.layout.coord_names()
        quantities = [names[i] for i in micro_model.layout.location_indices()[:6]]
        directions = micro_model.hyperparams.names
        queries = [rb.SensitivityQuery(quantity=q, target=q, direction={h: 1.0},
                                       direction_label=h)
                   for q in quantities for h in directions]
        report = rb.make_report(queries, micro_model, sol, sys)
        assert calls == [(h,) for h in directions]
        monkeypatch.undo()
        for query, entry in zip(queries, report.entries):
            full = rb.hyperparam_sensitivity(micro_model, sol, sys, query.direction)
            assert entry.error is None
            assert entry.value == float(full[names.index(query.quantity)])

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
