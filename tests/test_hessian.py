"""The objective Hessian from grouped columns against the same model with
no groups declared, whose every column is differenced on its own."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrvb import linear_response, mfvb
from lrvb.expfam import Family
from lrvb.mfvb import BlockDef, Hyperparams, Layout, ModelSpec
from lrvb.models import build_microcredit_model, load_microcredit_csv
from lrvb.models.microcredit import DEFAULT_PRIORS, MicrocreditData

from conftest import BUNDLED_CSV, sites_model

REL_TOL = 1e-10


def dense(model):
    return replace(model, local_groups=())


def gradient_calls(model, m):
    """Calls of grad_log_lik made by one hessian_of_objective at m."""
    calls = []

    def grad_log_lik(x):
        calls.append(None)
        return model.grad_log_lik(x)

    linear_response.hessian_of_objective(replace(model, grad_log_lik=grad_log_lik), m)
    return len(calls)


def assert_matches_dense(model, m):
    grouped = linear_response.hessian_of_objective(model, m)
    ref = linear_response.hessian_of_objective(dense(model), m)
    assert np.max(np.abs(grouped - ref)) <= REL_TOL * np.max(np.abs(ref))
    assert np.array_equal(grouped, grouped.T)


def toy_layout():
    return Layout([BlockDef("a", Family.GAUSSIAN_UNIVARIATE),
                   BlockDef("b", Family.GAMMA),
                   BlockDef("c", Family.GAUSSIAN_UNIVARIATE)])


def toy_spec(local_groups):
    zero = lambda m, a=None: 0.0  # noqa: E731
    return ModelSpec(name="toy", layout=toy_layout(), hyperparams=Hyperparams({}),
                     expected_log_lik=zero, grad_log_lik=zero,
                     expected_log_prior=zero, grad_log_prior=zero,
                     default_init=lambda a: np.zeros(6), local_groups=local_groups)


class TestDeclaration:
    def test_unknown_block_rejected(self):
        with pytest.raises(ValueError, match="unknown block 'd'"):
            toy_spec((("a",), ("c", "d")))

    def test_shared_block_rejected(self):
        with pytest.raises(ValueError, match="'b' is named more than once"):
            toy_spec((("a", "b"), ("b", "c")))

    def test_replace_revalidates(self):
        spec = toy_spec((("a",), ("c",)))
        with pytest.raises(ValueError):
            replace(spec, local_groups=(("a",), ("a",)))

    def test_column_sets(self):
        # b is global and stepped alone; a and c share their positions
        columns, owner = toy_layout().hessian_columns((("a",), ("c",)))
        assert [list(c) for c in columns] == [[0, 4], [1, 5], [2], [3]]
        assert owner.tolist() == [0, 0, -1, -1, 1, 1]
        columns, owner = toy_layout().hessian_columns(())
        assert [list(c) for c in columns] == [[j] for j in range(6)]
        assert owner.tolist() == [-1] * 6


class TestGroupedHessian:
    def test_bundled_fit(self):
        model = build_microcredit_model(load_microcredit_csv(BUNDLED_CSV))
        assert_matches_dense(model, mfvb.fit(model).mean)

    def test_thirty_sites_fit(self, tmp_path):
        model = sites_model(tmp_path, 30)
        assert model.layout.dim == 219
        assert_matches_dense(model, mfvb.fit(model).mean)

    def test_build_system_uses_grouped_hessian(self, micro_model, micro_fit):
        sol, sys_ = micro_fit
        assert np.array_equal(sys_.h, linear_response.linear_response(
            micro_model, sol.mean)[1])
        assert np.array_equal(sys_.h, linear_response.hessian_of_objective(
            micro_model, sol.mean))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.lists(st.integers(1, 30), min_size=2, max_size=6),
           st.lists(st.floats(-1.0, 1.5), min_size=7, max_size=7),
           st.floats(-0.9, 0.9), st.integers(0, 2 ** 32 - 1))
    def test_random_data(self, rows, log10_priors, corr, seed):
        # random sites, rows, priors and interior mean vector, as in
        # test_models.py::TestBuild.  Random fits are slow and often end
        # at the Wishart boundary, so H is taken at the random point.  An
        # entry between a site and a global coordinate comes from the global
        # column alone, where the dense H averages it with the site column,
        # so the two differ by a central difference's rounding,
        # ~eps |g| / step with g the gradient; far from the optimum |g|
        # can be 100 times max|H|.  Over 300 such cases the worst gap was
        # 5.0e-12 of max(max|H|, max|g|), and 2.6e-10 of max|H| alone
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
        grouped = linear_response.hessian_of_objective(model, m)
        ref = linear_response.hessian_of_objective(dense(model), m)
        grad = model.grad_log_lik(m) + model.grad_log_prior(m, alpha)
        scale = max(np.max(np.abs(ref)), np.max(np.abs(grad)))
        assert np.max(np.abs(grouped - ref)) <= REL_TOL * scale


class TestGradientCalls:
    @pytest.mark.parametrize("n_sites", [7, 30, 100])
    def test_microcredit_makes_32_at_any_number_of_sites(self, tmp_path, n_sites):
        # 9 global coordinates (top, effect_prec) and 7 per site
        if n_sites == 7:
            model = build_microcredit_model(load_microcredit_csv(BUNDLED_CSV))
        else:
            model = sites_model(tmp_path, n_sites)
        m = model.default_init(model.hyperparams)
        assert gradient_calls(model, m) == 2 * (9 + 7) == 32
        assert gradient_calls(dense(model), m) == 2 * model.layout.dim

    @pytest.mark.parametrize("name", ["nn", "nig", "gauss2"])
    def test_undeclared_models_difference_every_column(self, name, request):
        model = request.getfixturevalue(f"{name}_model")
        sol, sys_ = request.getfixturevalue(f"{name}_fit")
        assert model.local_groups == ()
        assert gradient_calls(model, sol.mean) == 2 * model.layout.dim
