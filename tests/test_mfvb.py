from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lrvb import linear_response, mfvb, oracle
from lrvb.errors import DomainError, NonConvergence
from lrvb.expfam import Family
from lrvb.mfvb import BlockDef, FitOptions, Hyperparams, Layout
from lrvb.models import (build_microcredit_model, gaussian_target_model,
                         load_microcredit_csv, normal_normal_model)
from lrvb.util import fd_jacobian, tril_diag

from conftest import BUNDLED_CSV, NN_DATA, sites_model


class TestElbo:
    def test_equals_log_evidence_at_exact_posterior(self, nn_model, nn_fit):
        # single full-family block: the fit is the exact posterior, so the
        # objective at the optimum is the log marginal likelihood
        sol, _ = nn_fit
        post = oracle.exact_conjugate_posterior(nn_model)
        assert abs(sol.elbo - post.log_evidence) < 1e-9

    def test_optimality(self, nn_model, nn_fit):
        sol, _ = nn_fit
        rng = np.random.default_rng(2)
        for _ in range(25):
            m = sol.mean + np.array([0.3, 0.8]) * rng.uniform(-0.5, 0.5, size=2)
            try:
                val = mfvb.elbo(nn_model, m)
            except DomainError:
                continue
            assert val <= sol.elbo + 1e-12

    @pytest.mark.parametrize("shift", [-2.5, 0.1, 3.7, 10.0, 100.0, 1000.0])
    def test_constant_prior_shift(self, nn_model, shift):
        # shifting the prior by a constant shifts the objective by exactly
        # that constant.  The optimizer path need not stay bit-identical:
        # the quasi-Newton stage's relative-reduction test and the polish's
        # flat-step floor both scale
        # with |objective|.  Both fits stop with max|grad_z| <= tol, so to
        # first order their z differ by H_z^-1 (g1 - g2) and their means by
        # at most |J H_z^-1| 2 tol entrywise (4e-9 and 1.4e-8 here).  With
        # H_z = J' (V^-1 - H) J, J H_z^-1 is sigma_hat J^-T.
        base_prior = nn_model.expected_log_prior
        shifted = replace(
            nn_model,
            expected_log_prior=lambda m, a: base_prior(m, a) + shift)
        m0 = nn_model.default_init(nn_model.hyperparams)
        assert np.isclose(mfvb.elbo(shifted, m0) - mfvb.elbo(nn_model, m0), shift)
        tol = FitOptions().tol
        s1 = mfvb.fit(nn_model)
        s2 = mfvb.fit(shifted)
        assert s1.converged and s2.converged
        z = nn_model.layout.unconstrained_from_mean(s1.mean)
        sigma = linear_response.build_system(nn_model, s1).sigma_hat
        sens = np.abs(np.linalg.solve(nn_model.layout.mean_jacobian(z), sigma).T)
        assert np.all(np.abs(s2.mean - s1.mean) <= sens @ np.full(z.size, 2.0 * tol))
        # the mean gap moves the objective only at second order (~1e-17)
        assert abs(s2.elbo - s1.elbo - shift) <= 1e-12 * max(1.0, abs(s2.elbo))

    def test_out_of_domain_mean(self, nn_model):
        with pytest.raises(DomainError):
            mfvb.elbo(nn_model, np.array([1.0, 0.5]))  # E[x^2] < E[x]^2


class TestFit:
    def test_conjugate_posterior_recovered(self, nn_model, nn_fit):
        sol, _ = nn_fit
        lam_n = 1.0 + NN_DATA.size
        mu_n = NN_DATA.sum() / lam_n
        exact = np.array([mu_n, mu_n ** 2 + 1.0 / lam_n])
        assert np.max(np.abs(sol.mean - exact)) < 1e-8

    def test_mean_field_gaussian_fixed_point(self):
        # exact means; marginal variances are the inverse precision diagonal
        from lrvb.models import gaussian_target_model
        prec = np.array([[1.0, -0.5, 0.2], [-0.5, 1.5, -0.3], [0.2, -0.3, 2.0]])
        h = prec @ np.array([0.5, -0.2, 0.1])
        sol = mfvb.fit(gaussian_target_model(h, prec))
        mu = np.linalg.solve(prec, h)
        assert np.max(np.abs(sol.mean[0::2] - mu)) < 1e-8
        marg_var = sol.mean[1::2] - sol.mean[0::2] ** 2
        assert np.max(np.abs(marg_var - 1.0 / np.diag(prec))) < 1e-8

    def test_gradient_matches_finite_differences(self, nig_model, nig_fit):
        sol, _ = nig_fit
        m = sol.mean + np.array([0.03, 0.2, 0.05, 0.04])
        grad = mfvb.elbo_grad_mean(nig_model, m)
        fd = fd_jacobian(lambda x: np.array([mfvb.elbo(nig_model, x)]), m,
                         rel_step=1e-6)[0]
        assert np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-5

    def test_gradient_norm_at_optimum(self, nn_fit):
        sol, _ = nn_fit
        assert sol.converged
        assert sol.grad_norm <= 1e-11

    def test_deterministic(self, micro_model):
        s1 = mfvb.fit(micro_model)
        s2 = mfvb.fit(micro_model)
        assert np.array_equal(s1.mean, s2.mean)
        assert s1.iterations == s2.iterations
        assert s1.elbo_trace == s2.elbo_trace

    def test_elbo_trace_non_decreasing(self, micro_model):
        sol = mfvb.fit(micro_model)
        trace = np.array(sol.elbo_trace)
        slack = 1e-9 * max(1.0, np.max(np.abs(trace)))
        assert np.all(np.diff(trace) >= -slack)
        assert sol.converged

    def test_non_convergence_raises(self, nn_model, monkeypatch):
        monkeypatch.setattr(mfvb, "POLISH_ITER", 0)
        with pytest.raises(NonConvergence) as info:
            mfvb.fit(nn_model, opts=FitOptions(tol=1e-30, max_iter=3))
        assert info.value.solution is not None
        # the quasi-Newton stage's own outcome is kept in the message
        assert ("quasi-Newton stage stopped after 3 iterations: "
                "iteration limit reached") in str(info.value)

    def test_polish_steps_past_a_hessian_outside_the_domain(self, monkeypatch):
        # with no quasi-Newton stage the polish starts far from the optimum,
        # where the Hessian's difference steps cross the Wishart boundary; a
        # DomainError from the Hessian once escaped the fit
        model = build_microcredit_model(load_microcredit_csv(BUNDLED_CSV))
        monkeypatch.setattr(mfvb, "POLISH_ITER", 20)
        with pytest.raises(NonConvergence):
            mfvb.fit(model, opts=FitOptions(max_iter=0))

    def test_hierarchical_converges_from_prior_init(self, micro_model):
        sol = mfvb.fit(micro_model)
        assert sol.converged and np.isfinite(sol.elbo)

    def test_three_hundred_sites_converge(self, tmp_path):
        # A(eta) - eta.m for the entropy cancelled catastrophically at the
        # near-singular top block this fit passes through, and it stopped
        # with a DomainViolation at gradient norm 67
        model = sites_model(tmp_path, 300)
        assert model.layout.dim == 2109
        assert mfvb.fit(model).converged


class TestLayoutEntropy:
    def test_smooth_at_near_singular_gaussians(self):
        # mu' Sigma^-1 mu ~ 1e13, like the top block where the 300-site fit
        # stalled.  A(eta) and eta.m reach 5e12 and 3e18, and their
        # difference read -2.3e8 for an entropy of -17.2 and moved by up to
        # 4.5e17 per unit of a 1e-9 step.  Each step of a fit coordinate
        # moves the entropy by its derivative: 1 for a log-Cholesky diagonal
        # entry (the log sd of the univariate block), 0 otherwise.
        layout = Layout([BlockDef("a", Family.GAUSSIAN_UNIVARIATE),
                         BlockDef("b", Family.GAUSSIAN_MULTIVARIATE, 2)])
        z = np.array([3e3, -7.0, 3e3, -2e3, -7.0, 0.4, -7.5])
        slope = np.zeros(z.size)
        slope[1] = 1.0
        slope[4 + tril_diag(2)] = 1.0
        h = 1e-9
        base = layout.entropy_from_unconstrained(z)
        # 1/2 log(2 pi e sd^2) + log|2 pi e Sigma| / 2
        assert np.isclose(base, 1.5 * np.log(2.0 * np.pi * np.e) - 7.0 - 7.0 - 7.5,
                          rtol=1e-14, atol=0.0)
        for j in range(z.size):
            step = layout.entropy_from_unconstrained(z + h * np.eye(z.size)[j]) - base
            # rounding of a value ~17 is ~4e-15, or 4e-6 of the step
            assert abs(step / h - slope[j]) <= 1e-4, (j, step / h)


class TestBlockDef:
    def test_unlabelled_multivariate_gaussian_names_each_dimension(self):
        layout = Layout([BlockDef("d", Family.GAUSSIAN_MULTIVARIATE, 3)])
        assert layout.coord_names() == [
            "d[0]", "d[1]", "d[2]", "d[0]*d[0]", "d[1]*d[0]", "d[1]*d[1]",
            "d[2]*d[0]", "d[2]*d[1]", "d[2]*d[2]"]
        assert BlockDef("x", Family.GAUSSIAN_UNIVARIATE).labels == ("x",)

    @pytest.mark.parametrize("family, var_dim", [
        (Family.GAMMA, 3), (Family.INVERSE_GAMMA, 2), (Family.GAUSSIAN_UNIVARIATE, 2),
        (Family.WISHART, 0), (Family.GAUSSIAN_MULTIVARIATE, 0)])
    def test_var_dim_the_family_does_not_take(self, family, var_dim):
        # each was accepted: a gamma block with three labels and two
        # statistics, a scalar Gaussian with five statistics, and empty
        # Wishart and Gaussian blocks
        with pytest.raises(ValueError, match="var_dim"):
            BlockDef("b", family, var_dim)


def z_gradient(model, z):
    """Gradient of -ELBO in unconstrained coordinates, as the fit computes it."""
    layout = model.layout
    return -layout.mean_jacobian(z).T @ mfvb.elbo_grad_mean(
        model, layout.mean_from_unconstrained(z))


@st.composite
def gaussian_targets(draw):
    d = draw(st.integers(1, 6))
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    a = draw(hnp.arrays(np.float64, (d, d), elements=unit))
    prec = a @ a.T + 0.5 * np.eye(d)
    nat_loc = draw(hnp.arrays(np.float64, d, elements=unit)) * 2.0
    shift = draw(st.floats(0.5, 2.0))
    return nat_loc, (prec + prec.T) / 2.0, shift


def quadratic(a, b, domain=np.inf):
    """evaluate for 0.5 z'Az - b'z, with the fit terms standing in as a copy
    of z; (inf, zeros, None) where max|z| exceeds domain."""
    calls = []

    def evaluate(z):
        calls.append(z.copy())
        if np.max(np.abs(z)) > domain:
            return np.inf, np.zeros_like(z), None
        return 0.5 * z @ a @ z - b @ z, a @ z - b, z.copy()

    return evaluate, calls


class TestQuasiNewton:
    def test_compact_form_matches_bfgs_updates(self):
        # the compact inverse Hessian against k BFGS updates of gamma I
        rng = np.random.default_rng(4)
        n, k = 7, 5
        m = rng.normal(size=(n, n))
        s = rng.normal(size=(k, n))
        y = s @ (m @ m.T + np.eye(n))  # s'y > 0
        gamma = s[-1] @ y[-1] / (y[-1] @ y[-1])
        h = gamma * np.eye(n)
        for si, yi in zip(s, y):
            rho = 1.0 / (si @ yi)
            left = np.eye(n) - rho * np.outer(si, yi)
            h = left @ h @ left.T + rho * np.outer(si, si)
        g = rng.normal(size=n)
        # only the upper triangle of S'Y is read
        sy = np.triu(s @ y.T) + np.tril(rng.normal(size=(k, k)), -1)
        got = mfvb._compact_times(s, y, sy, y @ y.T, g)
        assert np.allclose(got, h @ g, rtol=1e-10, atol=0.0)

    def test_minimizes_a_quadratic(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(40, 40))
        a, b = m @ m.T / 40.0 + np.eye(40), rng.normal(size=40)
        evaluate, calls = quadratic(a, b)
        z0 = np.zeros(40)
        trace = []
        z, (f, g, terms), iterations, reason = mfvb._quasi_newton(
            evaluate, z0, evaluate(z0), 1e-6, 1000, trace)
        assert reason == "largest gradient entry <= 1e-06"
        assert np.max(np.abs(g)) <= 1e-6 and np.allclose(a @ z, b, rtol=0, atol=1e-6)
        # the fit terms handed on are those of the final z, and each
        # iteration appends one objective, never lower than the last
        assert np.array_equal(terms, z) and f == evaluate(z)[0]
        assert len(trace) == iterations and np.all(np.diff(trace) >= 0)

    def test_backs_off_from_a_non_finite_objective(self):
        # the unit first step from 0.9 reaches 1.9, where the objective is
        # not finite; halved, it reaches 1.4, above the optimum at 1
        evaluate, calls = quadratic(np.eye(1), np.ones(1), domain=1.5)
        z0 = np.full(1, 0.9)
        z, _, _, reason = mfvb._quasi_newton(evaluate, z0, evaluate(z0), 1e-10, 100, [])
        assert np.allclose([c[0] for c in calls[1:3]], [1.9, 1.4], rtol=0, atol=1e-15)
        assert reason == "largest gradient entry <= 1e-10" and abs(z[0] - 1.0) <= 1e-10

    def test_stops_on_relative_reduction(self):
        # a unit step lowers 1e20 + z by 1, a relative reduction of 1e-20
        def evaluate(z):
            return 1e20 + z[0], np.ones(1), None

        z, _, iterations, reason = mfvb._quasi_newton(
            evaluate, np.zeros(1), evaluate(np.zeros(1)), 1e-3, 100, [])
        assert (iterations, reason) == (1, "relative reduction <= 1e-14")
        assert z[0] == -1.0

    def test_line_search_gives_up_after_its_steps(self):
        # nowhere but at the start is the objective finite
        evaluate, calls = quadratic(np.eye(2), np.ones(2), domain=0.0)
        z0 = np.zeros(2)
        z, (f, _, _), iterations, reason = mfvb._quasi_newton(
            evaluate, z0, evaluate(z0), 1e-8, 100, [])
        assert (iterations, reason) == (0, "line search failed")
        assert len(calls) == 1 + mfvb.LINE_SEARCH and f == 0.0 and not np.any(z)


class TestPolish:
    @pytest.mark.parametrize("name", ["nig", "micro"])
    def test_step_matches_newton_step_of_fd_z_hessian(self, name, request):
        # the I - L'HL solve mapped through J against a Newton step on the
        # Hessian of -ELBO differenced in z, for several gradients
        model = request.getfixturevalue(f"{name}_model")
        sol, _ = request.getfixturevalue(f"{name}_fit")
        z = model.layout.unconstrained_from_mean(sol.mean)
        ref = fd_jacobian(lambda zz: z_gradient(model, zz), z)
        ref = (ref + ref.T) / 2.0
        rng = np.random.default_rng(0)
        for grad in [z_gradient(model, z + 1e-3)] + list(rng.normal(size=(4, z.size))):
            _, step = mfvb._newton_factor(model, model.layout.fit_terms(z), grad)
            newton = np.linalg.solve(ref, -grad)
            assert np.max(np.abs(step - newton)) <= 1e-5 * np.max(np.abs(newton))

    def test_polish_uses_the_linear_response_hessian(self, monkeypatch):
        # one definition of H: the bundled fit differences the Hessian that
        # build_system uses once, and its polish keeps that factorization
        # from the hand-off to the end.  The parent of the hand-off at
        # HANDOFF_GRAD made 94 objective evaluations here
        assert not hasattr(mfvb, "hessian_of_objective")
        model = build_microcredit_model(load_microcredit_csv(BUNDLED_CSV))
        calls, evals = [], []
        hessian = linear_response.hessian_of_objective
        monkeypatch.setattr(linear_response, "hessian_of_objective",
                            lambda *args: calls.append(args) or hessian(*args))
        lik = model.expected_log_lik
        model = replace(model, expected_log_lik=lambda m: evals.append(m) or lik(m))
        assert mfvb.fit(model).converged
        assert len(calls) == 1
        assert len(evals) <= 60

    @pytest.mark.parametrize("name", ["nn", "nig", "gauss2", "bundled", "sites30"])
    def test_fit_ends_at_a_tenth_of_tol(self, name, request, tmp_path):
        # below tol the polish takes full steps from its kept factorization
        # down to tol / 100.  Stopping at the first norm below tol left the
        # Gaussian target's analytic value off by more than its 1e-9 bound
        if name == "bundled":
            model = build_microcredit_model(load_microcredit_csv(BUNDLED_CSV))
        elif name == "sites30":
            model = sites_model(tmp_path, 30)
        else:
            model = request.getfixturevalue(f"{name}_model")
        for tol in (FitOptions().tol, 1e-10):
            sol = mfvb.fit(model, opts=FitOptions(tol=tol))
            assert sol.grad_norm <= tol / 10.0, (tol, sol.grad_norm)

    def test_damped_step_descends(self, nig_model, nig_fit, monkeypatch):
        # V = H = I makes B = I - L'HL zero, so only a damped B + lam I
        # factors, and the step J^-1 L (B + lam I)^-1 L' g is J^-1 g / lam
        sol, _ = nig_fit
        layout = nig_model.layout
        eye = np.eye(layout.dim)
        monkeypatch.setattr(Layout, "suff_stat_cov", lambda self, m: eye)
        monkeypatch.setattr(linear_response, "hessian_of_objective",
                            lambda model, m: eye)
        z = layout.unconstrained_from_mean(sol.mean)
        grad = np.random.default_rng(1).normal(size=z.size)
        _, step = mfvb._newton_factor(nig_model, layout.fit_terms(z), grad)
        assert step @ grad < 0
        direction = np.linalg.solve(layout.mean_jacobian(z),
                                    np.linalg.solve(layout.mean_jacobian(z).T, -grad))
        assert not np.allclose(step, -grad)
        assert np.allclose(step / np.linalg.norm(step),
                           direction / np.linalg.norm(direction), rtol=0, atol=1e-12)

    def test_fit_evaluates_no_point_twice(self, micro_model):
        seen = []
        lik = micro_model.expected_log_lik
        model = replace(micro_model,
                        expected_log_lik=lambda m: seen.append(m.tobytes()) or lik(m))
        sol = mfvb.fit(model)
        assert sol.converged
        # the start point too is evaluated once, for the trace and the
        # quasi-Newton stage alike
        assert len(set(seen)) == len(seen)

    @settings(max_examples=30, deadline=None)
    @given(gaussian_targets())
    def test_random_gaussian_target_recovers_inverse_precision(self, target):
        nat_loc, prec, shift = target
        model = gaussian_target_model(nat_loc, prec)
        m0 = model.default_init(model.hyperparams)
        mu = m0[0::2] + shift
        init = np.empty_like(m0)
        init[0::2], init[1::2] = mu, mu ** 2 + m0[1::2] - m0[0::2] ** 2
        # two quasi-Newton iterations from a shifted start leave the rest to the polish
        sol = mfvb.fit(model, init=init, opts=FitOptions(max_iter=2))
        sigma = linear_response.build_system(model, sol).sigma_hat[0::2, 0::2]
        inv = np.linalg.inv(prec)
        assert np.max(np.abs(sigma - inv)) <= 1e-6 * max(1.0, np.max(np.abs(inv)))


class TestHyperparams:
    def test_round_trip_and_updates(self):
        hp = Hyperparams({"a": 1.0, "b": -2.0})
        assert hp.names == ("a", "b")
        assert list(hp.values()) == [1.0, -2.0]
        hp2 = hp.with_updates(b=5.0)
        assert hp2["b"] == 5.0 and hp["b"] == -2.0
        hp3 = hp.perturbed({"a": 2.0}, 0.5)
        assert hp3["a"] == 2.0

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            Hyperparams({"a": 1.0}).with_updates(zzz=2.0)

    def test_perturbed_unknown_key_lists_valid_keys(self):
        # was a bare KeyError: 'nope' from the entry lookup
        with pytest.raises(KeyError, match=r"unknown hyperparameters \['nope'\]; "
                                           r"valid keys: \['a', 'b'\]"):
            Hyperparams({"a": 1.0, "b": 2.0}).perturbed({"a": 1.0, "nope": 1.0}, 0.1)
