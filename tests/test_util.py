from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scipy.optimize import brentq
from scipy.special import polygamma

from lrvb import linear_response, robustness
from lrvb.errors import DomainError
from lrvb.expfam import FAMILIES, Family
from lrvb.mfvb import BlockDef, Layout
from lrvb.util import (chol_from_logchol, digamma, dim_from_vech, fd_jacobian,
                       logchol_from_chol, multidigamma, solve_log_minus_digamma,
                       tril, tril_diag, trigamma, unvech, vech, vech_dim)

_WI = FAMILIES[Family.WISHART]
_GM = FAMILIES[Family.GAUSSIAN_MULTIVARIATE]


# --- literal copies of the hand-written loops the helpers replaced ----------

def brentq_log_minus_digamma(c):
    """The bracketed brentq solver that the array iteration replaced."""
    if not np.isfinite(c) or c <= 0:
        raise DomainError(f"log(a) - digamma(a) = {c} has no positive root")
    if c < 1e8:
        a = (3.0 - c + np.sqrt((c - 3.0) ** 2 + 24.0 * c)) / (12.0 * c)
    else:
        a = 1.0 / c
    lo, hi = a, a
    while np.log(lo) - digamma(lo) < c:
        lo /= 2.0
    while np.log(hi) - digamma(hi) > c:
        hi *= 2.0
    return brentq(lambda t: np.log(t) - digamma(t) - c, lo, hi,
                  xtol=1e-14 * min(lo, 1.0), rtol=8.9e-16)


def brentq_dof_gap(dof, k):
    """The Wishart's ``_dof_gap`` before the Newton solve replaced it."""
    # E[log|X|] - log|E[X]| = multidigamma(dof/2) - K log(dof/2) < 0
    return multidigamma(dof / 2.0, k) - k * np.log(dof / 2.0)


def brentq_solve_dof(gap, k):
    """The Wishart's ``_solve_dof``: a bracketed brentq per block."""
    lo = k + 1.0
    # _dof_gap increases from _dof_gap(K+1) toward 0, so a root above
    # K+1 exists only when the observed gap exceeds the K+1 value.
    if brentq_dof_gap(lo, k) >= gap:
        raise DomainError(
            f"mean parameters imply degrees of freedom <= K+1 (gap {gap:.6g})")
    hi = 2.0 * lo
    while brentq_dof_gap(hi, k) < gap:
        hi *= 2.0
    return brentq(lambda n: brentq_dof_gap(n, k) - gap, lo, hi,
                  xtol=1e-13, rtol=8.9e-16)


def loop_pack(chol):
    k = chol.shape[0]
    coords = []
    for i in range(k):
        for j in range(i + 1):
            coords.append(np.log(chol[i, i]) if i == j else chol[i, j])
    return np.asarray(coords)


def loop_unpack(z):
    k = dim_from_vech(len(z))
    chol = np.zeros((k, k))
    idx = 0
    for i in range(k):
        for j in range(i + 1):
            chol[i, j] = np.exp(z[idx]) if i == j else z[idx]
            idx += 1
    return chol


def loop_wishart_value(z):
    k = dim_from_vech(len(z))
    chol = np.zeros((k, k))
    idx = 0
    logjac = k * np.log(2.0)
    for i in range(k):
        for j in range(i + 1):
            if i == j:
                chol[i, i] = np.exp(z[idx])
                logjac += (k - i + 1.0) * z[idx]
            else:
                chol[i, j] = z[idx]
            idx += 1
    return chol @ chol.T, logjac


def loop_wishart_sampler_stats(z, k):
    n = z.shape[0]
    chol = np.zeros((n, k, k))
    logdet = np.zeros(n)
    idx = 0
    for r in range(k):
        for c in range(r + 1):
            if r == c:
                chol[:, r, c] = np.exp(z[:, idx])
                logdet += 2.0 * z[:, idx]
            else:
                chol[:, r, c] = z[:, idx]
            idx += 1
    mats = np.einsum("nij,nkj->nik", chol, chol)
    rows, cols = np.tril_indices(k)
    return np.column_stack([mats[:, rows, cols], logdet])


def loop_hessian(model, m, rel_step=linear_response.HESSIAN_REL_STEP):
    alpha = model.hyperparams

    def grad(x):
        return model.grad_log_lik(x) + model.grad_log_prior(x, alpha)

    n = m.size
    hess = np.empty((n, n))
    for j in range(n):
        step = rel_step * max(abs(m[j]), 1.0)
        mp, mm = m.copy(), m.copy()
        mp[j] += step
        mm[j] -= step
        hess[:, j] = (grad(mp) - grad(mm)) / (2.0 * step)
    return (hess + hess.T) / 2.0


def loop_prior_direction_gradient(model, m, direction):
    alpha = model.hyperparams
    scale = max([abs(alpha[k]) for k in direction] + [1.0])
    size = max(abs(v) for v in direction.values())
    bound = robustness.ALPHA_FD_REL_STEP * scale / size
    h = 1.0  # the largest power of two not above the bound
    while h > bound:
        h /= 2.0
    while 2.0 * h <= bound:
        h *= 2.0
    values = {}  # grad_log_prior at each offset that stays in the prior's domain
    for t in (h, -h, 2.0 * h, -2.0 * h, 0.0):
        try:
            values[t] = np.asarray(model.grad_log_prior(m, alpha.perturbed(direction, t)))
        except DomainError:
            pass
    if h in values and -h in values:
        return (values[h] - values[-h]) / (2.0 * h)
    if 2.0 * h in values:
        return (values[2.0 * h] - values[0.0]) / (2.0 * h)
    return (values[-2.0 * h] - values[0.0]) / (-2.0 * h)


# --- strategies --------------------------------------------------------------

coord = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)


@st.composite
def logchol_coords(draw, batch=False):
    k = draw(st.integers(1, 4))
    shape = (draw(st.integers(1, 5)), vech_dim(k)) if batch else (vech_dim(k),)
    return draw(hnp.arrays(np.float64, shape, elements=coord))


# --- tests ---------------------------------------------------------------------

class TestTril:
    def test_cached_arrays_are_read_only(self):
        rows, cols = tril(3)
        diag = tril_diag(3)
        assert tril(3)[0] is rows and tril_diag(3) is diag
        for arr in (rows, cols, diag):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_layout(self, k):
        rows, cols = tril(k)
        assert np.array_equal(rows, np.tril_indices(k)[0])
        assert np.array_equal(cols, np.tril_indices(k)[1])
        assert np.array_equal(rows[tril_diag(k)], np.arange(k))
        assert np.array_equal(cols[tril_diag(k)], np.arange(k))

    def test_vech_round_trip_and_fresh_output(self):
        mat = np.array([[2.0, 0.5, 0.1], [0.5, 3.0, -0.2], [0.1, -0.2, 1.0]])
        v = vech(mat)
        assert np.array_equal(v, [2.0, 0.5, 3.0, 0.1, -0.2, 1.0])
        v[0] = 99.0  # writing the output must not touch the input or cache
        assert mat[0, 0] == 2.0
        assert np.array_equal(unvech(vech(mat), 3), mat)


class TestLogCholesky:
    @settings(max_examples=60, deadline=None)
    @given(logchol_coords())
    def test_round_trip_single(self, z):
        chol = chol_from_logchol(z)
        k = dim_from_vech(z.size)
        assert chol.shape == (k, k)
        assert np.array_equal(chol, np.tril(chol))
        assert np.all(np.diag(chol) > 0)
        assert np.allclose(logchol_from_chol(chol), z, rtol=0, atol=1e-14)
        assert np.allclose(chol_from_logchol(logchol_from_chol(chol)), chol,
                           rtol=1e-14, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(logchol_coords(batch=True))
    def test_round_trip_batched_matches_single(self, z):
        chol = chol_from_logchol(z)
        assert chol.shape == z.shape[:1] + (chol.shape[-1],) * 2
        for n in range(z.shape[0]):
            assert np.array_equal(chol[n], chol_from_logchol(z[n]))
        back = logchol_from_chol(chol)
        assert np.array_equal(back, np.stack([logchol_from_chol(c) for c in chol]))
        assert np.allclose(back, z, rtol=0, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(logchol_coords())
    def test_bit_identical_to_nested_loops(self, z):
        chol = chol_from_logchol(z)
        assert np.array_equal(chol, loop_unpack(z))
        assert np.array_equal(logchol_from_chol(chol), loop_pack(chol))
        x, logjac = _WI.value_from_unconstrained(z)
        x_loop, logjac_loop = loop_wishart_value(z)
        assert np.array_equal(x, x_loop)
        assert logjac == logjac_loop
        spd = x + np.eye(x.shape[0])
        assert np.array_equal(_WI.unconstrained_from_value(spd),
                              loop_pack(np.linalg.cholesky(spd)))

    @settings(max_examples=40, deadline=None)
    @given(logchol_coords(batch=True))
    def test_sampler_matrix_bit_identical_to_nested_loop(self, z):
        k = dim_from_vech(z.shape[1])
        layout = Layout([BlockDef("w", Family.WISHART, k)])
        assert np.array_equal(layout.suff_stats_of_sampler_matrix(z),
                              loop_wishart_sampler_stats(z, k))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_family_fit_coordinates_match_loops(self, d):
        rng = np.random.default_rng(d)
        a = rng.normal(size=(d, d))
        sigma = a @ a.T + d * np.eye(d)
        mu = rng.normal(size=d)
        z = _GM.unconstrained_from_standard(mu, sigma)
        assert np.array_equal(z[d:], loop_pack(np.linalg.cholesky(sigma)))
        mu2, sigma2 = _GM.standard_from_unconstrained(z)
        chol = loop_unpack(z[d:])
        assert np.array_equal(mu2, mu) and np.array_equal(sigma2, chol @ chol.T)
        dof = d + 3.5
        zw = _WI.unconstrained_from_standard(dof, sigma)
        assert np.array_equal(zw[:-1], loop_pack(np.linalg.cholesky(dof * sigma)))
        dof2, scale2 = _WI.standard_from_unconstrained(zw)
        chol = loop_unpack(zw[:-1])
        assert dof2 == np.exp(zw[-1]) + d + 1.0
        assert np.array_equal(scale2, (chol @ chol.T) / dof2)


class TestFdJacobian:
    def test_calls_func_exactly_twice_per_coordinate(self):
        a = np.arange(15.0).reshape(3, 5) / 7.0
        calls = []

        def func(x):
            calls.append(x.copy())
            return a @ x

        jac = fd_jacobian(func, np.linspace(-2.0, 3.0, 5))
        assert len(calls) == 10
        assert jac.shape == (3, 5)
        assert np.allclose(jac, a, rtol=1e-8, atol=1e-9)

    def test_scalar_output(self):
        jac = fd_jacobian(lambda x: float(x @ x), np.array([1.0, -2.0]))
        assert jac.shape == (1, 2)
        assert np.allclose(jac, [[2.0, -4.0]], rtol=1e-8)

    def test_hessian_of_objective_bit_identical_to_loop(self, nig_model, nig_fit):
        sol, _ = nig_fit
        assert np.array_equal(
            linear_response.hessian_of_objective(nig_model, sol.mean),
            loop_hessian(nig_model, sol.mean))

    def test_prior_direction_gradient_bit_identical_to_loop(self, micro_model,
                                                            micro_fit):
        sol, _ = micro_fit
        alpha = micro_model.hyperparams
        assert len(alpha) == 8
        for name in alpha:
            assert np.array_equal(
                robustness.prior_direction_gradient(micro_model, sol.mean, {name: 1.0}),
                loop_prior_direction_gradient(micro_model, sol.mean, {name: 1.0}))
        # a step that takes noise_shape below zero, or prior_info out of the
        # positive-definite cone, is taken one-sided; one that only changes
        # the sign of prior_info_12 stays central
        near_edge = [
            (alpha.with_updates(noise_shape=5e-7, prior_info_12=1e-30),
             ({"noise_shape": 3.0}, {"noise_shape": -0.5, "lkj_shape": 2.0},
              {"prior_info_12": 1.0})),
            (alpha.with_updates(prior_info_11=1.0, prior_info_12=1.0 - 1e-8,
                                prior_info_22=1.0),
             ({"prior_info_11": 1.0}, {"prior_info_12": 1.0}, {"prior_info_22": -2.0}))]
        for at, directions in near_edge:
            model = replace(micro_model, hyperparams=at)
            for direction in directions:
                assert np.array_equal(
                    robustness.prior_direction_gradient(model, sol.mean, direction),
                    loop_prior_direction_gradient(model, sol.mean, direction))


class TestLogMinusDigamma:
    @pytest.mark.parametrize("c", [1e9, 8e214, 1e300])
    def test_large_gap_root_near_inverse(self, c):
        # an inverse-gamma shape near 1e-215 (a fuzzed --set noise_shape)
        # once overflowed the initializer and ended in brentq's ValueError
        root = solve_log_minus_digamma(c)
        assert abs((np.log(root) - digamma(root)) / c - 1.0) < 1e-6

    @pytest.mark.parametrize("c", [1e-15, 3e-16, 1e-300])
    def test_tiny_gap_root_near_half_inverse(self, c):
        # log(a) - digamma(a) ~ 1/(2a) is lost to rounding past a ~ 1e13;
        # the bracketed solver returned 1.4e14 for c = 1e-15 and raised
        # for c = 1e-300
        assert abs(solve_log_minus_digamma(c) * 2.0 * c - 1.0) < 1e-6

    def test_matches_brentq_solver(self):
        # above a ~ 500 log(a) - digamma(a) cancels, and the two solvers may
        # settle on different points of its rounding noise; the standard /
        # mean round trips in test_expfam bound that range
        shapes = np.logspace(-8.0, np.log10(500.0), 1000)
        gaps = np.log(shapes) - digamma(shapes)
        roots = solve_log_minus_digamma(gaps)
        ref = np.array([brentq_log_minus_digamma(c) for c in gaps])
        assert np.max(np.abs(roots / ref - 1.0)) <= 1e-12

    def test_one_call_equals_single_calls(self):
        shapes = np.logspace(-8.0, 4.0, 1000)
        gaps = np.log(shapes) - digamma(shapes)
        roots = solve_log_minus_digamma(gaps)
        singles = [solve_log_minus_digamma(c) for c in gaps]
        assert all(type(r) is float for r in singles)
        assert np.array_equal(roots, singles)
        assert np.array_equal(solve_log_minus_digamma(gaps.reshape(40, 25)),
                              roots.reshape(40, 25))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_domain_error_for_any_bad_gap(self, bad):
        with pytest.raises(DomainError):
            solve_log_minus_digamma(bad)
        with pytest.raises(DomainError):
            solve_log_minus_digamma(np.array([1.0, bad, 2.0]))


class TestWishartDofSolve:
    """The k = K Newton solve against the brentq it replaced."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("lo, hi, tol", [(1e-6, 100.0, 1e-13), (100.0, 1e3, 2e-12)])
    def test_matches_brentq_reference(self, k, lo, hi, tol):
        # past dof - K - 1 ~ 100 the gap starts to cancel, as it does for
        # the gamma shape past ~ 500
        dof = k + 1.0 + np.logspace(np.log10(lo), np.log10(hi), 500)
        gaps = brentq_dof_gap(dof, k)
        ref = np.array([brentq_solve_dof(g, k) for g in gaps])
        roots = 2.0 * solve_log_minus_digamma(-gaps, k)
        assert np.max(np.abs(roots / ref - 1.0)) <= tol

    def test_one_call_equals_single_calls(self):
        dof = 3.0 + np.logspace(-6.0, 4.0, 400)
        gaps = -brentq_dof_gap(dof, 2)
        roots = solve_log_minus_digamma(gaps, 2)
        singles = [solve_log_minus_digamma(c, 2) for c in gaps]
        assert all(type(r) is float for r in singles)
        assert np.array_equal(roots, singles)
        assert np.array_equal(solve_log_minus_digamma(gaps.reshape(20, 20), 2),
                              roots.reshape(20, 20))

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("below", [0.0, 1e-12, 0.5, 50.0])
    def test_gap_at_or_below_the_boundary_raises(self, k, below):
        mean = np.eye(k) + 0.3
        gap = brentq_dof_gap(k + 1.0, k) - below
        m = np.append(vech(mean), np.linalg.slogdet(mean)[1] + gap)
        with pytest.raises(DomainError, match=r"degrees of freedom <= K\+1"):
            _WI.standard_from_mean(m)
        with pytest.raises(DomainError, match=r"degrees of freedom <= K\+1"):
            _WI.standard_from_mean(np.stack([_WI.mean_from_standard(k + 5.0, mean), m]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_domain_error_for_any_bad_gap(self, bad):
        with pytest.raises(DomainError):
            solve_log_minus_digamma(np.array([1.0, bad]), 3)


class TestPolygammaHelpers:
    def test_bit_identical_to_polygamma(self):
        x = np.logspace(-8.0, 4.0, 4000)
        assert np.array_equal(digamma(x), polygamma(0, x))
        assert np.array_equal(trigamma(x), polygamma(1, x))
        for v in x[::97]:
            assert digamma(v) == polygamma(0, v) and trigamma(v) == polygamma(1, v)
