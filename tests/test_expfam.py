import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import digamma

from lrvb import expfam as ef
from lrvb.errors import DomainError
from lrvb.expfam import ExpFamBlock, Family
from lrvb.util import fd_jacobian, vech


def random_natural(family, rng):
    fam = ef.FAMILIES[family]
    if family is Family.GAUSSIAN_UNIVARIATE:
        return fam.natural_from_standard(rng.normal(), rng.uniform(0.2, 3.0))
    if family is Family.GAMMA:
        return fam.natural_from_standard(rng.uniform(0.5, 6.0), rng.uniform(0.3, 5.0))
    if family is Family.INVERSE_GAMMA:
        return fam.natural_from_standard(rng.uniform(0.8, 6.0), rng.uniform(0.3, 5.0))
    if family is Family.GAUSSIAN_MULTIVARIATE:
        a = rng.normal(size=(2, 2))
        return fam.natural_from_standard(rng.normal(size=2), a @ a.T + 2.0 * np.eye(2))
    a = rng.normal(size=(2, 2))
    return fam.natural_from_standard(rng.uniform(3.5, 15.0),
                                     (a @ a.T + 2.0 * np.eye(2)) / 5.0)


class TestMeanFromNatural:
    def test_standard_normal(self):
        blk = ExpFamBlock.from_standard(Family.GAUSSIAN_UNIVARIATE, 0.0, 1.0)
        assert np.allclose(blk.mean, [0.0, 1.0], atol=1e-14)

    def test_gaussian_mean_two_var_four(self):
        # natural (0.5, -0.125); second moment is mu^2 + var = 8
        blk = ExpFamBlock.from_natural(Family.GAUSSIAN_UNIVARIATE, [0.5, -0.125])
        assert np.allclose(blk.mean, [2.0, 8.0], rtol=1e-12)

    def test_gaussian_second_moment_monte_carlo(self):
        blk = ExpFamBlock.from_natural(Family.GAUSSIAN_UNIVARIATE, [0.5, -0.125])
        draws = ef.sample_block(blk, 10 ** 6, np.random.default_rng(0))
        stats = ef.block_suff_stats(blk, draws)
        se = stats.std(axis=0) / np.sqrt(draws.size)
        assert np.all(np.abs(stats.mean(axis=0) - blk.mean) < 3.0 * se)

    def test_wishart_identity_mean(self):
        blk = ExpFamBlock.from_standard(Family.WISHART, 5.0, np.eye(2) / 5.0)
        assert np.allclose(ef.mean_from_natural(blk)[:3], [1.0, 0.0, 1.0], rtol=1e-12)

    def test_out_of_domain_raises(self):
        with pytest.raises(DomainError):
            ExpFamBlock.from_natural(Family.GAUSSIAN_UNIVARIATE, [0.0, 0.5])


class TestRoundTrips:
    @pytest.mark.parametrize("family", list(Family))
    def test_natural_mean_round_trip(self, family):
        rng = np.random.default_rng(101)
        for _ in range(100):
            eta = random_natural(family, rng)
            blk = ExpFamBlock.from_natural(family, eta)
            back = ef.natural_from_mean(blk)
            assert np.max(np.abs(back - eta)) < 1e-10 * max(1.0, np.max(np.abs(eta)))


class TestSuffStatCovariance:
    def test_standard_normal(self):
        blk = ExpFamBlock.from_standard(Family.GAUSSIAN_UNIVARIATE, 0.0, 1.0)
        assert np.allclose(ef.suff_stat_covariance(blk), [[1, 0], [0, 2]], atol=1e-14)

    def test_shifted_normal_fourth_moment(self):
        blk = ExpFamBlock.from_standard(Family.GAUSSIAN_UNIVARIATE, 1.0, 1.0)
        assert np.allclose(ef.suff_stat_covariance(blk), [[1, 2], [2, 6]], atol=1e-12)

    def test_exponential_trigamma(self):
        blk = ExpFamBlock.from_standard(Family.GAMMA, 1.0, 1.0)
        expect = [[1.0, 1.0], [1.0, np.pi ** 2 / 6.0]]
        assert np.allclose(ef.suff_stat_covariance(blk), expect, rtol=1e-12)

    @pytest.mark.parametrize("family", list(Family))
    def test_equals_jacobian_of_mean_map(self, family):
        # the covariance is the log-partition Hessian, i.e. d mean / d natural
        rng = np.random.default_rng(77)
        fam = ef.FAMILIES[family]
        for _ in range(10):
            eta = random_natural(family, rng)
            jac = fd_jacobian(lambda e: fam.mean_from_natural(np.asarray(e)), eta,
                              rel_step=1e-6)
            cov = fam.suff_stat_cov(eta)
            scale = max(np.max(np.abs(cov)), 1.0)
            assert np.max(np.abs(jac - cov)) / scale < 1e-6
            assert np.allclose(cov, cov.T)
            assert np.min(np.linalg.eigvalsh(cov)) > -1e-10 * scale


class TestEntropy:
    def test_standard_normal(self):
        blk = ExpFamBlock.from_standard(Family.GAUSSIAN_UNIVARIATE, 0.0, 1.0)
        assert np.isclose(ef.entropy(blk), 0.5 * np.log(2.0 * np.pi * np.e), rtol=1e-12)

    def test_scaled_normal(self):
        blk = ExpFamBlock.from_standard(Family.GAUSSIAN_UNIVARIATE, 0.0, 4.0)
        expect = 0.5 * np.log(2.0 * np.pi * np.e) + np.log(2.0)
        assert np.isclose(ef.entropy(blk), expect, rtol=1e-12)

    def test_unit_exponential(self):
        blk = ExpFamBlock.from_standard(Family.GAMMA, 1.0, 1.0)
        assert np.isclose(ef.entropy(blk), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("family", list(Family))
    def test_matches_sampled_log_density(self, family):
        rng = np.random.default_rng(5)
        blk = ExpFamBlock.from_natural(family, random_natural(family, rng))
        draws = ef.sample_block(blk, 4000, np.random.default_rng(8))
        vals = np.array([-ef.block_log_density(blk, draws[i]) for i in range(4000)])
        se = vals.std() / np.sqrt(vals.size)
        assert abs(vals.mean() - ef.entropy(blk)) < 4.0 * se


class TestWishartExpectations:
    def test_identity_mean_precision(self):
        w = ef.wishart_expectations(5.0, np.eye(2) / 5.0)
        assert np.allclose(w.mean_precision, np.eye(2), rtol=1e-12)

    def test_logdet_closed_form(self):
        w = ef.wishart_expectations(5.0, np.eye(2) / 5.0)
        expect = digamma(2.5) + digamma(2.0) + np.log(1.0 / 25.0) + 2.0 * np.log(2.0)
        assert np.isclose(w.logdet, expect, rtol=1e-12)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(12)
        dof, scale = 7.0, np.array([[0.4, 0.1], [0.1, 0.3]])
        w = ef.wishart_expectations(dof, scale)
        blk = ExpFamBlock.from_standard(Family.WISHART, dof, scale)
        draws = ef.sample_block(blk, 10 ** 5, rng)
        inv = np.linalg.inv(draws)
        diag = inv[:, [0, 1], [0, 1]]
        for mc, exact in [
            (ef.block_suff_stats(blk, draws)[:, :3], vech(w.mean_precision)),
            (np.log(diag), w.log_sigma_diag),
            (np.sqrt(diag), w.sqrt_sigma_diag),
            (1.0 / diag, w.inv_sigma_diag),
        ]:
            se = mc.std(axis=0) / np.sqrt(mc.shape[0])
            assert np.all(np.abs(mc.mean(axis=0) - exact) < 3.0 * se)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ef.wishart_expectations(2.5, np.eye(2))
        with pytest.raises(DomainError):
            ef.wishart_expectations(5.0, -np.eye(2))


class TestInvGammaSqrt:
    def test_gamma_ratio_value(self):
        assert np.isclose(ef.invgamma_sqrt_expectation(1.5, 1.0),
                          2.0 / np.sqrt(np.pi), rtol=1e-12)

    def test_scale_factor(self):
        assert np.isclose(ef.invgamma_sqrt_expectation(1.5, 4.0),
                          4.0 / np.sqrt(np.pi), rtol=1e-12)

    def test_monte_carlo(self):
        rng = np.random.default_rng(4)
        shape, scale = 2.3, 1.7
        draws = scale / rng.gamma(shape, 1.0, size=10 ** 6)
        vals = np.sqrt(draws)
        se = vals.std() / np.sqrt(vals.size)
        assert abs(vals.mean() - ef.invgamma_sqrt_expectation(shape, scale)) < 3.0 * se

    def test_shape_domain(self):
        with pytest.raises(DomainError):
            ef.invgamma_sqrt_expectation(0.4, 1.0)


class TestGaussianLogDensityChunks:
    @pytest.mark.parametrize("d", [2, 5])
    def test_slices_bit_identical_to_whole_call(self, d):
        # an influence grid may evaluate its points in any grouping; each
        # point must get the same bits whatever shares its call
        rng = np.random.default_rng(d)
        a = rng.normal(size=(d, d))
        eta = ef.FAMILIES[Family.GAUSSIAN_MULTIVARIATE].natural_from_standard(
            rng.normal(size=d), a @ a.T + np.eye(d))
        blk = ExpFamBlock.from_natural(Family.GAUSSIAN_MULTIVARIATE, eta)
        x = rng.normal(size=(1003, d))
        whole = ef.block_log_density(blk, x)
        for size in range(1, 40):
            for off in range(16):
                part = np.atleast_1d(ef.block_log_density(blk, x[off:off + size]))
                assert np.array_equal(part, whole[off:off + size]), (size, off)


def _round_trip_error(family, params):
    fam = ef.FAMILIES[family]
    back = fam.standard_from_mean(fam.mean_from_standard(*params))
    return max(np.max(np.abs(np.asarray(b) - p)) / np.max(np.abs(p))
               for b, p in zip(back, params))


class TestStandardMeanRoundTrip:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(-8.0, 4.0), st.floats(-3.0, 3.0))
    @example(-8.0, 0.0)
    def test_inverse_gamma(self, log10_shape, log10_rate):
        params = (10.0 ** log10_shape, 10.0 ** log10_rate)
        err = _round_trip_error(Family.INVERSE_GAMMA, params)
        assert err <= ef.ROUND_TRIP_TOL, (params, err)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(-6.0, 4.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
           st.floats(-0.99, 0.99))
    @example(-6.0, 0.0, 0.0, 0.0)
    @example(4.0, 3.0, -3.0, 0.99)
    def test_wishart_2x2(self, log10_excess, log_sd1, log_sd2, corr):
        # dof over (K+1+1e-6, 1e4]; scale = D R D with any diagonal D and
        # |corr| <= 0.99.  Rounding the entries of E[X] moves log|E[X]| by
        # about eps * cond(R), and the dof read off that gap magnifies it by
        # dof, so near-singular R at dof 1e4 loses digits in the mean
        # coordinates themselves, whatever the solver does.
        dof = min(3.0 + 10.0 ** log10_excess, 1e4)
        sd = np.exp([log_sd1, log_sd2])
        params = (dof, np.outer(sd, sd) * np.array([[1.0, corr], [corr, 1.0]]))
        err = _round_trip_error(Family.WISHART, params)
        assert err <= ef.ROUND_TRIP_TOL, (params, err)


def _random_standard(family, var_dim, n, rng):
    """Standard parameters of n random valid blocks, stacked."""
    if family is Family.GAUSSIAN_UNIVARIATE:
        return rng.normal(scale=3.0, size=n), np.exp(rng.uniform(-3.0, 3.0, n))
    if family in (Family.GAMMA, Family.INVERSE_GAMMA):
        return np.exp(rng.uniform(-3.0, 5.0, n)), np.exp(rng.uniform(-3.0, 3.0, n))
    a = rng.normal(size=(n, var_dim, var_dim))
    spd = a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(var_dim)
    if family is Family.GAUSSIAN_MULTIVARIATE:
        return rng.normal(size=(n, var_dim)), spd
    dof = var_dim + 1.0 + np.exp(rng.uniform(-3.0, 4.0, n))
    return dof, spd / dof[:, None, None]


FAMILY_DIMS = [(Family.GAUSSIAN_UNIVARIATE, 1), (Family.GAUSSIAN_MULTIVARIATE, 1),
               (Family.GAUSSIAN_MULTIVARIATE, 2), (Family.GAUSSIAN_MULTIVARIATE, 3),
               (Family.GAMMA, 1), (Family.INVERSE_GAMMA, 1), (Family.WISHART, 2),
               (Family.WISHART, 3)]


class TestBatchedMaps:
    """Row i of a call on n stacked blocks equals the call on block i alone.

    Every batched map is built from elementwise arithmetic, sums over fixed
    axes, index arrays and per-matrix LAPACK calls (inv, cholesky, slogdet)
    or per-matrix matmul, so no block's value depends on what else shares
    the call: the test asks for bit equality everywhere.
    """

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.sampled_from(FAMILY_DIMS), st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
    def test_rows_equal_single_block_calls(self, family_dim, n, seed):
        family, var_dim = family_dim
        fam = ef.FAMILIES[family]
        params = _random_standard(family, var_dim, n, np.random.default_rng(seed))
        mean = fam.mean_from_standard(*params)
        eta = fam.natural_from_standard(*params)
        z = fam.unconstrained_from_standard(*params)
        stacked_maps = {
            "mean_from_standard": (lambda p: fam.mean_from_standard(*p), params),
            "natural_from_standard": (lambda p: fam.natural_from_standard(*p), params),
            "unconstrained_from_standard":
                (lambda p: fam.unconstrained_from_standard(*p), params),
            "standard_from_unconstrained": (fam.standard_from_unconstrained, z),
            "mean_jacobian_unconstrained": (fam.mean_jacobian_unconstrained, z),
            "standard_from_mean": (fam.standard_from_mean, mean),
            "natural_from_mean": (lambda m: fam.natural_from_mean(m, var_dim), mean),
            "log_partition": (fam.log_partition, eta),
            "suff_stat_cov": (fam.suff_stat_cov, eta),
        }
        for name, (func, arg) in stacked_maps.items():
            whole = func(arg)
            whole = whole if isinstance(whole, tuple) else (whole,)
            for i in range(n):
                row = tuple(p[i] for p in arg) if isinstance(arg, tuple) else arg[i]
                one = func(row)
                one = one if isinstance(one, tuple) else (one,)
                for w, o in zip(whole, one):
                    assert np.shape(w)[1:] == np.shape(o), (name, i)
                    assert np.array_equal(w[i], o), (name, i, w[i], o)
        assert mean.shape == eta.shape == z.shape == (n, fam.stat_dim(var_dim))
        fam.check_mean(mean, var_dim)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(FAMILY_DIMS), st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
    def test_check_mean_raises_when_any_block_would(self, family_dim, n, seed):
        family, var_dim = family_dim
        fam = ef.FAMILIES[family]
        rng = np.random.default_rng(seed)
        mean = fam.mean_from_standard(*_random_standard(family, var_dim, n, rng))
        bad = rng.integers(n)
        # moving the last statistic this way breaks the second moment, the
        # Jensen gap or the Wishart log-determinant bound
        push = {Family.GAUSSIAN_UNIVARIATE: -1.0, Family.GAUSSIAN_MULTIVARIATE: -1.0,
                Family.INVERSE_GAMMA: -50.0, Family.GAMMA: 50.0, Family.WISHART: 50.0}
        mean[bad, -1] = np.copysign(abs(mean[bad, -1]), push[family]) + push[family]
        single = []
        for i in range(n):
            try:
                fam.check_mean(mean[i], var_dim)
                single.append(False)
            except DomainError:
                single.append(True)
        assert single[bad]
        with pytest.raises(DomainError):
            fam.check_mean(mean, var_dim)
