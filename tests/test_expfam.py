import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import digamma

from lrvb import expfam as ef
from lrvb.errors import DomainError
from lrvb.expfam import Family
from lrvb.util import fd_jacobian, vech, vech_dup


def random_natural(family, rng):
    fam = ef.FAMILIES[family]
    if family is Family.GAUSSIAN_UNIVARIATE:
        return fam.natural_from_standard([rng.normal()], [[rng.uniform(0.2, 3.0)]])
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


GU = ef.FAMILIES[Family.GAUSSIAN_UNIVARIATE]


class TestMeanFromNatural:
    def test_standard_normal(self):
        assert np.allclose(GU.mean_from_natural(GU.natural_from_standard([0.0], [[1.0]])),
                           [0.0, 1.0], atol=1e-14)

    def test_gaussian_mean_two_var_four(self):
        # natural (0.5, -0.125); second moment is mu^2 + var = 8
        assert np.allclose(GU.mean_from_natural([0.5, -0.125]), [2.0, 8.0], rtol=1e-12)

    def test_gaussian_second_moment_monte_carlo(self):
        eta = np.array([0.5, -0.125])
        draws = GU.sample(eta, 10 ** 6, np.random.default_rng(0))
        stats = GU.suff_stats(draws)
        se = stats.std(axis=0) / np.sqrt(draws.size)
        assert np.all(np.abs(stats.mean(axis=0) - GU.mean_from_natural(eta)) < 3.0 * se)

    def test_wishart_identity_mean(self):
        fam = ef.FAMILIES[Family.WISHART]
        mean = fam.mean_from_natural(fam.natural_from_standard(5.0, np.eye(2) / 5.0))
        assert np.allclose(mean[:3], [1.0, 0.0, 1.0], rtol=1e-12)

    @pytest.mark.parametrize("family, eta", [
        # a non-negative second-moment coefficient
        (Family.GAUSSIAN_UNIVARIATE, [0.0, 0.5]),
        (Family.GAUSSIAN_UNIVARIATE, [1.0, 0.0]),
        # -2 * the second-moment matrix is [[1, 2], [2, 1]], not positive definite
        (Family.GAUSSIAN_MULTIVARIATE, np.concatenate(
            [np.zeros(2), vech_dup(-0.5 * np.array([[1.0, 2.0], [2.0, 1.0]]))])),
        # rate term -eta_0 <= 0
        (Family.GAMMA, [0.5, 1.0]),
        (Family.GAMMA, [0.0, 1.0]),
        (Family.INVERSE_GAMMA, [0.5, -3.0]),
        (Family.INVERSE_GAMMA, [0.0, -3.0]),
        # dof = 2 eta_last + K + 1 = K + 1
        (Family.WISHART, np.append(vech_dup(-0.5 * np.eye(2)), 0.0)),
    ])
    def test_out_of_domain_raises(self, family, eta):
        with pytest.raises(DomainError):
            ef.FAMILIES[family].mean_from_natural(np.asarray(eta))


class TestRoundTrips:
    @pytest.mark.parametrize("family", list(Family))
    def test_natural_mean_round_trip(self, family):
        rng = np.random.default_rng(101)
        fam = ef.FAMILIES[family]
        for _ in range(100):
            eta = random_natural(family, rng)
            back = fam.natural_from_mean(fam.mean_from_natural(eta))
            assert np.max(np.abs(back - eta)) < 1e-10 * max(1.0, np.max(np.abs(eta)))


class TestSuffStatCovariance:
    def test_standard_normal(self):
        cov = GU.suff_stat_cov(GU.natural_from_standard([0.0], [[1.0]]))
        assert np.allclose(cov, [[1, 0], [0, 2]], atol=1e-14)

    def test_shifted_normal_fourth_moment(self):
        cov = GU.suff_stat_cov(GU.natural_from_standard([1.0], [[1.0]]))
        assert np.allclose(cov, [[1, 2], [2, 6]], atol=1e-12)

    def test_exponential_trigamma(self):
        fam = ef.FAMILIES[Family.GAMMA]
        expect = [[1.0, 1.0], [1.0, np.pi ** 2 / 6.0]]
        assert np.allclose(fam.suff_stat_cov(fam.natural_from_standard(1.0, 1.0)), expect,
                           rtol=1e-12)

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
        assert np.isclose(ef.entropy(Family.GAUSSIAN_UNIVARIATE,
                                     GU.natural_from_standard([0.0], [[1.0]])),
                          0.5 * np.log(2.0 * np.pi * np.e), rtol=1e-12)

    def test_scaled_normal(self):
        expect = 0.5 * np.log(2.0 * np.pi * np.e) + np.log(2.0)
        assert np.isclose(ef.entropy(Family.GAUSSIAN_UNIVARIATE,
                                     GU.natural_from_standard([0.0], [[4.0]])),
                          expect, rtol=1e-12)

    def test_unit_exponential(self):
        eta = ef.FAMILIES[Family.GAMMA].natural_from_standard(1.0, 1.0)
        assert np.isclose(ef.entropy(Family.GAMMA, eta), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("family", list(Family))
    def test_matches_sampled_log_density(self, family):
        rng = np.random.default_rng(5)
        fam = ef.FAMILIES[family]
        eta = random_natural(family, rng)
        draws = fam.sample(eta, 4000, np.random.default_rng(8))
        vals = np.array([-fam.log_density(draws[i], eta) for i in range(4000)])
        se = vals.std() / np.sqrt(vals.size)
        assert abs(vals.mean() - ef.entropy(family, eta)) < 4.0 * se


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
        fam = ef.FAMILIES[Family.WISHART]
        draws = fam.sample(fam.natural_from_standard(dof, scale), 10 ** 5, rng)
        inv = np.linalg.inv(draws)
        diag = inv[:, [0, 1], [0, 1]]
        for mc, exact in [
            (fam.suff_stats(draws)[:, :3], vech(w.mean_precision)),
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
        fam = ef.FAMILIES[Family.GAUSSIAN_MULTIVARIATE]
        eta = fam.natural_from_standard(rng.normal(size=d), a @ a.T + np.eye(d))
        x = rng.normal(size=(1003, d))
        whole = fam.log_density(x, eta)
        for size in range(1, 40):
            for off in range(16):
                part = np.atleast_1d(fam.log_density(x[off:off + size], eta))
                assert np.array_equal(part, whole[off:off + size]), (size, off)


class TestGaussianLogDensity:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_matches_scipy(self, d):
        rng = np.random.default_rng(10 + d)
        a = rng.normal(size=(d, d))
        mu, sigma = rng.normal(size=d), a @ a.T + 0.5 * np.eye(d)
        eta = ef.FAMILIES[Family.GAUSSIAN_MULTIVARIATE].natural_from_standard(mu, sigma)
        x = mu + 3.0 * rng.normal(size=(200, d))
        ours = ef.FAMILIES[Family.GAUSSIAN_MULTIVARIATE].log_density(x, eta)
        ref = scipy.stats.multivariate_normal(mu, sigma).logpdf(x)
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("lam", [[[1.0, 2.0], [2.0, 1.0]], [[-1.0, 0.0], [0.0, 1.0]],
                                     [[1.0, np.nan], [np.nan, 1.0]]])
    def test_precision_outside_domain_raises(self, lam):
        # Lambda = [[1, 2], [2, 1]] gave a finite -1.354
        eta = np.concatenate([np.zeros(2), vech_dup(-0.5 * np.array(lam))])
        with pytest.raises(DomainError, match="not negative definite"):
            ef.FAMILIES[Family.GAUSSIAN_MULTIVARIATE].log_density(np.zeros(2), eta)

    def test_nonfinite_location_raises(self):
        eta = np.array([np.inf, 0.0, -0.5, 0.0, -0.5])
        with pytest.raises(DomainError):
            ef.FAMILIES[Family.GAUSSIAN_MULTIVARIATE].log_density(np.zeros(2), eta)


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
        return (rng.normal(scale=3.0, size=(n, 1)),
                np.exp(rng.uniform(-3.0, 3.0, n))[:, None, None])
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
            "fit_terms": (fam.fit_terms, z),
            "standard_from_mean": (fam.standard_from_mean, mean),
            "natural_from_mean": (lambda m: fam.natural_from_mean(m, var_dim), mean),
            "mean_from_natural": (fam.mean_from_natural, eta),
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


class TestClosedFormEntropy:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(FAMILY_DIMS), st.integers(0, 2 ** 32 - 1))
    def test_matches_log_partition_minus_eta_dot_mean(self, family_dim, seed):
        # the reference A(eta) - eta.m rounds like |A| + |eta.m|
        family, var_dim = family_dim
        fam = ef.FAMILIES[family]
        params = _random_standard(family, var_dim, 5, np.random.default_rng(seed))
        closed = fam.fit_terms(fam.unconstrained_from_standard(*params)).entropy
        for i in range(5):
            eta = fam.natural_from_standard(*(p[i] for p in params))
            scale = max(1.0, abs(fam.log_partition(eta))
                        + abs(float(eta @ fam.mean_from_natural(eta))))
            assert abs(closed[i] - ef.entropy(family, eta)) <= 1e-10 * scale, (params, i)


class TestQuadSupport:
    def test_scalar_families_give_the_range_of_x(self):
        assert ef.FAMILIES[Family.GAUSSIAN_UNIVARIATE].quad_support() == (-np.inf, np.inf)
        for family in (Family.GAMMA, Family.INVERSE_GAMMA):
            assert ef.FAMILIES[family].quad_support() == (0.0, np.inf)

    @pytest.mark.parametrize("family", [Family.GAUSSIAN_MULTIVARIATE, Family.WISHART])
    def test_matrix_families_have_none(self, family):
        with pytest.raises(DomainError, match=f"no quadrature support for family "
                           f"{family.value}"):
            ef.FAMILIES[family].quad_support()


class TestUnivariateGaussian:
    """The d = 1 Gaussian shares the multivariate maps; only its per-point
    closed forms and its sampler are its own."""

    @pytest.mark.parametrize("family, mu, sigma", [
        (Family.GAUSSIAN_UNIVARIATE, [1e200], [[1.0]]),
        (Family.GAUSSIAN_MULTIVARIATE, [1e200, 0.0], np.eye(2)),
    ])
    def test_overflowing_second_moment_raises(self, family, mu, sigma):
        with pytest.raises(DomainError, match="second moments"):
            ef.FAMILIES[family].mean_from_standard(np.array(mu), np.array(sigma))

    def test_closed_forms_match_the_multivariate_family(self):
        gm = ef.FAMILIES[Family.GAUSSIAN_MULTIVARIATE]
        rng = np.random.default_rng(31)
        for _ in range(50):
            mu, sd = rng.normal(scale=3.0), np.exp(rng.uniform(-3.0, 3.0))
            eta = GU.natural_from_standard([mu], [[sd * sd]])
            x = mu + sd * rng.normal(scale=4.0, size=40)
            for got, want in [(GU.log_density(x, eta), gm.log_density(x[:, None], eta)),
                              (GU.suff_stats(x), gm.suff_stats(x[:, None]))]:
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("eta", [[0.0, 0.5], [np.nan, -0.5]], ids=["positive", "nan"])
    def test_log_density_checks_its_domain(self, eta):
        # the closed form returned NaN, with a RuntimeWarning at (0, 0.5)
        # and silently at (nan, -0.5), where the multivariate one raises
        gm = ef.FAMILIES[Family.GAUSSIAN_MULTIVARIATE]
        for fam in (GU, gm):
            with pytest.raises(DomainError, match="not negative definite"):
                fam.log_density(0.3 if fam is GU else [0.3], np.array(eta))


class TestMultivariateLogDensityShapes:
    """One point of shape (d,) gives a float and n points of shape (n, d) an
    (n,) array, for every n: an (n, d) input with n <= 1 gave a float, or
    an IndexError at n = 0."""

    @pytest.mark.parametrize("shape, expect", [((0, 2), (0,)), ((1, 2), (1,)), ((2,), None)])
    def test_shape(self, shape, expect):
        gm = ef.FAMILIES[Family.GAUSSIAN_MULTIVARIATE]
        eta = gm.natural_from_standard(np.array([0.5, -1.0]), np.array([[2.0, 0.3], [0.3, 1.0]]))
        x = np.full(shape, 0.25)
        out = gm.log_density(x, eta)
        if expect is None:
            assert isinstance(out, float)
            assert out == gm.log_density(x[None], eta)[0]
        else:
            assert isinstance(out, np.ndarray) and out.shape == expect
