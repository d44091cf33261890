"""Exponential-family building blocks.

Every variational factor is an exponential family ``q(x) = exp(eta's(x) - A(eta))``
over some underlying variable x, characterized either by its natural
parameters ``eta`` or by its mean parameters ``m = E_q[s(x)]``.  The
sufficient-statistic layouts are fixed per family so that covariance and
Hessian matrices compose consistently across blocks:

* ``GAUSSIAN_UNIVARIATE``  x in R,        s(x) = (x, x^2)
* ``GAUSSIAN_MULTIVARIATE`` x in R^d,     s(x) = (x, vech(x x'))
* ``GAMMA``                x > 0,         s(x) = (x, log x)
* ``INVERSE_GAMMA``        x > 0,         s(x) = (1/x, log x)
* ``WISHART``              X pos. def.,   s(X) = (vech(X), log|X|)

vech takes the lower triangle in row-major order; matrix-valued natural
parameters are stored with doubled off-diagonal coefficients so that
``eta @ vech(X) = trace(B X)`` (see :func:`lrvb.util.vech_dup`).  Symmetric
matrices are half-vectorized rather than fully vectorized to keep the
sufficient-statistic covariance nonsingular.

All functions are pure and :class:`ExpFamBlock` instances are immutable.
They call into the same BLAS library as every other stage, and concurrent
calls from threads of one process have not been shown safe with it; run
independent work in separate processes.
"""

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln
from scipy.stats import wishart as sp_wishart

from .errors import DomainError
from .util import (chol_from_logchol, digamma, dim_from_vech, is_pos_def,
                   logchol_from_chol, multidigamma, multigamma_ln,
                   multitrigamma, solve_log_minus_digamma, tril, tril_diag,
                   trigamma, unvech, unvech_half, vech, vech_dim, vech_dup)

ROUND_TRIP_TOL = 1e-10


class Family(enum.Enum):
    GAUSSIAN_UNIVARIATE = "gaussian_univariate"
    GAUSSIAN_MULTIVARIATE = "gaussian_multivariate"
    GAMMA = "gamma"
    INVERSE_GAMMA = "inverse_gamma"
    WISHART = "wishart"


@dataclass(frozen=True)
class ExpFamBlock:
    """One mean-field factor: family tag plus dual parameter vectors.

    ``dim`` is the length of the sufficient-statistic vector; ``var_dim``
    the dimension of the underlying variable (matrix side length for
    Wishart blocks).
    """

    family: Family
    dim: int
    natural: np.ndarray
    mean: np.ndarray
    var_dim: int = field(default=0)

    @staticmethod
    def from_natural(family, natural):
        fam = FAMILIES[family]
        natural = np.asarray(natural, dtype=float)
        var_dim = fam.var_dim_from_stat_dim(natural.size)
        fam.check_natural(natural, var_dim)
        mean = fam.mean_from_natural(natural, var_dim)
        return ExpFamBlock(family, natural.size, natural, mean, var_dim)

    @staticmethod
    def from_mean(family, mean):
        fam = FAMILIES[family]
        mean = np.asarray(mean, dtype=float)
        var_dim = fam.var_dim_from_stat_dim(mean.size)
        natural = fam.natural_from_mean(mean, var_dim)
        return ExpFamBlock(family, mean.size, natural, mean, var_dim)

    @staticmethod
    def from_standard(family, *params):
        fam = FAMILIES[family]
        natural = fam.natural_from_standard(*params)
        return ExpFamBlock.from_natural(family, natural)


# ---------------------------------------------------------------------------
# family implementations
# ---------------------------------------------------------------------------


class _GaussianUnivariate:
    """Scalar Gaussian; standard parameters (mu, var)."""

    family = Family.GAUSSIAN_UNIVARIATE

    def stat_dim(self, var_dim):
        return 2

    def var_dim_from_stat_dim(self, stat_dim):
        if stat_dim != 2:
            raise DomainError("univariate Gaussian blocks have 2 statistics")
        return 1

    def check_natural(self, eta, var_dim=1):
        if eta.shape != (2,) or not np.all(np.isfinite(eta)) or eta[1] >= 0:
            raise DomainError(f"invalid Gaussian natural parameters {eta}")

    def check_mean(self, m, var_dim=1):
        if m.shape != (2,) or not np.all(np.isfinite(m)) or m[1] - m[0] ** 2 <= 0:
            raise DomainError(f"invalid Gaussian mean parameters {m}")

    def standard_from_natural(self, eta):
        var = -0.5 / eta[1]
        return eta[0] * var, var

    def natural_from_standard(self, mu, var):
        if var <= 0:
            raise DomainError(f"variance must be positive, got {var}")
        return np.array([mu / var, -0.5 / var])

    def mean_from_standard(self, mu, var):
        with np.errstate(over="ignore"):  # an overflow is reported below
            second = mu ** 2 + var
        if not np.isfinite(second):
            raise DomainError(f"second moment of N({mu}, {var}) overflows")
        return np.array([mu, second])

    def standard_from_mean(self, m):
        self.check_mean(np.asarray(m, dtype=float))
        return m[0], m[1] - m[0] ** 2

    def mean_from_natural(self, eta, var_dim=1):
        return self.mean_from_standard(*self.standard_from_natural(eta))

    def natural_from_mean(self, m, var_dim=1):
        return self.natural_from_standard(*self.standard_from_mean(m))

    def log_partition(self, eta):
        return -eta[0] ** 2 / (4.0 * eta[1]) + 0.5 * np.log(np.pi / -eta[1])

    def suff_stat_cov(self, eta):
        mu, var = self.standard_from_natural(eta)
        c12 = 2.0 * mu * var
        return np.array([[var, c12], [c12, 2.0 * var ** 2 + 4.0 * mu ** 2 * var]])

    # fit parameterization: z = (mu, log var)
    def unconstrained_from_standard(self, mu, var):
        return np.array([mu, np.log(var)])

    def standard_from_unconstrained(self, z):
        return z[0], np.exp(z[1])

    def mean_jacobian_unconstrained(self, z):
        mu, var = self.standard_from_unconstrained(z)
        return np.array([[1.0, 0.0], [2.0 * mu, var]])

    # underlying-variable helpers
    def suff_stats(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.column_stack([x, x ** 2])

    def log_density(self, x, eta):
        mu, var = self.standard_from_natural(eta)
        return -0.5 * np.log(2.0 * np.pi * var) - 0.5 * (np.asarray(x) - mu) ** 2 / var

    def sample(self, eta, size, rng):
        mu, var = self.standard_from_natural(eta)
        return rng.normal(mu, np.sqrt(var), size=size)

    def value_from_unconstrained(self, z):
        return np.asarray(z, dtype=float), 0.0

    def unconstrained_from_value(self, x):
        return np.atleast_1d(np.asarray(x, dtype=float))


class _GaussianMultivariate:
    """d-dimensional Gaussian; standard parameters (mu, Sigma)."""

    family = Family.GAUSSIAN_MULTIVARIATE

    def stat_dim(self, var_dim):
        return var_dim + vech_dim(var_dim)

    def var_dim_from_stat_dim(self, stat_dim):
        for d in range(1, stat_dim):
            if d + vech_dim(d) == stat_dim:
                return d
        raise DomainError(f"no Gaussian dimension has {stat_dim} statistics")

    def _split(self, v, d):
        return np.asarray(v[:d], dtype=float), np.asarray(v[d:], dtype=float)

    def check_natural(self, eta, var_dim):
        h, jv = self._split(eta, var_dim)
        lam = -2.0 * unvech_half(jv, var_dim)
        if not (np.all(np.isfinite(eta)) and is_pos_def(lam)):
            raise DomainError("Gaussian natural second-moment matrix not negative definite")

    def check_mean(self, m, var_dim):
        mu, m2 = self._split(m, var_dim)
        sigma = unvech(m2, var_dim) - np.outer(mu, mu)
        if not (np.all(np.isfinite(m)) and is_pos_def(sigma)):
            raise DomainError("Gaussian mean parameters imply non-PD covariance")

    def standard_from_natural(self, eta):
        d = self.var_dim_from_stat_dim(eta.size)
        h, jv = self._split(eta, d)
        lam = -2.0 * unvech_half(jv, d)
        sigma = np.linalg.inv(lam)
        sigma = (sigma + sigma.T) / 2.0
        return sigma @ h, sigma

    def natural_from_standard(self, mu, sigma):
        mu = np.asarray(mu, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        if not is_pos_def(sigma):
            raise DomainError("covariance must be positive definite")
        lam = np.linalg.inv(sigma)
        lam = (lam + lam.T) / 2.0
        return np.concatenate([lam @ mu, vech_dup(-0.5 * lam)])

    def mean_from_standard(self, mu, sigma):
        mu = np.asarray(mu, dtype=float)
        return np.concatenate([mu, vech(np.asarray(sigma) + np.outer(mu, mu))])

    def standard_from_mean(self, m):
        d = self.var_dim_from_stat_dim(m.size)
        self.check_mean(m, d)
        mu, m2 = self._split(m, d)
        return mu, unvech(m2, d) - np.outer(mu, mu)

    def mean_from_natural(self, eta, var_dim=None):
        return self.mean_from_standard(*self.standard_from_natural(eta))

    def natural_from_mean(self, m, var_dim=None):
        return self.natural_from_standard(*self.standard_from_mean(np.asarray(m, dtype=float)))

    def log_partition(self, eta):
        mu, sigma = self.standard_from_natural(eta)
        d = mu.size
        lam = np.linalg.inv(sigma)
        (sign, logdet) = np.linalg.slogdet(lam)
        return 0.5 * mu @ lam @ mu - 0.5 * logdet + 0.5 * d * np.log(2.0 * np.pi)

    def suff_stat_cov(self, eta):
        # Wick's theorem for Gaussian moments up to fourth order.
        mu, sigma = self.standard_from_natural(eta)
        d = mu.size
        pairs = list(zip(*tril(d)))
        n = d + len(pairs)
        cov = np.zeros((n, n))
        cov[:d, :d] = sigma
        for a, (i, j) in enumerate(pairs):
            for r in range(d):
                cov[r, d + a] = cov[d + a, r] = (
                    mu[j] * sigma[r, i] + mu[i] * sigma[r, j])
        for a, (i, j) in enumerate(pairs):
            for b, (k, l) in enumerate(pairs):
                val = (sigma[i, k] * sigma[j, l] + sigma[i, l] * sigma[j, k]
                       + mu[i] * mu[k] * sigma[j, l] + mu[i] * mu[l] * sigma[j, k]
                       + mu[j] * mu[k] * sigma[i, l] + mu[j] * mu[l] * sigma[i, k])
                cov[d + a, d + b] = val
        return cov

    # fit parameterization: z = (mu, lower Cholesky of Sigma with log diagonal)
    def unconstrained_from_standard(self, mu, sigma):
        chol = np.linalg.cholesky(np.asarray(sigma, dtype=float))
        return np.concatenate([np.asarray(mu, dtype=float), logchol_from_chol(chol)])

    def standard_from_unconstrained(self, z):
        d = self.var_dim_from_stat_dim(len(z))  # same coordinate count as stats
        chol = chol_from_logchol(z[d:])
        return np.asarray(z[:d], dtype=float), chol @ chol.T

    def mean_jacobian_unconstrained(self, z):
        mu, sigma = self.standard_from_unconstrained(z)
        d = mu.size
        chol = np.linalg.cholesky(sigma)
        nstat = self.stat_dim(d)
        jac = np.zeros((nstat, len(z)))
        for c in range(d):  # d/d mu_c
            jac[c, c] = 1.0
            dm2 = np.outer(_unit(d, c), mu) + np.outer(mu, _unit(d, c))
            jac[d:, c] = vech(dm2)
        for idx, (i, j) in enumerate(zip(*tril(d)), start=d):
            dl = np.zeros((d, d))
            dl[i, j] = chol[i, i] if i == j else 1.0
            dsigma = dl @ chol.T + chol @ dl.T
            jac[d:, idx] = vech(dsigma)
        return jac

    # underlying-variable helpers
    def suff_stats(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        second = np.einsum("ni,nj->nij", x, x)
        rows, cols = tril(x.shape[1])
        return np.column_stack([x, second[:, rows, cols]])

    def log_density(self, x, eta):
        mu, sigma = self.standard_from_natural(eta)
        lam = np.linalg.inv(sigma)
        diff = np.atleast_2d(np.asarray(x, dtype=float)) - mu
        # elementwise products and fixed-shape sums: a point's value does not
        # depend on how many points share the call, unlike einsum or matmul
        quad = np.sum(diff[:, :, None] * lam * diff[:, None, :], axis=(1, 2))
        _, logdet = np.linalg.slogdet(sigma)
        out = -0.5 * (mu.size * np.log(2.0 * np.pi) + logdet + quad)
        return out if out.size > 1 else float(out[0])

    def sample(self, eta, size, rng):
        mu, sigma = self.standard_from_natural(eta)
        return rng.multivariate_normal(mu, sigma, size=size)

    def value_from_unconstrained(self, z):
        return np.asarray(z, dtype=float), 0.0

    def unconstrained_from_value(self, x):
        return np.asarray(x, dtype=float)


class _GammaLike:
    """Shared machinery for gamma and inverse-gamma blocks.

    Both have statistics (r(x), log x) with r(x) = x (gamma, natural
    (-rate, shape-1)) or r(x) = 1/x (inverse gamma, natural
    (-rate, -(shape+1))).  Standard parameters are (shape, rate).
    """

    def stat_dim(self, var_dim):
        return 2

    def var_dim_from_stat_dim(self, stat_dim):
        if stat_dim != 2:
            raise DomainError("gamma-type blocks have 2 statistics")
        return 1

    def check_natural(self, eta, var_dim=1):
        try:
            shape, rate = self.standard_from_natural(eta)
        except (IndexError, TypeError) as exc:
            raise DomainError(str(exc)) from exc
        if not (np.all(np.isfinite(eta)) and shape > 0 and rate > 0):
            raise DomainError(f"{self.family.value} natural parameters {eta} out of domain")

    def check_mean(self, m, var_dim=1):
        if m.shape != (2,) or not np.all(np.isfinite(m)) or m[0] <= 0:
            raise DomainError(f"invalid {self.family.value} mean parameters {m}")
        if self._mean_gap(m) <= 0:
            raise DomainError(f"mean parameters {m} violate Jensen's inequality")

    def natural_from_standard(self, shape, rate):
        if shape <= 0 or rate <= 0:
            raise DomainError(f"shape/rate must be positive, got {(shape, rate)}")
        return self._natural(shape, rate)

    def mean_from_standard(self, shape, rate):
        raise NotImplementedError

    def standard_from_mean(self, m):
        self.check_mean(np.asarray(m, dtype=float))
        shape = solve_log_minus_digamma(self._mean_gap(m))
        return shape, self._rate_from(shape, m)

    def mean_from_natural(self, eta, var_dim=1):
        return self.mean_from_standard(*self.standard_from_natural(eta))

    def natural_from_mean(self, m, var_dim=1):
        return self.natural_from_standard(*self.standard_from_mean(m))

    # fit parameterization: z = (log of the first-statistic mean, log shape);
    # aligning one axis with the mean keeps the coordinates well conditioned
    # when the data concentrate the block (shape >> 1)
    def unconstrained_from_standard(self, shape, rate):
        return np.array([np.log(shape / rate), np.log(shape)])

    def standard_from_unconstrained(self, z):
        return np.exp(z[1]), np.exp(z[1] - z[0])

    def value_from_unconstrained(self, z):
        x = np.exp(z[0])
        return np.array([x]), z[0]  # log-scale Jacobian: dx/dz = x

    def unconstrained_from_value(self, x):
        return np.log(np.atleast_1d(np.asarray(x, dtype=float)))


class _Gamma(_GammaLike):
    family = Family.GAMMA

    def _natural(self, shape, rate):
        return np.array([-rate, shape - 1.0])

    def standard_from_natural(self, eta):
        return eta[1] + 1.0, -eta[0]

    def _mean_gap(self, m):
        # log E[x] - E[log x] = log(shape) - digamma(shape) > 0
        return np.log(m[0]) - m[1]

    def _rate_from(self, shape, m):
        return shape / m[0]

    def mean_from_standard(self, shape, rate):
        return np.array([shape / rate, digamma(shape) - np.log(rate)])

    def log_partition(self, eta):
        shape, rate = self.standard_from_natural(eta)
        return gammaln(shape) - shape * np.log(rate)

    def suff_stat_cov(self, eta):
        shape, rate = self.standard_from_natural(eta)
        return np.array([[shape / rate ** 2, 1.0 / rate],
                         [1.0 / rate, trigamma(shape)]])

    def mean_jacobian_unconstrained(self, z):
        # m = (exp(z1), digamma(a) - log a + z1) with a = exp(z2)
        shape, rate = self.standard_from_unconstrained(z)
        return np.array([[shape / rate, 0.0],
                         [1.0, shape * trigamma(shape) - 1.0]])

    def suff_stats(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.column_stack([x, np.log(x)])

    def log_density(self, x, eta):
        shape, rate = self.standard_from_natural(eta)
        x = np.asarray(x, dtype=float)
        return shape * np.log(rate) - gammaln(shape) + (shape - 1.0) * np.log(x) - rate * x

    def sample(self, eta, size, rng):
        shape, rate = self.standard_from_natural(eta)
        return rng.gamma(shape, 1.0 / rate, size=size)


class _InverseGamma(_GammaLike):
    family = Family.INVERSE_GAMMA

    def _natural(self, shape, rate):
        return np.array([-rate, -(shape + 1.0)])

    def standard_from_natural(self, eta):
        return -eta[1] - 1.0, -eta[0]

    def _mean_gap(self, m):
        # log E[1/x] + E[log x] = log(shape) - digamma(shape) > 0
        return np.log(m[0]) + m[1]

    def _rate_from(self, shape, m):
        return shape / m[0]

    def mean_from_standard(self, shape, rate):
        return np.array([shape / rate, np.log(rate) - digamma(shape)])

    def log_partition(self, eta):
        shape, rate = self.standard_from_natural(eta)
        return gammaln(shape) - shape * np.log(rate)

    def suff_stat_cov(self, eta):
        shape, rate = self.standard_from_natural(eta)
        return np.array([[shape / rate ** 2, -1.0 / rate],
                         [-1.0 / rate, trigamma(shape)]])

    def mean_jacobian_unconstrained(self, z):
        # m = (exp(z1), log a - z1 - digamma(a)) with a = exp(z2)
        shape, rate = self.standard_from_unconstrained(z)
        return np.array([[shape / rate, 0.0],
                         [-1.0, 1.0 - shape * trigamma(shape)]])

    def suff_stats(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.column_stack([1.0 / x, np.log(x)])

    def log_density(self, x, eta):
        shape, rate = self.standard_from_natural(eta)
        x = np.asarray(x, dtype=float)
        return (shape * np.log(rate) - gammaln(shape)
                - (shape + 1.0) * np.log(x) - rate / x)

    def sample(self, eta, size, rng):
        shape, rate = self.standard_from_natural(eta)
        return rate / rng.gamma(shape, 1.0, size=size)


class _Wishart:
    """Wishart over K x K precision matrices; standard parameters (dof, scale).

    Density proportional to |X|^((n-K-1)/2) exp(-trace(scale^-1 X)/2).  The
    block domain requires n > K + 1 so every downstream inverse-moment
    formula stays finite.  The mean-to-natural map has no closed form; the
    degrees of freedom are recovered with a bracketed 1-D solve.
    """

    family = Family.WISHART

    def stat_dim(self, var_dim):
        return vech_dim(var_dim) + 1

    def var_dim_from_stat_dim(self, stat_dim):
        return dim_from_vech(stat_dim - 1)

    def _split(self, v, k):
        return np.asarray(v[:-1], dtype=float), float(v[-1])

    def check_natural(self, eta, var_dim):
        dof, scale = self.standard_from_natural(eta)
        if not (np.all(np.isfinite(eta)) and dof > var_dim + 1 and is_pos_def(scale)):
            raise DomainError(
                f"Wishart natural parameters need dof > K+1 and PD scale, got dof={dof}")

    def check_mean(self, m, var_dim):
        mv, logdet = self._split(m, var_dim)
        mean_mat = unvech(mv, var_dim)
        if not (np.all(np.isfinite(m)) and is_pos_def(mean_mat)):
            raise DomainError("Wishart mean matrix not positive definite")
        sign, ld = np.linalg.slogdet(mean_mat)
        if logdet - ld >= 0:
            raise DomainError("Wishart log-determinant coordinate violates Jensen's inequality")

    def standard_from_natural(self, eta):
        k = self.var_dim_from_stat_dim(eta.size)
        bv, e2 = self._split(eta, k)
        scale_inv = -2.0 * unvech_half(bv, k)
        if not is_pos_def(scale_inv):
            raise DomainError("Wishart natural matrix parameter not negative definite")
        scale = np.linalg.inv(scale_inv)
        scale = (scale + scale.T) / 2.0
        return 2.0 * e2 + k + 1.0, scale

    def natural_from_standard(self, dof, scale):
        scale = np.asarray(scale, dtype=float)
        k = scale.shape[0]
        if dof <= k + 1 or not is_pos_def(scale):
            raise DomainError(f"Wishart needs dof > K+1 and PD scale, got dof={dof}")
        scale_inv = np.linalg.inv(scale)
        scale_inv = (scale_inv + scale_inv.T) / 2.0
        return np.concatenate([vech_dup(-0.5 * scale_inv), [(dof - k - 1.0) / 2.0]])

    def mean_from_standard(self, dof, scale):
        scale = np.asarray(scale, dtype=float)
        k = scale.shape[0]
        sign, logdet_scale = np.linalg.slogdet(scale)
        logdet = multidigamma(dof / 2.0, k) + logdet_scale + k * np.log(2.0)
        return np.concatenate([vech(dof * scale), [logdet]])

    def _dof_gap(self, dof, k):
        # E[log|X|] - log|E[X]| = multidigamma(dof/2) - K log(dof/2) < 0
        return multidigamma(dof / 2.0, k) - k * np.log(dof / 2.0)

    def standard_from_mean(self, m):
        k = self.var_dim_from_stat_dim(m.size)
        self.check_mean(m, k)
        mv, logdet = self._split(m, k)
        mean_mat = unvech(mv, k)
        _, ld = np.linalg.slogdet(mean_mat)
        gap = logdet - ld
        lo = k + 1.0
        # _dof_gap increases from _dof_gap(K+1) toward 0, so a root above
        # K+1 exists only when the observed gap exceeds the K+1 value.
        if self._dof_gap(lo, k) >= gap:
            raise DomainError(
                f"mean parameters imply degrees of freedom <= K+1 (gap {gap:.6g})")
        hi = 2.0 * lo
        while self._dof_gap(hi, k) < gap:
            hi *= 2.0
        dof = brentq(lambda n: self._dof_gap(n, k) - gap, lo, hi,
                     xtol=1e-13, rtol=8.9e-16)
        return dof, mean_mat / dof

    def mean_from_natural(self, eta, var_dim=None):
        return self.mean_from_standard(*self.standard_from_natural(eta))

    def natural_from_mean(self, m, var_dim=None):
        return self.natural_from_standard(*self.standard_from_mean(np.asarray(m, dtype=float)))

    def log_partition(self, eta):
        dof, scale = self.standard_from_natural(eta)
        k = scale.shape[0]
        _, logdet_scale = np.linalg.slogdet(scale)
        return (dof / 2.0 * logdet_scale + dof * k / 2.0 * np.log(2.0)
                + multigamma_ln(dof / 2.0, k))

    def suff_stat_cov(self, eta):
        dof, scale = self.standard_from_natural(eta)
        k = scale.shape[0]
        pairs = list(zip(*tril(k)))
        n = len(pairs) + 1
        cov = np.zeros((n, n))
        for a, (i, j) in enumerate(pairs):
            for b, (r, s) in enumerate(pairs):
                cov[a, b] = dof * (scale[i, r] * scale[j, s] + scale[i, s] * scale[j, r])
        for a, (i, j) in enumerate(pairs):
            # d E[X_ij] / d eta_logdet with E[X] = dof * scale, dof = 2 eta + K + 1
            cov[a, -1] = cov[-1, a] = 2.0 * scale[i, j]
        cov[-1, -1] = multitrigamma(dof / 2.0, k)
        return cov

    # fit parameterization: z = (Cholesky coords of the MEAN matrix dof*scale,
    # log(dof - K - 1)); keeping the mean matrix as a direct coordinate avoids
    # the long mean-preserving valley between scale and degrees of freedom
    def unconstrained_from_standard(self, dof, scale):
        scale = np.asarray(scale, dtype=float)
        k = scale.shape[0]
        chol = np.linalg.cholesky(dof * scale)
        return np.concatenate([logchol_from_chol(chol), [np.log(dof - k - 1.0)]])

    def standard_from_unconstrained(self, z):
        chol = chol_from_logchol(z[:-1])
        k = chol.shape[0]
        dof = np.exp(z[-1]) + k + 1.0
        return dof, (chol @ chol.T) / dof

    def mean_jacobian_unconstrained(self, z):
        dof, scale = self.standard_from_unconstrained(z)
        k = scale.shape[0]
        mean_mat = dof * scale
        chol = np.linalg.cholesky(mean_mat)
        mean_inv = np.linalg.inv(mean_mat)
        nstat = self.stat_dim(k)
        jac = np.zeros((nstat, len(z)))
        for idx, (i, j) in enumerate(zip(*tril(k))):
            dl = np.zeros((k, k))
            dl[i, j] = chol[i, i] if i == j else 1.0
            dmean = dl @ chol.T + chol @ dl.T
            jac[:-1, idx] = vech(dmean)
            jac[-1, idx] = np.trace(mean_inv @ dmean)
        ddof = dof - k - 1.0  # d dof / d z_last
        # logdet coordinate = multidigamma(dof/2) + log|mean| - K log dof + K log 2
        jac[-1, -1] = (0.5 * multitrigamma(dof / 2.0, k) - k / dof) * ddof
        return jac

    # underlying-variable helpers
    def suff_stats(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            x = x[None, :, :]
        rows, cols = tril(x.shape[1])
        logdets = np.linalg.slogdet(x)[1]
        return np.column_stack([x[:, rows, cols], logdets])

    def log_density(self, x, eta):
        dof, scale = self.standard_from_natural(eta)
        k = scale.shape[0]
        x = np.asarray(x, dtype=float)
        _, logdet_x = np.linalg.slogdet(x)
        _, logdet_scale = np.linalg.slogdet(scale)
        return ((dof - k - 1.0) / 2.0 * logdet_x
                - 0.5 * np.trace(np.linalg.solve(scale, x))
                - dof / 2.0 * logdet_scale - dof * k / 2.0 * np.log(2.0)
                - multigamma_ln(dof / 2.0, k))

    def sample(self, eta, size, rng):
        dof, scale = self.standard_from_natural(eta)
        draws = sp_wishart.rvs(df=dof, scale=scale, size=size, random_state=rng)
        return draws if size > 1 else draws[None, :, :]

    def value_from_unconstrained(self, z):
        chol = chol_from_logchol(z)
        k = chol.shape[0]
        # |dX/dz| for X = L L' with log-diagonal coordinates, accumulated in
        # diagonal order
        logjac = k * np.log(2.0)
        for i, z_ii in enumerate(np.asarray(z, dtype=float)[tril_diag(k)]):
            logjac += (k - i + 1.0) * z_ii
        return chol @ chol.T, logjac

    def unconstrained_from_value(self, x):
        return logchol_from_chol(np.linalg.cholesky(np.asarray(x, dtype=float)))


def _unit(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


FAMILIES = {
    Family.GAUSSIAN_UNIVARIATE: _GaussianUnivariate(),
    Family.GAUSSIAN_MULTIVARIATE: _GaussianMultivariate(),
    Family.GAMMA: _Gamma(),
    Family.INVERSE_GAMMA: _InverseGamma(),
    Family.WISHART: _Wishart(),
}


# ---------------------------------------------------------------------------
# public block operations
# ---------------------------------------------------------------------------


def mean_from_natural(block):
    """Expected sufficient statistics under the block's natural parameters."""
    fam = FAMILIES[block.family]
    fam.check_natural(block.natural, block.var_dim)
    return fam.mean_from_natural(block.natural, block.var_dim)


def natural_from_mean(block):
    """Natural parameters recovering the block's mean parameters."""
    fam = FAMILIES[block.family]
    return fam.natural_from_mean(block.mean, block.var_dim)


def suff_stat_covariance(block):
    """Covariance of the sufficient statistics; the log-partition Hessian."""
    fam = FAMILIES[block.family]
    fam.check_natural(block.natural, block.var_dim)
    return fam.suff_stat_cov(block.natural)


def log_partition(block):
    fam = FAMILIES[block.family]
    fam.check_natural(block.natural, block.var_dim)
    return fam.log_partition(block.natural)


def entropy(block):
    """Differential entropy, A(eta) - eta @ m.

    The negative of the expected log density; valid for every family here
    because all five have unit base measure.
    """
    fam = FAMILIES[block.family]
    fam.check_natural(block.natural, block.var_dim)
    return fam.log_partition(block.natural) - float(block.natural @ block.mean)


@dataclass(frozen=True)
class WishartExpectations:
    """Closed-form Wishart moments used by covariance-decomposition priors.

    For X ~ Wishart(scale V, dof n) over K x K matrices, with S = X^-1:

    * ``mean_precision``: E[X] = n V
    * ``logdet``: E[log|X|] = multidigamma(n/2) + log|V| + K log 2
    * ``log_sigma_diag``: E[log S_kk] = log((V^-1)_kk / 2) - digamma((n-K+1)/2)
    * ``sqrt_sigma_diag``: E[sqrt(S_kk)] =
      sqrt((V^-1)_kk / 2) * Gamma((n-K)/2) / Gamma((n-K+1)/2)
    * ``inv_sigma_diag``: E[1/S_kk] = (n-K+1) / (V^-1)_kk

    S_kk follows an inverse gamma with shape (n-K+1)/2 and scale
    (V^-1)_kk / 2, which is where the last three lines come from.
    """

    mean_precision: np.ndarray
    logdet: float
    log_sigma_diag: np.ndarray
    sqrt_sigma_diag: np.ndarray
    inv_sigma_diag: np.ndarray


def wishart_expectations(dof, scale):
    scale = np.asarray(scale, dtype=float)
    k = scale.shape[0]
    if dof <= k + 1:
        raise DomainError(f"need dof > K+1, got dof={dof}, K={k}")
    if not is_pos_def(scale):
        raise DomainError("scale matrix must be positive definite")
    scale_inv = np.linalg.inv(scale)
    scale_inv = (scale_inv + scale_inv.T) / 2.0
    _, logdet_scale = np.linalg.slogdet(scale)
    diag = np.diag(scale_inv)
    marg_shape = (dof - k + 1.0) / 2.0
    return WishartExpectations(
        mean_precision=dof * scale,
        logdet=multidigamma(dof / 2.0, k) + logdet_scale + k * np.log(2.0),
        log_sigma_diag=np.log(diag / 2.0) - digamma(marg_shape),
        sqrt_sigma_diag=np.sqrt(diag / 2.0)
        * np.exp(gammaln((dof - k) / 2.0) - gammaln(marg_shape)),
        inv_sigma_diag=(dof - k + 1.0) / diag,
    )


def invgamma_sqrt_expectation(shape, scale):
    """E[sqrt(x)] for x ~ InverseGamma(shape, scale): sqrt(scale) Gamma(shape-1/2)/Gamma(shape)."""
    if shape <= 0.5:
        raise DomainError(f"E[sqrt(x)] needs shape > 1/2, got {shape}")
    if scale <= 0:
        raise DomainError(f"scale must be positive, got {scale}")
    return np.sqrt(scale) * np.exp(gammaln(shape - 0.5) - gammaln(shape))


def sample_block(block, size, rng):
    """Draws of the underlying variable (rows index draws)."""
    return FAMILIES[block.family].sample(block.natural, size, rng)


def block_suff_stats(block, x):
    """Sufficient statistics of draws, shape (n_draws, block.dim)."""
    return FAMILIES[block.family].suff_stats(x)


def block_log_density(block, x):
    """Log density of the underlying variable at x."""
    return FAMILIES[block.family].log_density(x, block.natural)
