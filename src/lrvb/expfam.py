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

Batch axes.  A family's parameter maps (``check_mean``, the standard, mean,
natural and unconstrained maps, ``log_partition``, ``suff_stat_cov`` and
``mean_jacobian_unconstrained``) are written once, over leading batch axes:
a 1-D statistic vector is one block, with scalar standard parameters where
the family has them, and an (n, stat_dim) array is n blocks, each result
gaining that leading axis.  A check raises if any block fails it.  The one
per-block loop is the Wishart dof solve (see ``_Wishart``); the
underlying-variable helpers take one block.

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


def _stack(*cols):
    """Broadcast scalars and arrays, then stack them on a new last axis."""
    return np.stack(np.broadcast_arrays(*cols), axis=-1)


def _matrix(rows):
    """(..., r, c) array from nested lists of broadcastable entries."""
    flat = _stack(*[x for row in rows for x in row])
    return flat.reshape(flat.shape[:-1] + (len(rows), -1))


def _append(v, x):
    """v with x appended along the last axis, x broadcast over v's batch."""
    x = np.broadcast_to(np.asarray(x, dtype=float)[..., None], v.shape[:-1] + (1,))
    return np.concatenate([v, x], axis=-1)


def _sym(mat):
    return (mat + mat.swapaxes(-1, -2)) / 2.0


def _matvec(mat, x):
    # elementwise product and a fixed-axis sum: a block's value does not
    # depend on how many blocks share the call
    return np.sum(mat * x[..., None, :], axis=-1)


def _outer(x):
    return x[..., :, None] * x[..., None, :]


def _chol_product_jacobian(chol):
    """d vech(L L') / d z for L = chol_from_logchol(z), over batch axes.

    Entry (a, b) with a = (i, j) and b = (p, q) in tril order is
    delta_ip L_jq + L_iq delta_jp, times L_pp on the log-diagonal
    coordinates.
    """
    k = chol.shape[-1]
    i, j = tril(k)
    a_i, a_j = i[:, None], j[:, None]
    p, q = i[None, :], j[None, :]
    jac = (a_i == p) * chol[..., a_j, q] + chol[..., a_i, q] * (a_j == p)
    return jac * np.where(i == j, chol[..., i, i], 1.0)[..., None, :]


class _Family:
    """What the families share: the dual maps composed from standard
    parameters, and the layout of the two-statistic scalar families."""

    def stat_dim(self, var_dim):
        return 2

    def var_dim_from_stat_dim(self, stat_dim):
        if stat_dim != 2:
            raise DomainError(f"{self.family.value} blocks have 2 statistics")
        return 1

    def mean_from_natural(self, eta, var_dim=None):
        return self.mean_from_standard(*self.standard_from_natural(eta))

    def natural_from_mean(self, m, var_dim=None):
        return self.natural_from_standard(*self.standard_from_mean(m))


class _GaussianUnivariate(_Family):
    """Scalar Gaussian; standard parameters (mu, var)."""

    family = Family.GAUSSIAN_UNIVARIATE

    def check_natural(self, eta, var_dim=1):
        if (eta.shape[-1:] != (2,) or not np.all(np.isfinite(eta))
                or np.any(eta[..., 1] >= 0)):
            raise DomainError(f"invalid Gaussian natural parameters {eta}")

    def check_mean(self, m, var_dim=1):
        if (m.shape[-1:] != (2,) or not np.all(np.isfinite(m))
                or np.any(m[..., 1] - m[..., 0] * m[..., 0] <= 0)):
            raise DomainError(f"invalid Gaussian mean parameters {m}")

    def standard_from_natural(self, eta):
        var = -0.5 / eta[..., 1]
        return eta[..., 0] * var, var

    def natural_from_standard(self, mu, var):
        if np.any(np.asarray(var) <= 0):
            raise DomainError(f"variance must be positive, got {var}")
        return _stack(mu / var, -0.5 / var)

    def mean_from_standard(self, mu, var):
        with np.errstate(over="ignore"):  # an overflow is reported below
            second = mu * mu + var
        if not np.all(np.isfinite(second)):
            raise DomainError(f"second moment of N({mu}, {var}) overflows")
        return _stack(mu, second)

    def standard_from_mean(self, m):
        m = np.asarray(m, dtype=float)
        self.check_mean(m)
        return m[..., 0][()], m[..., 1] - m[..., 0] * m[..., 0]

    def log_partition(self, eta):
        return -np.square(eta[..., 0]) / (4.0 * eta[..., 1]) + 0.5 * np.log(np.pi / -eta[..., 1])

    def suff_stat_cov(self, eta):
        mu, var = self.standard_from_natural(eta)
        c12 = 2.0 * mu * var
        return _matrix([[var, c12], [c12, 2.0 * var * var + 4.0 * mu * mu * var]])

    # fit parameterization: z = (mu, log var)
    def unconstrained_from_standard(self, mu, var):
        return _stack(mu, np.log(var))

    def standard_from_unconstrained(self, z):
        return z[..., 0][()], np.exp(z[..., 1])

    def mean_jacobian_unconstrained(self, z):
        mu, var = self.standard_from_unconstrained(z)
        return _matrix([[1.0, 0.0], [2.0 * mu, var]])

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


class _GaussianMultivariate(_Family):
    """d-dimensional Gaussian; standard parameters (mu, Sigma)."""

    family = Family.GAUSSIAN_MULTIVARIATE

    def stat_dim(self, var_dim):
        return var_dim + vech_dim(var_dim)

    def var_dim_from_stat_dim(self, stat_dim):
        for d in range(1, stat_dim):
            if d + vech_dim(d) == stat_dim:
                return d
        raise DomainError(f"no Gaussian dimension has {stat_dim} statistics")

    def check_natural(self, eta, var_dim):
        lam = -2.0 * unvech_half(eta[..., var_dim:], var_dim)
        if not (np.all(np.isfinite(eta)) and is_pos_def(lam)):
            raise DomainError("Gaussian natural second-moment matrix not negative definite")

    def check_mean(self, m, var_dim):
        mu = m[..., :var_dim]
        sigma = unvech(m[..., var_dim:], var_dim) - _outer(mu)
        if not (np.all(np.isfinite(m)) and is_pos_def(sigma)):
            raise DomainError("Gaussian mean parameters imply non-PD covariance")

    def standard_from_natural(self, eta):
        d = self.var_dim_from_stat_dim(eta.shape[-1])
        lam = -2.0 * unvech_half(eta[..., d:], d)
        sigma = _sym(np.linalg.inv(lam))
        return _matvec(sigma, eta[..., :d]), sigma

    def natural_from_standard(self, mu, sigma):
        mu = np.asarray(mu, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        if not is_pos_def(sigma):
            raise DomainError("covariance must be positive definite")
        lam = _sym(np.linalg.inv(sigma))
        return np.concatenate([_matvec(lam, mu), vech_dup(-0.5 * lam)], axis=-1)

    def mean_from_standard(self, mu, sigma):
        mu = np.asarray(mu, dtype=float)
        return np.concatenate([mu, vech(np.asarray(sigma) + _outer(mu))], axis=-1)

    def standard_from_mean(self, m):
        m = np.asarray(m, dtype=float)
        d = self.var_dim_from_stat_dim(m.shape[-1])
        self.check_mean(m, d)
        mu = m[..., :d]
        return mu, unvech(m[..., d:], d) - _outer(mu)

    def log_partition(self, eta):
        # A = mu' Lambda mu / 2 + log|Sigma| / 2 + d log(2 pi) / 2, with
        # Lambda mu = h, the first d natural coordinates
        mu, sigma = self.standard_from_natural(eta)
        d = mu.shape[-1]
        _, logdet = np.linalg.slogdet(sigma)
        return (0.5 * np.sum(mu * eta[..., :d], axis=-1) + 0.5 * logdet
                + 0.5 * d * np.log(2.0 * np.pi))

    def suff_stat_cov(self, eta):
        # Wick's theorem for Gaussian moments up to fourth order, over the
        # pairs (i, j) of tril(d) for x_i x_j; r indexes x_r
        mu, sigma = self.standard_from_natural(eta)
        d = mu.shape[-1]
        i, j = tril(d)
        r = np.arange(d)[:, None]
        cross = mu[..., None, j] * sigma[..., r, i] + mu[..., None, i] * sigma[..., r, j]
        ii, jj, kk, ll = i[:, None], j[:, None], i[None, :], j[None, :]
        sik, sjl, sil, sjk = (sigma[..., a, b] for a, b in zip((ii, jj, ii, jj), (kk, ll, ll, kk)))
        ui, uj, uk, ul = (mu[..., a] for a in (ii, jj, kk, ll))
        quartic = (sik * sjl + sil * sjk + ui * uk * sjl + ui * ul * sjk
                   + uj * uk * sil + uj * ul * sik)
        return np.block([[sigma, cross], [cross.swapaxes(-1, -2), quartic]])

    # fit parameterization: z = (mu, lower Cholesky of Sigma with log diagonal)
    def unconstrained_from_standard(self, mu, sigma):
        chol = np.linalg.cholesky(np.asarray(sigma, dtype=float))
        return np.concatenate([np.asarray(mu, dtype=float), logchol_from_chol(chol)], axis=-1)

    def standard_from_unconstrained(self, z):
        d = self.var_dim_from_stat_dim(z.shape[-1])  # same coordinate count as stats
        chol = chol_from_logchol(z[..., d:])
        return np.asarray(z[..., :d], dtype=float), chol @ chol.swapaxes(-1, -2)

    def mean_jacobian_unconstrained(self, z):
        # m = (mu, vech(L L' + mu mu')); d vech(mu mu')_(i,j) / d mu_c is
        # delta_ic mu_j + mu_i delta_jc
        d = self.var_dim_from_stat_dim(z.shape[-1])
        mu = z[..., :d, None]
        i, j = tril(d)
        c = np.arange(d)
        jac = np.zeros(z.shape + z.shape[-1:])
        jac[..., c, c] = 1.0
        jac[..., d:, :d] = (i[:, None] == c) * mu[..., j, :] + mu[..., i, :] * (j[:, None] == c)
        jac[..., d:, d:] = _chol_product_jacobian(chol_from_logchol(z[..., d:]))
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


class _GammaLike(_Family):
    """Shared machinery for gamma and inverse-gamma blocks.

    Both have statistics (x^s, log x) with s = 1 (gamma) or s = -1 (inverse
    gamma), natural parameters (-rate, s * shape - 1) and standard
    parameters (shape, rate).  Every map below is the gamma one with s
    multiplying the terms that change sign.
    """

    def check_natural(self, eta, var_dim=1):
        try:
            shape, rate = self.standard_from_natural(eta)
        except (IndexError, TypeError) as exc:
            raise DomainError(str(exc)) from exc
        if not (np.all(np.isfinite(eta)) and np.all(shape > 0) and np.all(rate > 0)):
            raise DomainError(f"{self.family.value} natural parameters {eta} out of domain")

    def check_mean(self, m, var_dim=1):
        if m.shape[-1:] != (2,) or not np.all(np.isfinite(m)) or np.any(m[..., 0] <= 0):
            raise DomainError(f"invalid {self.family.value} mean parameters {m}")
        if np.any(self._mean_gap(m) <= 0):
            raise DomainError(f"mean parameters {m} violate Jensen's inequality")

    def _mean_gap(self, m):
        # log E[x^s] - s E[log x] = log(shape) - digamma(shape) > 0
        return np.log(m[..., 0]) - self.sign * m[..., 1]

    def standard_from_natural(self, eta):
        return self.sign * (eta[..., 1] + 1.0), -eta[..., 0]

    def natural_from_standard(self, shape, rate):
        if np.any(np.asarray(shape) <= 0) or np.any(np.asarray(rate) <= 0):
            raise DomainError(f"shape/rate must be positive, got {(shape, rate)}")
        return _stack(-rate, self.sign * shape - 1.0)

    def mean_from_standard(self, shape, rate):
        return _stack(shape / rate, self.sign * (digamma(shape) - np.log(rate)))

    def standard_from_mean(self, m):
        m = np.asarray(m, dtype=float)
        self.check_mean(m)
        shape = solve_log_minus_digamma(self._mean_gap(m))
        return shape, shape / m[..., 0]

    def log_partition(self, eta):
        shape, rate = self.standard_from_natural(eta)
        return gammaln(shape) - shape * np.log(rate)

    def suff_stat_cov(self, eta):
        shape, rate = self.standard_from_natural(eta)
        return _matrix([[shape / (rate * rate), self.sign / rate],
                        [self.sign / rate, trigamma(shape)]])

    # fit parameterization: z = (log of the first-statistic mean, log shape);
    # aligning one axis with the mean keeps the coordinates well conditioned
    # when the data concentrate the block (shape >> 1)
    def unconstrained_from_standard(self, shape, rate):
        return _stack(np.log(shape / rate), np.log(shape))

    def standard_from_unconstrained(self, z):
        return np.exp(z[..., 1]), np.exp(z[..., 1] - z[..., 0])

    def mean_jacobian_unconstrained(self, z):
        # m = (exp(z1), s (digamma(a) - log a + z1)) with a = exp(z2)
        shape, rate = self.standard_from_unconstrained(z)
        return _matrix([[shape / rate, 0.0],
                        [self.sign, self.sign * (shape * trigamma(shape) - 1.0)]])

    def value_from_unconstrained(self, z):
        x = np.exp(z[0])
        return np.array([x]), z[0]  # log-scale Jacobian: dx/dz = x

    def unconstrained_from_value(self, x):
        return np.log(np.atleast_1d(np.asarray(x, dtype=float)))


class _Gamma(_GammaLike):
    family = Family.GAMMA
    sign = 1.0

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
    sign = -1.0

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


class _Wishart(_Family):
    """Wishart over K x K precision matrices; standard parameters (dof, scale).

    Density proportional to |X|^((n-K-1)/2) exp(-trace(scale^-1 X)/2).  The
    block domain requires n > K + 1 so every downstream inverse-moment
    formula stays finite.  The mean-to-natural map has no closed form; the
    degrees of freedom are recovered with a bracketed ``brentq`` per row of
    a stack: the one per-block loop of the batched maps, kept because no
    model has more than one Wishart block.
    """

    family = Family.WISHART

    def stat_dim(self, var_dim):
        return vech_dim(var_dim) + 1

    def var_dim_from_stat_dim(self, stat_dim):
        return dim_from_vech(stat_dim - 1)

    def check_natural(self, eta, var_dim):
        dof, scale = self.standard_from_natural(eta)
        if not (np.all(np.isfinite(eta)) and np.all(dof > var_dim + 1) and is_pos_def(scale)):
            raise DomainError(
                f"Wishart natural parameters need dof > K+1 and PD scale, got dof={dof}")

    def check_mean(self, m, var_dim):
        mean_mat = unvech(m[..., :-1], var_dim)
        if not (np.all(np.isfinite(m)) and is_pos_def(mean_mat)):
            raise DomainError("Wishart mean matrix not positive definite")
        _, ld = np.linalg.slogdet(mean_mat)
        if np.any(m[..., -1] - ld >= 0):
            raise DomainError("Wishart log-determinant coordinate violates Jensen's inequality")

    def standard_from_natural(self, eta):
        k = self.var_dim_from_stat_dim(eta.shape[-1])
        scale_inv = -2.0 * unvech_half(eta[..., :-1], k)
        if not is_pos_def(scale_inv):
            raise DomainError("Wishart natural matrix parameter not negative definite")
        return 2.0 * eta[..., -1] + k + 1.0, _sym(np.linalg.inv(scale_inv))

    def natural_from_standard(self, dof, scale):
        scale = np.asarray(scale, dtype=float)
        k = scale.shape[-1]
        if np.any(np.asarray(dof) <= k + 1) or not is_pos_def(scale):
            raise DomainError(f"Wishart needs dof > K+1 and PD scale, got dof={dof}")
        scale_inv = _sym(np.linalg.inv(scale))
        return _append(vech_dup(-0.5 * scale_inv), (dof - k - 1.0) / 2.0)

    def mean_from_standard(self, dof, scale):
        scale = np.asarray(scale, dtype=float)
        k = scale.shape[-1]
        _, logdet_scale = np.linalg.slogdet(scale)
        logdet = multidigamma(dof / 2.0, k) + logdet_scale + k * np.log(2.0)
        return _append(vech(np.asarray(dof)[..., None, None] * scale), logdet)

    def _dof_gap(self, dof, k):
        # E[log|X|] - log|E[X]| = multidigamma(dof/2) - K log(dof/2) < 0
        return multidigamma(dof / 2.0, k) - k * np.log(dof / 2.0)

    def _solve_dof(self, gap, k):
        lo = k + 1.0
        # _dof_gap increases from _dof_gap(K+1) toward 0, so a root above
        # K+1 exists only when the observed gap exceeds the K+1 value.
        if self._dof_gap(lo, k) >= gap:
            raise DomainError(
                f"mean parameters imply degrees of freedom <= K+1 (gap {gap:.6g})")
        hi = 2.0 * lo
        while self._dof_gap(hi, k) < gap:
            hi *= 2.0
        return brentq(lambda n: self._dof_gap(n, k) - gap, lo, hi,
                      xtol=1e-13, rtol=8.9e-16)

    def standard_from_mean(self, m):
        m = np.asarray(m, dtype=float)
        k = self.var_dim_from_stat_dim(m.shape[-1])
        self.check_mean(m, k)
        mean_mat = unvech(m[..., :-1], k)
        _, ld = np.linalg.slogdet(mean_mat)
        gap = m[..., -1] - ld
        dof = np.reshape([self._solve_dof(g, k) for g in np.ravel(gap)], np.shape(gap))
        return dof[()], mean_mat / dof[..., None, None]

    def log_partition(self, eta):
        dof, scale = self.standard_from_natural(eta)
        k = scale.shape[-1]
        _, logdet_scale = np.linalg.slogdet(scale)
        return (dof / 2.0 * logdet_scale + dof * k / 2.0 * np.log(2.0)
                + multigamma_ln(dof / 2.0, k))

    def suff_stat_cov(self, eta):
        # over the pairs (i, j) and (r, s) of tril(K):
        # cov(X_ij, X_rs) = dof (scale_ir scale_js + scale_is scale_jr), and
        # d E[X_ij] / d eta_logdet = 2 scale_ij since E[X] = dof * scale with
        # dof = 2 eta_logdet + K + 1
        dof, scale = self.standard_from_natural(eta)
        k = scale.shape[-1]
        i, j = tril(k)
        ii, jj, rr, ss = i[:, None], j[:, None], i[None, :], j[None, :]
        quad = np.asarray(dof)[..., None, None] * (
            scale[..., ii, rr] * scale[..., jj, ss] + scale[..., ii, ss] * scale[..., jj, rr])
        edge = 2.0 * scale[..., i, j, None]
        corner = np.asarray(multitrigamma(dof / 2.0, k))[..., None, None]
        return np.block([[quad, edge], [edge.swapaxes(-1, -2), corner]])

    # fit parameterization: z = (Cholesky coords of the MEAN matrix dof*scale,
    # log(dof - K - 1)); keeping the mean matrix as a direct coordinate avoids
    # the long mean-preserving valley between scale and degrees of freedom
    def unconstrained_from_standard(self, dof, scale):
        scale = np.asarray(scale, dtype=float)
        k = scale.shape[-1]
        chol = np.linalg.cholesky(np.asarray(dof)[..., None, None] * scale)
        return _append(logchol_from_chol(chol), np.log(dof - k - 1.0))

    def standard_from_unconstrained(self, z):
        chol = chol_from_logchol(z[..., :-1])
        k = chol.shape[-1]
        dof = np.exp(z[..., -1]) + k + 1.0
        return dof, (chol @ chol.swapaxes(-1, -2)) / np.asarray(dof)[..., None, None]

    def mean_jacobian_unconstrained(self, z):
        # logdet coordinate = multidigamma(dof/2) + log|mean| - K log dof + K log 2,
        # and log|mean| = 2 sum_p log L_pp moves only with the log-diagonal
        chol = chol_from_logchol(z[..., :-1])
        k = chol.shape[-1]
        dof = np.exp(z[..., -1]) + k + 1.0
        ddof = dof - k - 1.0  # d dof / d z_last
        jac = np.zeros(z.shape + z.shape[-1:])
        jac[..., :-1, :-1] = _chol_product_jacobian(chol)
        jac[..., -1, tril_diag(k)] = 2.0
        jac[..., -1, -1] = (0.5 * multitrigamma(dof / 2.0, k) - k / dof) * ddof
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
