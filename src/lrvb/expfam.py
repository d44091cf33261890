"""Exponential-family building blocks.

Every variational factor is an exponential family ``q(x) = exp(eta's(x) - A(eta))``
over some underlying variable x, characterized either by its natural
parameters ``eta`` or by its mean parameters ``m = E_q[s(x)]``.  The
sufficient-statistic layouts are fixed per family so that covariance and
Hessian matrices compose consistently across blocks:

* ``GAUSSIAN_MULTIVARIATE`` x in R^d,     s(x) = (x, vech(x x'))
* ``GAUSSIAN_UNIVARIATE``  x in R,        s(x) = (x, x^2), the d = 1 case
  of the multivariate family, whose maps it shares
* ``GAMMA``                x > 0,         s(x) = (x, log x)
* ``INVERSE_GAMMA``        x > 0,         s(x) = (1/x, log x); one class
  writes it and the gamma as s(x) = (x^s, log x), s = -1 or 1
* ``WISHART``              X pos. def.,   s(X) = (vech(X), log|X|)

vech takes the lower triangle in row-major order; matrix-valued natural
parameters are stored with doubled off-diagonal coefficients so that
``eta @ vech(X) = trace(B X)`` (see :func:`lrvb.util.vech_dup`).  Symmetric
matrices are half-vectorized rather than fully vectorized to keep the
sufficient-statistic covariance nonsingular.

Batch axes.  A family's parameter maps (``check_mean``, the standard, mean,
natural and unconstrained maps, ``log_partition``, ``suff_stat_cov`` and
``fit_terms``) are written once, over leading batch axes: a 1-D statistic
vector is one block, and an (n, stat_dim) array is n blocks, each result
gaining that leading axis.  A block's standard parameters are scalars for
gamma and inverse gamma, (dof, scale (K, K)) for the Wishart, and mu (d,)
and Sigma (d, d) for either Gaussian, so a univariate block has mu (1,)
and Sigma (1, 1).  A check raises if any block fails it.  No map loops over
blocks; the underlying-variable helpers take one block.

Family interface.  The objects in ``FAMILIES`` are the one interface to
the families, and each owns its family's conventions, so no other module
branches on a ``Family`` member: beside the maps above (``fit_terms``
among them, see Fit coordinates below; ``mean_from_natural`` raises
DomainError outside ``check_natural``'s domain), ``stat_dim``,
``coord_names(block)``, ``has_location`` (the first var_dim
statistics are x), ``scalar`` (x is one float), ``quad_support()`` (the
(lo, hi) range of x that every density query of :mod:`lrvb.robustness`
and :mod:`lrvb.oracle` integrates over; the multivariate Gaussian and
the Wishart have none and raise DomainError, so no other module tests
``scalar`` to refuse a block); the underlying-variable
``suff_stats``, ``log_density`` and ``sample``; and the sampler
coordinates (x for Gaussians, log x for (inverse) gamma, log-Cholesky for
Wishart): ``value_dim``, ``value_from_unconstrained`` (value and
log-Jacobian), ``unconstrained_from_value``, ``representative_value``,
``sampler_suff_stats`` of (n, value_dim) rows and, if scalar,
``sampler_box`` around mean parameters.

Fit coordinates.  ``fit_terms(z)`` returns what one evaluation of the
fit's objective and gradient needs at the family's fit coordinates z (see
:class:`FitTerms`): the mean and natural parameters, the entropy and
d mean / d z, all from one pass through the standard parameters, with the
domain checks of ``mean_from_standard`` and ``natural_from_standard``.
A Gaussian's z is (mu, the log-Cholesky coordinates of Sigma), which is
(mu, log sd) for a univariate block; gamma and inverse gamma use (log of
the first-statistic mean, log shape), and the Wishart the log-Cholesky
coordinates of its mean matrix and log(dof - K - 1).
The entropy is each family's closed form in z, and it never forms
A(eta) - eta @ m, whose terms cancel catastrophically for a concentrated
block (a Gaussian with mu' Sigma^-1 mu >> 1, say); that difference is
:func:`entropy`, kept as the reference implementation the closed forms
are tested against.

All functions are pure.  They call into the same BLAS library as every
other stage, and concurrent calls from threads of one process have not
been shown safe with it; run independent work in separate processes.
"""

import enum
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .errors import DomainError
from .util import (chol_from_logchol, digamma, dim_from_vech, is_pos_def,
                   logchol_from_chol, multidigamma, multigamma_ln,
                   multitrigamma, solve_log_minus_digamma, tril, tril_diag,
                   trigamma, unvech, unvech_half, vech, vech_dim, vech_dup)

ROUND_TRIP_TOL = 1e-10
_LOG_2PI_E = np.log(2.0 * np.pi * np.e)


class Family(enum.Enum):
    GAUSSIAN_UNIVARIATE = "gaussian_univariate"
    GAUSSIAN_MULTIVARIATE = "gaussian_multivariate"
    GAMMA = "gamma"
    INVERSE_GAMMA = "inverse_gamma"
    WISHART = "wishart"


# ---------------------------------------------------------------------------
# family implementations
# ---------------------------------------------------------------------------


class FitTerms(NamedTuple):
    """What the fit's objective and gradient need at fit coordinates z, from
    one pass through a family's standard parameters: each (..., stat_dim)
    or (..., stat_dim, stat_dim) over z's batch axes."""

    mean: np.ndarray
    natural: np.ndarray
    entropy: np.ndarray
    jacobian: np.ndarray  # d mean / d z


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
    parameters, and the conventions of the two-statistic scalar families."""

    scalar = True  # one float per value
    has_location = False

    def stat_dim(self, var_dim):  # a scalar family takes var_dim 1, the others >= 1
        if var_dim < 1 or (self.scalar and var_dim != 1):
            raise ValueError(f"{self.family.value} blocks cannot have var_dim {var_dim}")
        return self._stat_dim(var_dim)

    def _stat_dim(self, var_dim):
        return 2

    def value_dim(self, var_dim):
        return var_dim

    def quad_support(self):
        raise DomainError(f"no quadrature support for family {self.family.value}; "
                          "density queries support scalar blocks")

    def sampler_box(self, m, widen):
        raise DomainError(f"no quadrature box for family {self.family}")

    def var_dim_from_stat_dim(self, stat_dim):
        if stat_dim != 2:
            raise DomainError(f"{self.family.value} blocks have 2 statistics")
        return 1

    def mean_from_natural(self, eta):
        eta = np.asarray(eta, dtype=float)
        self.check_natural(eta, self.var_dim_from_stat_dim(eta.shape[-1]))
        return self.mean_from_standard(*self.standard_from_natural(eta))

    def natural_from_mean(self, m, var_dim=None):
        return self.natural_from_standard(*self.standard_from_mean(m))


class _GaussianMultivariate(_Family):
    """d-dimensional Gaussian; standard parameters mu (..., d) and Sigma
    (..., d, d).  Its statistics are the location, then the second moments,
    named by the block's labels; its sampler coordinates are x."""

    family = Family.GAUSSIAN_MULTIVARIATE
    scalar = False
    has_location = True

    def _stat_dim(self, var_dim):
        return var_dim + vech_dim(var_dim)

    def var_dim_from_stat_dim(self, stat_dim):
        for d in range(1, stat_dim):
            if d + vech_dim(d) == stat_dim:
                return d
        raise DomainError(f"no Gaussian dimension has {stat_dim} statistics")

    def coord_names(self, block):
        lab = block.labels
        return list(lab) + [f"{lab[i]}*{lab[j]}" for i, j in zip(*tril(block.var_dim))]

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
        with np.errstate(over="ignore"):  # an overflow is reported below
            second = vech(np.asarray(sigma) + _outer(mu))
        if not np.all(np.isfinite(second)):
            raise DomainError("second moments of N(mu, Sigma) overflow")
        return np.concatenate([mu, second], axis=-1)

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
        return self._standard_and_chol(z)[:2]

    def _standard_and_chol(self, z):
        d = self.var_dim_from_stat_dim(z.shape[-1])  # same coordinate count as stats
        chol = chol_from_logchol(z[..., d:])
        return np.asarray(z[..., :d], dtype=float), chol @ chol.swapaxes(-1, -2), chol

    def fit_terms(self, z):
        mu, sigma, chol = self._standard_and_chol(z)
        d = mu.shape[-1]
        # m = (mu, vech(L L' + mu mu')); d vech(mu mu')_(i,j) / d mu_c is
        # delta_ic mu_j + mu_i delta_jc
        i, j = tril(d)
        c = np.arange(d)
        jac = np.zeros(z.shape + z.shape[-1:])
        jac[..., c, c] = 1.0
        jac[..., d:, :d] = ((i[:, None] == c) * mu[..., j, None]
                            + mu[..., i, None] * (j[:, None] == c))
        jac[..., d:, d:] = _chol_product_jacobian(chol)
        # log |2 pi e Sigma| / 2, and log |Sigma| / 2 is the sum of the
        # log-Cholesky diagonal
        entropy = 0.5 * d * _LOG_2PI_E + np.sum(z[..., d + tril_diag(d)], axis=-1)
        return FitTerms(self.mean_from_standard(mu, sigma),
                        self.natural_from_standard(mu, sigma), entropy, jac)

    # underlying-variable helpers
    def suff_stats(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        rows, cols = tril(x.shape[1])
        return np.column_stack([x, x[:, rows] * x[:, cols]])

    def log_density(self, x, eta):
        # Lambda straight from eta, and log|Lambda| from its Cholesky factor,
        # which also rejects an eta outside the domain
        eta = np.asarray(eta, dtype=float)
        d = self.var_dim_from_stat_dim(eta.shape[-1])
        lam = -2.0 * unvech_half(eta[d:], d)
        try:
            chol = np.linalg.cholesky(lam)
        except np.linalg.LinAlgError:
            chol = None
        if chol is None or not np.all(np.isfinite(eta)):  # a NaN passes cholesky
            raise DomainError("Gaussian natural second-moment matrix not negative definite")
        diff = np.atleast_2d(np.asarray(x, dtype=float)) - np.linalg.solve(lam, eta[:d])
        # elementwise products and fixed-shape sums: a point's value does not
        # depend on how many points share the call, unlike einsum or matmul
        quad = np.sum(diff[:, :, None] * lam * diff[:, None, :], axis=(1, 2))
        logdet_lam = 2.0 * np.sum(np.log(np.diagonal(chol)))
        out = -0.5 * (d * np.log(2.0 * np.pi) - logdet_lam + quad)
        return float(out[0]) if np.ndim(x) < 2 else out

    def sample(self, eta, size, rng):
        mu, sigma = self.standard_from_natural(eta)
        return rng.multivariate_normal(mu, sigma, size=size)

    # sampler coordinates: x
    def value_from_unconstrained(self, z):
        return (float(z[0]) if self.scalar else np.asarray(z, dtype=float)), 0.0

    def unconstrained_from_value(self, x):
        return np.atleast_1d(np.asarray(x, dtype=float))

    def representative_value(self, m, var_dim):
        return float(m[0]) if self.scalar else np.asarray(m[:var_dim], dtype=float)

    def sampler_suff_stats(self, z, var_dim):
        return self.suff_stats(z[:, 0] if self.scalar else z)


class _GaussianUnivariate(_GaussianMultivariate):
    """The d = 1 Gaussian, whose x is one float: every parameter map is the
    multivariate one, with mu (..., 1) and Sigma (..., 1, 1).  Its per-point
    ``suff_stats`` and ``log_density`` stay closed forms, as the quadrature
    and worst-case oracles call them once per point, and ``sample`` draws
    with ``rng.normal``."""

    family = Family.GAUSSIAN_UNIVARIATE
    scalar = True

    def quad_support(self):
        return (-np.inf, np.inf)

    def sampler_box(self, m, widen):
        mu, sigma = self.standard_from_mean(np.asarray(m, dtype=float))
        sd = np.sqrt(sigma[0, 0])
        return (mu[0] - widen * sd, mu[0] + widen * sd)

    def suff_stats(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.column_stack([x, x ** 2])

    def log_density(self, x, eta):
        # checked on Python floats, as numpy reductions cost twice the density
        if not all(abs(h) < np.inf and -np.inf < e < 0
                   for h, e in np.reshape(eta, (-1, 2)).tolist()):
            raise DomainError("Gaussian natural second-moment matrix not negative definite")
        var = -0.5 / eta[..., 1]
        mu = eta[..., 0] * var
        return -0.5 * np.log(2.0 * np.pi * var) - 0.5 * (np.asarray(x) - mu) ** 2 / var

    def sample(self, eta, size, rng):
        mu, sigma = self.standard_from_natural(eta)
        return rng.normal(mu[..., 0], np.sqrt(sigma[..., 0, 0]), size=size)


class _GammaLike(_Family):
    """Gamma and inverse-gamma blocks, one instance each in ``FAMILIES``.

    Both have statistics (x^s, log x) with s = 1 (gamma) or s = -1 (inverse
    gamma), natural parameters (-rate, s * shape - 1) and standard
    parameters (shape, rate).  Every map below, the density and the sampler
    included, is the gamma one with s multiplying the terms that change
    sign: x^s is a gamma draw with the block's shape and rate.
    """

    def __init__(self, family, sign):
        self.family, self.sign = family, sign

    def quad_support(self):
        return (0.0, np.inf)

    def coord_names(self, block):
        lab = block.labels[0]
        return [lab if self.sign > 0 else f"1/{lab}", f"log({lab})"]

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

    def fit_terms(self, z):
        shape, rate = self.standard_from_unconstrained(z)
        s = self.sign
        # a - s log b + lgamma(a) + (s - a) digamma(a) with shape a = exp(z2)
        # and log rate log b = z2 - z1
        entropy = (shape - s * (z[..., 1] - z[..., 0]) + gammaln(shape)
                   + (s - shape) * digamma(shape))
        # m = (exp(z1), s (digamma(a) - log a + z1))
        jac = _matrix([[shape / rate, 0.0], [s, s * (shape * trigamma(shape) - 1.0)]])
        return FitTerms(self.mean_from_standard(shape, rate),
                        self.natural_from_standard(shape, rate), entropy, jac)

    def suff_stats(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.column_stack([x ** self.sign, np.log(x)])  # x ** -1.0 rounds as 1.0 / x

    # sampler coordinate: log x
    def value_from_unconstrained(self, z):
        return float(np.exp(z[0])), z[0]  # log-scale Jacobian: dx/dz = x

    def unconstrained_from_value(self, x):
        return np.log(np.atleast_1d(np.asarray(x, dtype=float)))

    def representative_value(self, m, var_dim):  # the mean, floored for inverse gamma
        shape, rate = self.standard_from_mean(np.asarray(m, dtype=float))
        return shape / rate if self.sign > 0 else rate / max(shape - 1.0, 0.5)

    def sampler_suff_stats(self, z, var_dim):
        return np.column_stack([np.exp(self.sign * z[:, 0]), z[:, 0]])

    def sampler_box(self, m, widen):
        shape, rate = self.standard_from_mean(np.asarray(m, dtype=float))
        center = self.sign * (digamma(shape) - np.log(rate))
        sd = np.sqrt(max(1.0 / shape, 0.05))
        return (center - widen * sd, center + widen * sd)

    def log_density(self, x, eta):
        shape, rate = self.standard_from_natural(eta)
        x = np.asarray(x, dtype=float)
        return (shape * np.log(rate) - gammaln(shape)
                + (self.sign * shape - 1.0) * np.log(x) - rate * x ** self.sign)

    def sample(self, eta, size, rng):
        shape, rate = self.standard_from_natural(eta)
        return (rng.gamma(shape, 1.0, size=size) / rate) ** self.sign


class _Wishart(_Family):
    """Wishart over K x K precision matrices; standard parameters (dof, scale).

    Density proportional to |X|^((n-K-1)/2) exp(-trace(scale^-1 X)/2).  The
    block domain requires n > K + 1 so every downstream inverse-moment
    formula stays finite.  The mean-to-natural map has no closed form; the
    degrees of freedom of a whole stack come from one batched Newton solve,
    :func:`lrvb.util.solve_log_minus_digamma` with k = K, the solver of the
    gamma shape.
    """

    family = Family.WISHART
    scalar = False

    def _stat_dim(self, var_dim):
        return vech_dim(var_dim) + 1

    def value_dim(self, var_dim):
        return vech_dim(var_dim)

    def coord_names(self, block):
        return ([f"{block.name}[{i},{j}]" for i, j in zip(*tril(block.var_dim))]
                + [f"logdet({block.name})"])

    def var_dim_from_stat_dim(self, stat_dim):
        return dim_from_vech(stat_dim - 1)

    def check_natural(self, eta, var_dim):
        dof, scale = self.standard_from_natural(eta)
        if not (np.all(np.isfinite(eta)) and np.all(dof > var_dim + 1) and is_pos_def(scale)):
            raise DomainError(
                f"Wishart natural parameters need dof > K+1 and PD scale, got dof={dof}")

    def check_mean(self, m, var_dim):
        self._mean_matrix(m, var_dim)

    def _mean_matrix(self, m, var_dim):
        """E[X] and log|E[X]| from one Cholesky factorization; DomainError
        outside the mean domain."""
        mean_mat = unvech(m[..., :-1], var_dim)
        try:
            chol = np.linalg.cholesky(mean_mat) if np.all(np.isfinite(m)) else None
        except np.linalg.LinAlgError:
            chol = None
        if chol is None:
            raise DomainError("Wishart mean matrix not positive definite")
        ld = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
        if np.any(m[..., -1] - ld >= 0):
            raise DomainError("Wishart log-determinant coordinate violates Jensen's inequality")
        return mean_mat, ld

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

    def standard_from_mean(self, m):
        m = np.asarray(m, dtype=float)
        k = self.var_dim_from_stat_dim(m.shape[-1])
        mean_mat, ld = self._mean_matrix(m, k)
        gap = m[..., -1] - ld
        if np.any(gap <= _wishart_min_gap(k)):
            raise DomainError(
                f"mean parameters imply degrees of freedom <= K+1 (gap {np.min(gap):.6g})")
        dof = 2.0 * solve_log_minus_digamma(-gap, k)
        return dof, mean_mat / np.asarray(dof)[..., None, None]

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
        return self._standard_and_chol(z)[:2]

    def _standard_and_chol(self, z):
        chol = chol_from_logchol(z[..., :-1])
        k = chol.shape[-1]
        dof = np.exp(z[..., -1]) + k + 1.0
        return dof, (chol @ chol.swapaxes(-1, -2)) / np.asarray(dof)[..., None, None], chol

    def fit_terms(self, z):
        dof, scale, chol = self._standard_and_chol(z)
        k = chol.shape[-1]
        excess = np.exp(z[..., -1])  # dof - K - 1, and d dof / d z_last
        # logdet coordinate = multidigamma(dof/2) + log|mean| - K log dof + K log 2,
        # and log|mean| = 2 sum_p log L_pp moves only with the log-diagonal
        jac = np.zeros(z.shape + z.shape[-1:])
        jac[..., :-1, :-1] = _chol_product_jacobian(chol)
        jac[..., -1, tril_diag(k)] = 2.0
        jac[..., -1, -1] = (0.5 * multitrigamma(dof / 2.0, k) - k / dof) * excess
        # (K+1)/2 log|V| + K(K+1)/2 log 2 + lgamma_K(n/2)
        # - (n-K-1)/2 digamma_K(n/2) + nK/2, with V = mean / n
        logdet_scale = 2.0 * np.sum(z[..., tril_diag(k)], axis=-1) - k * np.log(dof)
        entropy = ((k + 1.0) / 2.0 * logdet_scale + k * (k + 1.0) / 2.0 * np.log(2.0)
                   + multigamma_ln(dof / 2.0, k) - excess / 2.0 * multidigamma(dof / 2.0, k)
                   + dof * k / 2.0)
        return FitTerms(self.mean_from_standard(dof, scale),
                        self.natural_from_standard(dof, scale), entropy, jac)

    # underlying-variable helpers
    def suff_stats(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            x = x[None, :, :]
        return np.column_stack([vech(x), np.linalg.slogdet(x)[1]])

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
        from scipy.stats import wishart as sp_wishart  # ~0.5 s to import
        dof, scale = self.standard_from_natural(eta)
        draws = sp_wishart.rvs(df=dof, scale=scale, size=size, random_state=rng)
        return draws if size > 1 else draws[None, :, :]

    # sampler coordinates: log-Cholesky coordinates of X
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

    def representative_value(self, m, var_dim):
        return unvech(m[:-1], var_dim)  # E[X]

    def sampler_suff_stats(self, z, var_dim):
        chol = chol_from_logchol(z)
        return np.column_stack([vech(np.einsum("nij,nkj->nik", chol, chol)),
                                (2.0 * z[:, tril_diag(var_dim)]).sum(axis=1)])


@functools.lru_cache(maxsize=None)
def _wishart_min_gap(k):
    """E[log|X|] - log|E[X]| at dof = K+1.  The gap is multidigamma(dof/2)
    - K log(dof/2) < 0 and increases toward 0 with dof, so dof > K+1 needs
    a gap above this value."""
    half = (k + 1.0) / 2.0
    return float(multidigamma(half, k) - k * np.log(half))


FAMILIES = {
    Family.GAUSSIAN_UNIVARIATE: _GaussianUnivariate(),
    Family.GAUSSIAN_MULTIVARIATE: _GaussianMultivariate(),
    Family.GAMMA: _GammaLike(Family.GAMMA, 1.0),
    Family.INVERSE_GAMMA: _GammaLike(Family.INVERSE_GAMMA, -1.0),
    Family.WISHART: _Wishart(),
}


# ---------------------------------------------------------------------------
# the entropy reference and closed-form moments
# ---------------------------------------------------------------------------


def entropy(family, eta):
    """Differential entropy A(eta) - eta @ m at natural parameters eta, of
    one block or a stack, m their mean parameters (all five families have
    unit base measure): the reference the closed forms of ``fit_terms`` are
    tested against, which loses digits for a concentrated block."""
    fam = FAMILIES[family]
    eta = np.asarray(eta, dtype=float)
    return fam.log_partition(eta) - np.sum(eta * fam.mean_from_natural(eta), axis=-1)


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
    log_sigma_diag, inv_sigma_diag = wishart_marginal_moments(dof, diag, k)
    return WishartExpectations(
        mean_precision=dof * scale,
        logdet=multidigamma(dof / 2.0, k) + logdet_scale + k * np.log(2.0),
        log_sigma_diag=log_sigma_diag,
        sqrt_sigma_diag=np.sqrt(diag / 2.0)
        * np.exp(gammaln((dof - k) / 2.0) - gammaln((dof - k + 1.0) / 2.0)),
        inv_sigma_diag=inv_sigma_diag,
    )


def wishart_marginal_moments(dof, scale_inv_diag, k):
    """E[log S_jj] and E[1/S_jj] for S = X^-1 with X ~ Wishart(scale V,
    dof n) over K x K matrices, from the diagonal of V^-1: S_jj is inverse
    gamma with shape (n-K+1)/2 and scale (V^-1)_jj / 2."""
    return (np.log(scale_inv_diag / 2.0) - digamma((dof - k + 1.0) / 2.0),
            (dof - k + 1.0) / scale_inv_diag)


def invgamma_sqrt_expectation(shape, scale):
    """E[sqrt(x)] for x ~ InverseGamma(shape, scale): sqrt(scale) Gamma(shape-1/2)/Gamma(shape)."""
    if shape <= 0.5:
        raise DomainError(f"E[sqrt(x)] needs shape > 1/2, got {shape}")
    if scale <= 0:
        raise DomainError(f"scale must be positive, got {scale}")
    return np.sqrt(scale) * np.exp(gammaln(shape - 0.5) - gammaln(shape))
