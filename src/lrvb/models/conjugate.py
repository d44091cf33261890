"""Conjugate and Gaussian test models with closed-form posteriors.

These fixtures keep every objective term exact, including normalizing
constants, so the fitted objective can be compared against closed-form
or quadrature evidence.

Each fixture is conjugate-exponential: its expected log joint is affine
in every block's sufficient statistics (Winn & Bishop, *Variational
Message Passing*, JMLR 2005).  Under a point mass the expected statistics
are the statistics of the point, so the pointwise log joint at values x
is the expected log joint at m = s(x).  The oracles' pointwise posterior,
``sampler_log_posterior``, is built that way from ``expected_log_lik`` and
``expected_log_prior``; no fixture writes its density a second time.
"""

import numpy as np
from scipy.special import gammaln

from ..errors import DomainError, NotConjugate
from ..expfam import FAMILIES, Family
from ..mfvb import BlockDef, Hyperparams, Layout, ModelSpec
from ..util import digamma, is_pos_def, tril

_GU = FAMILIES[Family.GAUSSIAN_UNIVARIATE]
_IG = FAMILIES[Family.INVERSE_GAMMA]

LOG_2PI = np.log(2.0 * np.pi)


def _sampler_log_posterior(layout, expected_log_lik, expected_log_prior):
    """The fixture's ``sampler_log_posterior``: the expected log joint at the
    statistics of the sampler point's values, plus the log-Jacobian of
    ``values_from_sampler``; -inf, without a warning, where that sum is not
    finite."""
    def sampler_log_posterior(alpha):
        def log_post(zv):
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                values, logjac = layout.values_from_sampler(np.atleast_1d(zv))
                s = layout.suff_stats_of_values(values)
                value = expected_log_lik(s) + expected_log_prior(s, alpha) + logjac
            return value if np.isfinite(value) else -np.inf

        return log_post

    return sampler_log_posterior


def normal_normal_model(data, noise_var, prior_natural):
    """Scalar Gaussian location with known noise variance.

    The prior is parameterized by its natural coordinates
    ``(prior_nat_1, prior_nat_2)`` multiplying the statistics (x, x^2),
    so hyperparameter sensitivities reduce to covariance entries.
    ``prior_natural`` may also be given as moment-form ``("moment", mean,
    variance)``.
    """
    if isinstance(prior_natural, tuple) and prior_natural and prior_natural[0] == "moment":
        _, mu0, var0 = prior_natural
        prior_natural = _GU.natural_from_standard([mu0], [[var0]])
    a = np.asarray(prior_natural, dtype=float)
    if a.shape != (2,) or not (np.all(np.isfinite(a)) and a[1] < 0):
        raise DomainError(f"prior natural parameters {a} out of domain")
    x = np.asarray(data, dtype=float)
    n, sx, sxx = x.size, float(np.sum(x)), float(np.sum(x ** 2))
    if noise_var <= 0:
        raise DomainError(f"noise variance must be positive, got {noise_var}")

    layout = Layout([BlockDef("theta", Family.GAUSSIAN_UNIVARIATE, labels=("theta",))])
    hyper = Hyperparams({"prior_nat_1": a[0], "prior_nat_2": a[1]})

    lik_coeff = np.array([sx / noise_var, -0.5 * n / noise_var])
    lik_const = -0.5 * n * LOG_2PI - 0.5 * n * np.log(noise_var) - 0.5 * sxx / noise_var

    def expected_log_lik(m):
        return float(lik_coeff @ m) + lik_const

    def grad_log_lik(m):
        return lik_coeff.copy()

    def _nat(alpha):
        h, e = alpha["prior_nat_1"], alpha["prior_nat_2"]
        if not (abs(h) < np.inf and -np.inf < e < 0):
            raise DomainError(f"prior natural parameters {[h, e]} out of domain")
        return np.array([h, e])

    prior_norm = None  # (eta, A(eta)) of the last prior

    def expected_log_prior(m, alpha):
        # A(eta) once per prior: a chain evaluates this at one alpha every step
        nonlocal prior_norm
        eta = _nat(alpha)
        if prior_norm is None or prior_norm[0] != tuple(eta):
            prior_norm = tuple(eta), _GU.log_partition(eta)
        return float(eta @ m) - prior_norm[1]

    def grad_log_prior(m, alpha):
        return _nat(alpha)

    def prior_block_logpdf(point, alpha):
        return _GU.log_density(point, _nat(alpha))

    def default_init(alpha):
        return _GU.mean_from_natural(_nat(alpha))

    def exact_posterior(alpha):
        prior = _nat(alpha)
        post = prior + lik_coeff
        log_z = _GU.log_partition(post) - _GU.log_partition(prior) + lik_const
        return _GU.mean_from_natural(post), float(log_z)

    return ModelSpec(
        name="normal_normal", layout=layout, hyperparams=hyper,
        expected_log_lik=expected_log_lik, grad_log_lik=grad_log_lik,
        expected_log_prior=expected_log_prior, grad_log_prior=grad_log_prior,
        default_init=default_init, data={"x": x, "noise_var": float(noise_var)},
        prior_block_logpdf={"theta": prior_block_logpdf},
        sampler_log_posterior=_sampler_log_posterior(
            layout, expected_log_lik, expected_log_prior),
        exact_posterior=exact_posterior)


def normal_invgamma_model(data, prior_loc, prior_obs, prior_shape, prior_rate):
    """Gaussian with unknown mean and variance, normal-inverse-gamma prior.

    theta | v ~ N(prior_loc, v / prior_obs), v ~ InverseGamma(prior_shape,
    prior_rate).  The variational factors q(theta) q(v) couple through the
    likelihood, so the objective Hessian is nonzero off the diagonal.
    """
    x = np.asarray(data, dtype=float)
    n, sx, sxx = x.size, float(np.sum(x)), float(np.sum(x ** 2))

    layout = Layout([
        BlockDef("theta", Family.GAUSSIAN_UNIVARIATE, labels=("theta",)),
        BlockDef("noise_var", Family.INVERSE_GAMMA, labels=("v",)),
    ])
    hyper = Hyperparams({"prior_loc": prior_loc, "prior_obs": prior_obs,
                         "prior_shape": prior_shape, "prior_rate": prior_rate})
    # coordinates: m = (E[th], E[th^2], E[1/v], E[log v])

    def expected_log_lik(m):
        quad = sxx - 2.0 * sx * m[0] + n * m[1]
        return -0.5 * n * LOG_2PI - 0.5 * n * m[3] - 0.5 * m[2] * quad

    def grad_log_lik(m):
        quad = sxx - 2.0 * sx * m[0] + n * m[1]
        return np.array([m[2] * sx, -0.5 * n * m[2], -0.5 * quad, -0.5 * n])

    def _unpack(alpha):
        mu0, k0 = alpha["prior_loc"], alpha["prior_obs"]
        a0, b0 = alpha["prior_shape"], alpha["prior_rate"]
        if not (k0 > 0 and a0 > 0 and b0 > 0):
            raise DomainError("prior_obs, prior_shape, prior_rate must be positive")
        return mu0, k0, a0, b0

    _unpack(hyper)  # the one domain check of the prior, at build as in every hook

    def expected_log_prior(m, alpha):
        mu0, k0, a0, b0 = _unpack(alpha)
        quad = m[1] - 2.0 * mu0 * m[0] + mu0 ** 2
        loc = -0.5 * LOG_2PI + 0.5 * np.log(k0) - 0.5 * m[3] - 0.5 * k0 * m[2] * quad
        scale = a0 * np.log(b0) - gammaln(a0) - (a0 + 1.0) * m[3] - b0 * m[2]
        return loc + scale

    def grad_log_prior(m, alpha):
        mu0, k0, a0, b0 = _unpack(alpha)
        quad = m[1] - 2.0 * mu0 * m[0] + mu0 ** 2
        return np.array([
            k0 * m[2] * mu0,
            -0.5 * k0 * m[2],
            -0.5 * k0 * quad - b0,
            -0.5 - (a0 + 1.0),
        ])

    def prior_block_logpdf(point, alpha):
        _, _, a0, b0 = _unpack(alpha)
        return _IG.log_density(point, _IG.natural_from_standard(a0, b0))

    def default_init(alpha):
        mu0, k0, a0, b0 = _unpack(alpha)
        v0 = b0 / max(a0 - 1.0, 0.5)
        m_theta = _GU.mean_from_standard([mu0], [[v0 / k0]])
        m_v = _IG.mean_from_standard(a0, b0)
        return np.concatenate([m_theta, m_v])

    def exact_posterior(alpha):
        mu0, k0, a0, b0 = _unpack(alpha)
        kn = k0 + n
        mun = (k0 * mu0 + sx) / kn
        an = a0 + 0.5 * n
        bn = b0 + 0.5 * (sxx + k0 * mu0 ** 2 - kn * mun ** 2)
        if an <= 1.0:
            raise NotConjugate("posterior lacks finite second moments (shape <= 1)")
        var_theta = bn / (kn * (an - 1.0))
        mean = np.array([mun, mun ** 2 + var_theta, an / bn,
                         np.log(bn) - digamma(an)])
        log_z = (-0.5 * n * np.log(2.0 * np.pi) + 0.5 * np.log(k0 / kn)
                 + gammaln(an) - gammaln(a0) + a0 * np.log(b0) - an * np.log(bn))
        return mean, float(log_z)

    return ModelSpec(
        name="normal_invgamma", layout=layout, hyperparams=hyper,
        expected_log_lik=expected_log_lik, grad_log_lik=grad_log_lik,
        expected_log_prior=expected_log_prior, grad_log_prior=grad_log_prior,
        default_init=default_init, data={"x": x},
        prior_block_logpdf={"noise_var": prior_block_logpdf},
        sampler_log_posterior=_sampler_log_posterior(
            layout, expected_log_lik, expected_log_prior),
        exact_posterior=exact_posterior)


def gaussian_target_model(nat_loc, info):
    """d-dimensional Gaussian target with fixed precision, factorized fit.

    The exact distribution is N(info^-1 nat_loc, info^-1); the variational
    family is a product of scalar Gaussians, so the fitted marginal
    variances are 1/info_ii while the corrected covariance recovers the
    full inverse.  Hyperparameters are the natural coordinates: the linear
    term ``nat_loc_i`` and the precision entries ``info_ij``.
    """
    nat_loc = np.asarray(nat_loc, dtype=float)
    info = np.asarray(info, dtype=float)
    d = nat_loc.size
    if info.shape != (d, d) or not np.allclose(info, info.T):
        raise DomainError("precision matrix must be square and symmetric")

    layout = Layout([BlockDef(f"theta_{i+1}", Family.GAUSSIAN_UNIVARIATE,
                              labels=(f"theta_{i+1}",)) for i in range(d)])
    entries = {f"nat_loc_{i+1}": nat_loc[i] for i in range(d)}
    for i, j in zip(*tril(d)):
        entries[f"info_{i+1}{j+1}"] = info[i, j]
    hyper = Hyperparams(entries)
    loc_idx = np.arange(d) * 2       # E[theta_i]
    sq_idx = loc_idx + 1             # E[theta_i^2]

    def _unpack(alpha):
        h = np.array([alpha[f"nat_loc_{i+1}"] for i in range(d)])
        lam = np.zeros((d, d))
        for i, j in zip(*tril(d)):
            lam[i, j] = lam[j, i] = alpha[f"info_{i+1}{j+1}"]
        if not is_pos_def(lam):
            raise DomainError("precision matrix must be positive definite")
        return h, lam

    _unpack(hyper)  # the one domain check of the prior, at build as in every hook

    def expected_log_lik(m):
        return 0.0

    def grad_log_lik(m):
        return np.zeros(2 * d)

    def expected_log_prior(m, alpha):
        h, lam = _unpack(alpha)
        _, logdet = np.linalg.slogdet(lam)
        mu = m[loc_idx]
        quad = float(np.diag(lam) @ m[sq_idx])
        quad += float(mu @ (lam - np.diag(np.diag(lam))) @ mu)
        return float(h @ mu) - 0.5 * quad + 0.5 * logdet - 0.5 * d * LOG_2PI

    def grad_log_prior(m, alpha):
        h, lam = _unpack(alpha)
        mu = m[loc_idx]
        g = np.zeros(2 * d)
        off = lam - np.diag(np.diag(lam))
        g[loc_idx] = h - off @ mu
        g[sq_idx] = -0.5 * np.diag(lam)
        return g

    def default_init(alpha):
        h, lam = _unpack(alpha)
        cov = np.linalg.inv(lam)
        # rows (E[theta_i], E[theta_i^2]) in layout order; an overflowing
        # second moment is a DomainError
        return _GU.mean_from_standard((cov @ h)[:, None], np.diag(cov)[:, None, None]).ravel()

    prior_pdfs = {}
    if np.allclose(info, np.diag(np.diag(info))):
        def _make(i):
            def pdf(point, alpha):
                hh, ll = _unpack(alpha)
                eta = np.array([hh[i], -0.5 * ll[i, i]])
                return _GU.log_density(point, eta)
            return pdf
        prior_pdfs = {f"theta_{i+1}": _make(i) for i in range(d)}

    return ModelSpec(
        name="gaussian_target", layout=layout, hyperparams=hyper,
        expected_log_lik=expected_log_lik, grad_log_lik=grad_log_lik,
        expected_log_prior=expected_log_prior, grad_log_prior=grad_log_prior,
        default_init=default_init, data=None,
        prior_block_logpdf=prior_pdfs,
        sampler_log_posterior=_sampler_log_posterior(
            layout, expected_log_lik, expected_log_prior),
        # no data: the posterior is the Gaussian target itself, whose exact
        # moments are what default_init starts from
        exact_posterior=lambda alpha: (default_init(alpha), None))
