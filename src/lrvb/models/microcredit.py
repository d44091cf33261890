"""Hierarchical multi-site treatment-effect model with a decomposed
covariance prior.

Observations y_ik from site k with binary treatment flag T_ik follow

    y_ik | mu_k, tau_k, sigma2_k ~ N(mu_k + T_ik tau_k, sigma2_k)
    (mu_k, tau_k) ~ N((mu, tau), C)

Priors: (mu, tau) ~ N(0, info^-1); sigma2_k ~ InverseGamma(noise_shape,
noise_rate); and the effect covariance C is decomposed as C = S R S with
scale matrix S = sqrt(diag(C)) and correlation matrix R, with

    C_jj ~ InverseGamma(scale_shape, scale_rate)
    log p(R) = (lkj_shape - 1) log|R| + log c(lkj_shape)

The variational factor over the effect precision C^-1 is a Wishart block,
so every expected prior term above has a closed form in the block's
(dof, scale) standard parameters; the two diagonal-marginal terms are
nonlinear in the block's mean coordinates and their gradients go through
the (numerically inverted) parameter map's Jacobian.

The decomposed terms are interpreted as the log prior density of the
precision variable itself (no change-of-variable factor is added), and
the sampler's pointwise log prior applies the identical terms, so the
fit and the Metropolis oracle target the same posterior.

Layout: ``top`` (5 coordinates), then the K site-effect blocks (5 each),
the K site-noise blocks (2 each) and ``effect_prec`` (4).  Two integer
arrays built once place every site: row k of ``eff`` (K, 5) and ``noi``
(K, 2) holds site k's coordinates, so ``m[eff]`` and ``m[noi]`` are
per-site views and each expected term is one array expression over all
sites.  The Wishart marginal moments E[log S_jj] and E[1/S_jj] come from
:func:`lrvb.expfam.wishart_marginal_moments`, as in ``wishart_expectations``,
at the inverse scale the gradient needs anyway.  Site k's blocks
``effects_k`` and ``noise_k`` couple only with each other and with ``top``
and ``effect_prec``, so the model declares them as one of its
``local_groups``: the objective Hessian then costs 2 (9 + 7) = 32
gradient calls at any number of sites, not two per coordinate.

The model's one pointwise posterior is ``sampler_log_posterior``, the
Metropolis oracle's target over the sampler coordinates (the model has
no values-dict hooks).  It is written through per-site statistics: each
site's row of six, its log likelihood term, log v_k and 1/v_k, and the
products of its effect deviation from (mu, tau); the rows' six sums over
the sites; and a log likelihood and log prior of those sums, (mu, tau)
and the log-Cholesky coordinates of the effect precision, plus the
log-Jacobian.  The log-Cholesky coordinates give |P| = (l11 l22)^2 and
log|P| without cancellation.  Given the globals the target is linear
in the six sums (Roberts & Sahu, JRSS-B 1997), so its
``coordinate_moves`` keep every site's row for a whole chain and price
a move of site k's effect or log v_k as f + c.(r_k' - r_k), with
c = (1, -a_n, -b_n, -p11/2, -p12, -p22/2) re-priced only when a
precision move is accepted: O(1) per site move, summed over the four
entries an effect move changes or the three a noise move changes, and
accepting it updates only those entries of the row and the sums.  A
move of (mu, tau) re-evaluates every site's deviations, O(K).  The rows
are evaluated from the sampler's values, never accumulated, and each
sweep re-sums them.
Its independent check is the literal per-site loop reference in
``tests/test_microcredit_reference.py``.

The prior hooks share two one-entry memos: the Wishart terms (moments
and their gradients) of the last effect_prec means, keyed on their bytes,
and the Lambda of the last alpha that passed validation.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ..errors import DomainError
from ..expfam import FAMILIES, Family, wishart_marginal_moments
from ..mfvb import BlockDef, Hyperparams, Layout, ModelSpec
from ..util import (is_pos_def, multitrigamma, tril, trigamma, unvech, vech, vech_dim,
                    vech_dup)

_GM = FAMILIES[Family.GAUSSIAN_MULTIVARIATE]
_IG = FAMILIES[Family.INVERSE_GAMMA]
_WI = FAMILIES[Family.WISHART]

LOG_2PI = np.log(2.0 * np.pi)
LOG_4 = math.log(4.0)

DEFAULT_PRIORS = Hyperparams({
    "prior_info_11": 0.02,
    "prior_info_12": 0.0,
    "prior_info_22": 0.02,
    "lkj_shape": 15.01,
    "scale_shape": 20.01,
    "scale_rate": 20.01,
    "noise_shape": 2.01,
    "noise_rate": 2.01,
})


@dataclass(frozen=True)
class MicrocreditData:
    """Flat per-observation records; ``site`` is 0-based."""

    site: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray
    n_sites: int

    def __post_init__(self):
        site = np.asarray(self.site, dtype=int)
        treat = np.asarray(self.treatment, dtype=int)
        y = np.asarray(self.outcome, dtype=float)
        if not (site.shape == treat.shape == y.shape):
            raise DomainError("site, treatment, outcome must have equal length")
        if self.n_sites < 1 or site.min() < 0 or site.max() >= self.n_sites:
            raise DomainError("site labels out of range")
        if np.any((treat != 0) & (treat != 1)):
            raise DomainError("treatment flags must be 0/1")
        if not np.all(np.isfinite(y)):
            raise DomainError("outcomes must be finite")
        counts = np.bincount(site, minlength=self.n_sites)
        if np.any(counts == 0):
            raise DomainError("every site needs at least one observation")
        object.__setattr__(self, "site", site)
        object.__setattr__(self, "treatment", treat)
        object.__setattr__(self, "outcome", y)

    def site_stats(self):
        """Per-site (count, n_treated, sum_y, sum_y_treated, sum_y_sq)."""
        k = self.n_sites
        n = np.bincount(self.site, minlength=k).astype(float)
        st = np.bincount(self.site, weights=self.treatment, minlength=k)
        sy = np.bincount(self.site, weights=self.outcome, minlength=k)
        syt = np.bincount(self.site, weights=self.outcome * self.treatment, minlength=k)
        syy = np.bincount(self.site, weights=self.outcome ** 2, minlength=k)
        return n, st, sy, syt, syy


@dataclass(frozen=True)
class MicrocreditParams:
    """Generative truth for the synthetic data generator."""

    mu: float
    tau: float
    effect_cov: np.ndarray
    noise_vars: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.effect_cov, dtype=float)
        nv = np.asarray(self.noise_vars, dtype=float)
        if cov.shape != (2, 2) or not np.allclose(cov, cov.T):
            raise DomainError("effect covariance must be symmetric 2x2")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise DomainError("effect covariance must be positive definite") from exc
        if np.any(nv <= 0):
            raise DomainError("noise variances must be positive")
        object.__setattr__(self, "effect_cov", cov)
        object.__setattr__(self, "noise_vars", nv)


def simulate_microcredit(truth, n_per_site, seed, treat_fraction=0.5):
    """Seeded draw from the generative process above."""
    k = truth.noise_vars.size
    counts = np.full(k, n_per_site) if np.isscalar(n_per_site) else np.asarray(n_per_site)
    if np.any(counts <= 0):
        raise DomainError("site counts must be positive")
    rng = np.random.default_rng(seed)
    effects = rng.multivariate_normal([truth.mu, truth.tau], truth.effect_cov, size=k)
    site, treat, outcome = [], [], []
    for j in range(k):
        n = int(counts[j])
        t = (rng.random(n) < treat_fraction).astype(int)
        y = rng.normal(effects[j, 0] + t * effects[j, 1], np.sqrt(truth.noise_vars[j]))
        site.append(np.full(n, j))
        treat.append(t)
        outcome.append(y)
    return MicrocreditData(np.concatenate(site), np.concatenate(treat),
                           np.concatenate(outcome), n_sites=k)


def save_microcredit_csv(data, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["site", "treatment", "outcome"])
        for s, t, y in zip(data.site, data.treatment, data.outcome):
            writer.writerow([int(s) + 1, int(t), repr(float(y))])


def load_microcredit_csv(path):
    sites, treats, ys = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        required = ("site", "treatment", "outcome")
        if header is None or not set(required).issubset(header):
            raise DomainError(f"CSV must have header columns {sorted(required)}")
        # a repeated name's last column, as csv.DictReader read it
        i_site, i_treat, i_y = (len(header) - 1 - header[::-1].index(name)
                                for name in required)
        for line, row in enumerate(reader, start=2):
            if not row:  # a blank line, which csv.DictReader skipped as well
                continue
            try:
                sites.append(int(row[i_site]))
                treats.append(int(row[i_treat]))
                ys.append(float(row[i_y]))
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}, line {line}: missing or non-numeric "
                                 f"cell ({exc})") from exc
    if not sites:
        raise DomainError(f"{path} has no data rows, only a header")
    labels, site0 = np.unique(np.asarray(sites), return_inverse=True)
    return MicrocreditData(site0, np.asarray(treats), np.asarray(ys),
                           n_sites=len(labels))


def _exp_quiet(x):
    """float(np.exp(x)); inf past the float range, without a warning."""
    if x < 700.0:
        return float(np.exp(x))
    with np.errstate(over="ignore"):
        return float(np.exp(x))


def _fsum_quiet(values):
    """math.fsum(values); nan where it raises for inf - inf or overflow."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


def lkj_log_normalizer(shape):
    """log c for the 2x2 correlation density c |R|^(shape-1).

    For 2x2 matrices |R| = 1 - r^2 with r in (-1, 1), and
    1/c = integral (1-r^2)^(shape-1) dr = sqrt(pi) Gamma(shape) /
    Gamma(shape + 1/2).
    """
    if shape <= 0:
        raise DomainError(f"concentration must be positive, got {shape}")
    return gammaln(shape + 0.5) - gammaln(shape) - 0.5 * np.log(np.pi)


def _check_priors(alpha):
    lam = np.array([[alpha["prior_info_11"], alpha["prior_info_12"]],
                    [alpha["prior_info_12"], alpha["prior_info_22"]]])
    if not is_pos_def(lam):  # a NaN entry passes the Cholesky factorization
        raise DomainError("prior information matrix must be positive definite")
    for key in ("lkj_shape", "scale_shape", "scale_rate", "noise_shape", "noise_rate"):
        if not alpha[key] > 0:
            raise DomainError(f"{key} must be positive, got {alpha[key]}")
    return lam


def build_microcredit_model(data, priors=None):
    """Assemble the ModelSpec for the hierarchical model."""
    if data.n_sites < 2:
        raise DomainError("need at least 2 sites to identify the effect covariance")
    priors = DEFAULT_PRIORS if priors is None else (
        priors if isinstance(priors, Hyperparams) else Hyperparams(priors))
    checked = None  # (alpha's items, Lambda) of the last alpha that passed

    def check_priors(alpha):
        """_check_priors(alpha), with a read-only Lambda, run once per alpha:
        only an alpha that passes is kept, so an invalid one raises on every
        call, and one with a NaN never passes."""
        nonlocal checked
        key, memo = tuple(alpha.items()), checked
        if memo is None or memo[0] != key:
            lam = _check_priors(alpha)
            lam.flags.writeable = False
            memo = checked = key, lam
        return memo[1]

    check_priors(priors)
    k_sites = data.n_sites
    n, st, sy, syt, syy = data.site_stats()

    effects = [BlockDef(f"effects_{j+1}", Family.GAUSSIAN_MULTIVARIATE, 2,
                        (f"mu_site{j+1}", f"tau_site{j+1}")) for j in range(k_sites)]
    noises = [BlockDef(f"noise_{j+1}", Family.INVERSE_GAMMA, 1,
                       (f"sigma2_site{j+1}",)) for j in range(k_sites)]
    layout = Layout([BlockDef("top", Family.GAUSSIAN_MULTIVARIATE, 2, ("mu", "tau"))]
                    + effects + noises + [BlockDef("effect_prec", Family.WISHART, 2)])

    top = layout.slice_of("top").start
    wis = layout.slice_of("effect_prec").start
    # row k of eff / noi holds site k's coordinates: blocks 1..K are the
    # effects [u1, u2, u1*u1, u2*u1, u2*u2], K+1..2K the noises [1/v, log v]
    eff = layout.offsets[1:k_sites + 1, None] + np.arange(5)
    noi = layout.offsets[k_sites + 1:2 * k_sites + 1, None] + np.arange(2)
    KW = 2  # effect-precision matrix dimension
    # d site_quad / d e; the likelihood gradient is -1/2 E[1/sigma2_k] times it
    st2 = 2.0 * st
    quad_coef = np.column_stack([-2.0 * sy, -2.0 * syt, n, st2, st])
    lik_const = float(-0.5 * np.sum(n) * LOG_2PI)
    pos_noise, pos_chol = 2 + 2 * k_sites, 2 + 3 * k_sites  # sampler log v_1, P
    # each site's data (sum y^2, sum y, sum y T, n, 2 n_T, n_T): arrays over
    # the sites, and one row of floats per site for the sampler's site moves
    site_data = (syy, sy, syt, n, st2, st)
    data_rows = np.column_stack(site_data).tolist()
    # the site of each sampler site coordinate: mu_k and tau_k, then log v_k
    site_of = [None, None] + [i // 2 for i in range(2 * k_sites)] + list(range(k_sites))

    def site_quad(e1, e2, e11, e12, e22, data=site_data):
        """sum_i (y_ik - mu_k - T_ik tau_k)^2 for every site k, linear in the
        site statistics u1, u2, u1^2, u1 u2, u2^2 (expected or pointwise);
        for one site given its row of ``data_rows``."""
        yy, y, yt, nk, t2, t = data
        return yy - 2.0 * (y * e1 + yt * e2) + nk * e11 + t2 * e12 + t * e22

    def expected_log_lik(m):
        v = m[noi]
        return float(np.sum(-0.5 * n * LOG_2PI - 0.5 * n * v[:, 1]
                            - 0.5 * v[:, 0] * site_quad(*m[eff].T)))

    def grad_log_lik(m):
        g = np.zeros(layout.dim)
        g[eff] = -0.5 * m[noi[:, :1]] * quad_coef
        g[noi] = np.column_stack([-0.5 * site_quad(*m[eff].T), -0.5 * n])
        return g

    def sum_site_cov(m):
        """sum_k E[(u_k - u)(u_k - u)'] as one 2x2 matrix."""
        s = m[eff].sum(axis=0)
        u = m[top:top + 2]
        return (unvech(s[2:], 2) - np.outer(s[:2], u) - np.outer(u, s[:2])
                + k_sites * unvech(m[top + 2:top + 5], 2))

    # -- Wishart-block terms -----------------------------------------------

    wishart = None  # (effect_prec means' bytes, terms) of the last point

    def wishart_terms(m):
        """At the four effect_prec means: E[log S_jj] and E[1/S_jj] (S = X^-1),
        and the mean-coordinate gradients of their sums over j as the two
        columns of a (4, 2) array.  S_jj is inverse gamma with shape
        (dof - K + 1)/2 and scale P_jj / 2 for P = scale^-1 (see
        :func:`lrvb.expfam.wishart_marginal_moments`).  Derived once per
        distinct means: the last terms are kept, keyed on their exact
        bytes; a failing derivation keeps nothing."""
        nonlocal wishart
        block, memo = np.array(m[wis:wis + 4], dtype=float), wishart
        key = block.tobytes()
        if memo is None or memo[0] != key:
            dof, scale = _WI.standard_from_mean(block)
            p = np.linalg.inv(scale)
            p = (p + p.T) / 2.0
            pjj = np.diag(p)
            log_sigma_diag, inv_sigma_diag = wishart_marginal_moments(dof, pjj, KW)
            # d(block mean)/d(vech scale, dof); rows match the block layout
            nv = vech_dim(KW)
            jac = np.zeros((nv + 1, nv + 1))
            jac[:nv, :nv] = dof * np.eye(nv)
            jac[:nv, nv] = vech(scale)
            jac[nv, :nv] = vech_dup(p)
            jac[nv, nv] = 0.5 * multitrigamma(dof / 2.0, KW)
            # the sums' gradients in (vech scale, dof)
            rows, cols = tril(KW)
            dpjj = -(2.0 - (rows == cols)) * p[:, rows] * p[:, cols]
            d_log = np.append((dpjj / pjj[:, None]).sum(axis=0),
                              -0.5 * KW * trigamma((dof - KW + 1.0) / 2.0))
            d_inv = np.append((-(dof - KW + 1.0) * dpjj / pjj[:, None] ** 2).sum(axis=0),
                              np.sum(1.0 / pjj))
            terms = (log_sigma_diag, inv_sigma_diag,
                     np.linalg.solve(jac.T, np.column_stack([d_log, d_inv])))
            for arr in terms:  # shared by every later call at these means
                arr.flags.writeable = False
            memo = wishart = key, terms
        return memo[1]

    # -- expected log prior -------------------------------------------------

    def expected_log_prior(m, alpha):
        lam = check_priors(alpha)
        eta_l, a_s, b_s = alpha["lkj_shape"], alpha["scale_shape"], alpha["scale_rate"]
        a_n, b_n = alpha["noise_shape"], alpha["noise_rate"]

        sign, logdet_lam = np.linalg.slogdet(lam)
        u2 = unvech(m[top + 2:top + 5], 2)
        total = -LOG_2PI + 0.5 * logdet_lam - 0.5 * float(np.sum(lam * u2))

        a_mat = unvech(m[wis:wis + 3], 2)  # E[effect precision]
        m_logdet = m[wis + 3]
        total += (k_sites * (-LOG_2PI + 0.5 * m_logdet)
                  - 0.5 * float(np.sum(a_mat * sum_site_cov(m))))

        v = m[noi]
        total += float(np.sum(a_n * np.log(b_n) - gammaln(a_n)
                              - (a_n + 1.0) * v[:, 1] - b_n * v[:, 0]))

        log_terms, inv_terms, _ = wishart_terms(m)
        total += (eta_l - 1.0) * (-m_logdet - float(np.sum(log_terms)))
        total += lkj_log_normalizer(eta_l)
        total += float(np.sum(a_s * np.log(b_s) - gammaln(a_s)
                              - (a_s + 1.0) * log_terms - b_s * inv_terms))
        return total

    def grad_log_prior(m, alpha):
        lam = check_priors(alpha)
        eta_l, a_s, b_s = alpha["lkj_shape"], alpha["scale_shape"], alpha["scale_rate"]
        a_n, b_n = alpha["noise_shape"], alpha["noise_rate"]
        g = np.zeros(layout.dim)

        a_mat = unvech(m[wis:wis + 3], 2)
        u = m[top:top + 2]
        g[top:top + 2] = a_mat @ m[eff[:, :2]].sum(axis=0)
        g[top + 2:top + 5] = vech_dup(-0.5 * lam) + vech_dup(-0.5 * k_sites * a_mat)
        g[eff[:, :2]] = a_mat @ u
        g[eff[:, 2:]] = vech_dup(-0.5 * a_mat)
        g[noi] = [-b_n, -(a_n + 1.0)]

        g[wis:wis + 3] = vech_dup(-0.5 * sum_site_cov(m))
        g[wis + 3] = 0.5 * k_sites - (eta_l - 1.0)
        c_log = -(eta_l - 1.0) - (a_s + 1.0)
        g[wis:wis + 4] += wishart_terms(m)[2] @ [c_log, -b_s]
        return g

    # -- pointwise log posterior (Metropolis oracle) --------------------------
    # One formula serves the sampler's full evaluation and its
    # single-coordinate moves: per-site statistics, their six sums over the
    # sites, and a log likelihood and log prior of those sums.  Each function
    # below takes arrays over all sites, or one site's floats (with that
    # site's row of ``data_rows`` as data).

    def site_terms(muk, tauk, logv, inv_v, data=site_data):
        """Each site's log likelihood less its constant, log v_k and 1/v_k."""
        quad = site_quad(muk, tauk, muk * muk, muk * tauk, tauk * tauk, data)
        return -0.5 * data[3] * logv - 0.5 * quad * inv_v, logv, inv_v

    def deviations(mu, tau, muk, tauk):
        """d1^2, d1 d2, d2^2 of each site's effect deviation d = (mu_k - mu,
        tau_k - tau)."""
        d1, d2 = muk - mu, tauk - tau
        return d1 * d1, d1 * d2, d2 * d2

    def stat_sums(columns):
        """Each column's sum over the sites, exactly rounded, so it does not
        depend on the order of the sites; nan where the column holds both
        infinities or sums past the float range."""
        return [_fsum_quiet(column) for column in columns]

    def prior_block_logpdf(point, alpha):
        # N(0, Lambda^-1) in natural coordinates (0, vech_dup(-Lambda / 2))
        lam = check_priors(alpha)
        return _GM.log_density(point, np.concatenate([np.zeros(2), vech_dup(-0.5 * lam)]))

    def sampler_log_posterior(alpha):
        """Log posterior plus log-Jacobian over the sampler coordinates:
        (mu, tau), site effects (2K), log noise variances (K), then the
        log-Cholesky coordinates (log l11, l21, log l22) of the precision;
        -inf, without an exception, where the precision leaves the float
        range.  The function carries ``coordinate_moves`` for
        :func:`lrvb.oracle.metropolis_sample`."""
        lam = check_priors(alpha)
        eta_l, a_s, b_s = alpha["lkj_shape"], alpha["scale_shape"], alpha["scale_rate"]
        a_n, b_n = alpha["noise_shape"], alpha["noise_rate"]
        lam11, lam12, lam22 = lam[0, 0].item(), lam[0, 1].item(), lam[1, 1].item()
        const = float(-LOG_2PI + 0.5 * np.linalg.slogdet(lam)[1]
                      + k_sites * (a_n * np.log(b_n) - gammaln(a_n) - LOG_2PI)
                      + lkj_log_normalizer(eta_l)
                      + 2.0 * (a_s * np.log(b_s) - gammaln(a_s)))
        glob = [0, 1, pos_chol, pos_chol + 1, pos_chol + 2]

        def from_sums(g, sums):
            """The log target at g = (mu, tau, log l11, l21, log l22) and the
            six site sums.  P = L L' has |P| = (l11 l22)^2, which cannot
            cancel, and C = P^-1 enters as C11 = p22/|P|, C22 = p11/|P|."""
            mu, tau, z1, l21, z3 = g
            sum_lik, sum_logv, sum_inv_v, s11, s12, s22 = sums
            try:
                l11, l22 = math.exp(z1), math.exp(z3)
                p11, p12, p22 = l11 * l11, l11 * l21, l21 * l21 + l22 * l22
                det, logdet_p = (l11 * l22) ** 2, 2.0 * (z1 + z3)
                log_c11, log_c22 = math.log(p22 / det), math.log(p11 / det)
                log_prior = (const
                             - 0.5 * (lam11 * mu * mu + 2.0 * lam12 * mu * tau
                                      + lam22 * tau * tau)
                             + 0.5 * k_sites * logdet_p
                             - 0.5 * (p11 * s11 + 2.0 * p12 * s12 + p22 * s22)
                             - (a_n + 1.0) * sum_logv - b_n * sum_inv_v
                             + (eta_l - 1.0) * (-logdet_p - log_c11 - log_c22)
                             - (a_s + 1.0) * (log_c11 + log_c22)
                             - b_s * (det / p22 + det / p11))
                value = (lik_const + sum_lik + log_prior
                         # |d values / d zv|: exp on each log v_k, and
                         # 4 l11^3 l22^2 for P = L L' in log-Cholesky coordinates
                         + sum_logv + LOG_4 + 3.0 * z1 + 2.0 * z3)
            except (OverflowError, ValueError, ZeroDivisionError):
                # P, |P| or C = P^-1 past the float range: exp overflows,
                # |P| or C_jj rounds to 0 or a product to inf or nan
                return -math.inf
            return value if math.isfinite(value) else -math.inf

        def row_coefficients(g):
            """c with f + c.(r' - r) the log target after one site's row moves
            from r to r' at the globals g: the derivative of from_sums in the
            six sums, (1, -a_n, -b_n, -p11/2, -p12, -p22/2)."""
            l11, l21, l22 = _exp_quiet(g[2]), g[3], _exp_quiet(g[4])
            return (1.0, -a_n, -b_n, -0.5 * l11 * l11, -l11 * l21,
                    -0.5 * (l21 * l21 + l22 * l22))

        def site_rows(zv):
            """Each site's row at zv, ``site_terms`` then ``deviations`` (K
            lists of six); past the float range inf or nan, quietly."""
            muk, tauk, logv = zv[2:pos_noise:2], zv[3:pos_noise:2], zv[pos_noise:pos_chol]
            with np.errstate(over="ignore", invalid="ignore"):
                return np.array(site_terms(muk, tauk, logv, np.exp(-logv))
                                + deviations(zv[0], zv[1], muk, tauk)).T.tolist()

        def log_post(zv):
            return from_sums(zv[glob].tolist(), stat_sums(zip(*site_rows(zv))))

        def coordinate_moves(x):
            """(resum, propose, accept) for single-coordinate moves of x, made
            once per chain.  Each site's row is kept and evaluated from x's
            values, never accumulated.  ``resum()`` re-sums the six sums from
            the rows and returns the log target at x.  A move of site k's
            effect or log v_k is priced linearly, f + c.(r_k' - r_k); c depends
            only on the precision and alpha and is re-priced when a precision
            move is accepted.  A move of (mu, tau) re-evaluates every site's
            deviations and a precision move keeps the sums; both go through
            from_sums.  The rows change only on accept()."""
            g, rows = x[glob].tolist(), site_rows(x)
            c, f, sums, move = row_coefficients(g), None, None, None

            def resum():
                nonlocal f, sums
                sums = stat_sums(zip(*rows))
                f = from_sums(g, sums)
                return f

            resum()

            def propose(j, xj):
                nonlocal move
                if j < 2:
                    g_new = g.copy()
                    g_new[j] = xj
                    devs = [d.tolist() for d in deviations(
                        g_new[0], g_new[1], x[2:pos_noise:2], x[3:pos_noise:2])]
                    sums_new = sums[:3] + stat_sums(devs)
                    value = from_sums(g_new, sums_new)
                    move = value, None, (g_new, sums_new), devs
                    return value
                if j >= pos_chol:
                    g_new = g.copy()
                    g_new[j - pos_chol + 2] = xj
                    value = from_sums(g_new, sums)
                    move = value, None, (g_new, sums), None
                    return value
                # c.(r_k' - r_k) over the (index, value) pairs the move
                # changes: the others' terms are c_i * 0.0, as every kept row
                # is finite
                k = site_of[j]
                old, muk, tauk = rows[k], x.item(2 * k + 2), x.item(2 * k + 3)
                if j < pos_noise:
                    muk, tauk = (xj, tauk) if j % 2 == 0 else (muk, xj)
                    lik = site_terms(muk, tauk, old[1], old[2], data_rows[k])[0]
                    d11, d12, d22 = deviations(g[0], g[1], muk, tauk)
                    new = (0, lik), (3, d11), (4, d12), (5, d22)
                    value = f + (c[0] * (lik - old[0]) + c[3] * (d11 - old[3])
                                 + c[4] * (d12 - old[4]) + c[5] * (d22 - old[5]))
                else:
                    inv_v = _exp_quiet(-xj)
                    lik = site_terms(muk, tauk, xj, inv_v, data_rows[k])[0]
                    new = (0, lik), (1, xj), (2, inv_v)
                    value = f + (c[0] * (lik - old[0]) + c[1] * (xj - old[1])
                                 + c[2] * (inv_v - old[2]))
                if not math.isfinite(value):  # a row past the float range
                    value = -math.inf
                move = value, k, new, None
                return value

            def accept():
                nonlocal f, g, c, sums
                f, k, new, devs = move
                if k is not None:
                    row = rows[k]  # the other entries' s + 0.0 is s
                    for i, a in new:
                        sums[i] += a - row[i]
                        row[i] = a
                    return
                g, sums = new
                if devs is None:
                    c = row_coefficients(g)
                else:
                    for row, d in zip(rows, zip(*devs)):
                        row[3:] = d

            return resum, propose, accept

        log_post.coordinate_moves = coordinate_moves
        return log_post

    def default_init(alpha):
        lam = check_priors(alpha)
        a_s, b_s = alpha["scale_shape"], alpha["scale_rate"]
        a_n, b_n = alpha["noise_shape"], alpha["noise_rate"]
        c0 = b_s / max(a_s - 1.0, 0.5)
        m = np.empty(layout.dim)
        m[top:top + 5] = _GM.mean_from_standard(np.zeros(2), np.linalg.inv(lam))
        m[eff] = _GM.mean_from_standard(np.zeros(2), c0 * np.eye(2))
        m[noi] = _IG.mean_from_standard(a_n, b_n)
        dof0 = 7.0
        m[wis:wis + 4] = _WI.mean_from_standard(dof0, np.eye(2) / (c0 * dof0))
        return m

    return ModelSpec(
        name="microcredit", layout=layout, hyperparams=priors,
        expected_log_lik=expected_log_lik, grad_log_lik=grad_log_lik,
        expected_log_prior=expected_log_prior, grad_log_prior=grad_log_prior,
        default_init=default_init, data=data,
        prior_block_logpdf={"top": prior_block_logpdf},
        sampler_log_posterior=sampler_log_posterior,
        local_groups=tuple((e.name, v.name) for e, v in zip(effects, noises)))
