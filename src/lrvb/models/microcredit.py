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
the pointwise log prior used by the sampling/quadrature oracles applies
the identical terms, so all engines target the same posterior.
"""

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ..errors import DomainError
from ..expfam import FAMILIES, Family
from ..mfvb import BlockDef, Hyperparams, Layout, ModelSpec
from ..util import digamma, multitrigamma, tril, trigamma, unvech, vech, vech_dup

_GM = FAMILIES[Family.GAUSSIAN_MULTIVARIATE]
_IG = FAMILIES[Family.INVERSE_GAMMA]
_WI = FAMILIES[Family.WISHART]

LOG_2PI = np.log(2.0 * np.pi)

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
        reader = csv.DictReader(fh)
        required = {"site", "treatment", "outcome"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DomainError(f"CSV must have header columns {sorted(required)}")
        for line, row in enumerate(reader, start=2):
            try:
                sites.append(int(row["site"]))
                treats.append(int(row["treatment"]))
                ys.append(float(row["outcome"]))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}, line {line}: missing or non-numeric "
                                 f"cell ({exc})") from exc
    sites = np.asarray(sites)
    labels = np.unique(sites)
    remap = {lab: i for i, lab in enumerate(labels)}
    site0 = np.array([remap[s] for s in sites])
    return MicrocreditData(site0, np.asarray(treats), np.asarray(ys),
                           n_sites=len(labels))


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
    try:
        np.linalg.cholesky(lam)
    except np.linalg.LinAlgError as exc:
        raise DomainError("prior information matrix must be positive definite") from exc
    for key in ("lkj_shape", "scale_shape", "scale_rate", "noise_shape", "noise_rate"):
        if alpha[key] <= 0:
            raise DomainError(f"{key} must be positive, got {alpha[key]}")
    return lam


def build_microcredit_model(data, priors=None):
    """Assemble the ModelSpec for the hierarchical model."""
    if data.n_sites < 2:
        raise DomainError("need at least 2 sites to identify the effect covariance")
    priors = DEFAULT_PRIORS if priors is None else (
        priors if isinstance(priors, Hyperparams) else Hyperparams(priors))
    _check_priors(priors)
    k_sites = data.n_sites
    n, st, sy, syt, syy = data.site_stats()

    blocks = [BlockDef("top", Family.GAUSSIAN_MULTIVARIATE, 2, ("mu", "tau"))]
    blocks += [BlockDef(f"effects_{j+1}", Family.GAUSSIAN_MULTIVARIATE, 2,
                        (f"mu_site{j+1}", f"tau_site{j+1}")) for j in range(k_sites)]
    blocks += [BlockDef(f"noise_{j+1}", Family.INVERSE_GAMMA, 1,
                        (f"sigma2_site{j+1}",)) for j in range(k_sites)]
    blocks += [BlockDef("effect_prec", Family.WISHART, 2)]
    layout = Layout(blocks)

    top = layout.slice_of("top").start
    eff = [layout.slice_of(f"effects_{j+1}").start for j in range(k_sites)]
    noi = [layout.slice_of(f"noise_{j+1}").start for j in range(k_sites)]
    wis = layout.slice_of("effect_prec").start
    # per 2-d Gaussian block: [u1, u2, u1*u1, u2*u1, u2*u2]
    KW = 2  # effect-precision matrix dimension

    def site_quad(m, j):
        b = eff[j]
        return (syy[j] - 2.0 * (sy[j] * m[b] + syt[j] * m[b + 1])
                + n[j] * m[b + 2] + 2.0 * st[j] * m[b + 3] + st[j] * m[b + 4])

    def expected_log_lik(m):
        total = 0.0
        for j in range(k_sites):
            total += (-0.5 * n[j] * LOG_2PI - 0.5 * n[j] * m[noi[j] + 1]
                      - 0.5 * m[noi[j]] * site_quad(m, j))
        return total

    def grad_log_lik(m):
        g = np.zeros(layout.dim)
        for j in range(k_sites):
            b, v = eff[j], noi[j]
            ivar = m[v]
            g[b] += ivar * sy[j]
            g[b + 1] += ivar * syt[j]
            g[b + 2] += -0.5 * ivar * n[j]
            g[b + 3] += -ivar * st[j]
            g[b + 4] += -0.5 * ivar * st[j]
            g[v] += -0.5 * site_quad(m, j)
            g[v + 1] += -0.5 * n[j]
        return g

    # -- Wishart-block helpers ---------------------------------------------

    def _wishart_params(m):
        return _WI.standard_from_mean(np.asarray(m[wis:wis + 4], dtype=float))

    def _forward_jacobian(dof, scale):
        """d(block mean)/d(vech scale, dof); rows match the block layout."""
        p = np.linalg.inv(scale)
        p = (p + p.T) / 2.0
        rows, cols = tril(KW)
        nv = len(rows)
        jac = np.zeros((nv + 1, nv + 1))
        for a in range(nv):
            jac[a, a] = dof
        jac[:nv, nv] = vech(scale)
        for b, (c, d) in enumerate(zip(rows, cols)):
            jac[nv, b] = (2.0 - (c == d)) * p[c, d]
        jac[nv, nv] = 0.5 * multitrigamma(dof / 2.0, KW)
        return jac, p

    def _diag_marginal_grads(dof, scale, p):
        """Parameter-space gradients of E[log S_jj] and E[1/S_jj], S = X^-1.

        Returns (log_terms, inv_terms, d_log, d_inv): values per diagonal j
        and gradients with respect to (vech scale, dof).
        """
        rows, cols = tril(KW)
        nv = len(rows)
        shape_m = (dof - KW + 1.0) / 2.0
        log_terms = np.log(np.diag(p) / 2.0) - digamma(shape_m)
        inv_terms = (dof - KW + 1.0) / np.diag(p)
        d_log = np.zeros((KW, nv + 1))
        d_inv = np.zeros((KW, nv + 1))
        for j in range(KW):
            pj = p[j, :]
            for b, (c, d) in enumerate(zip(rows, cols)):
                dpjj = -(2.0 - (c == d)) * pj[c] * pj[d]
                d_log[j, b] = dpjj / p[j, j]
                d_inv[j, b] = -(dof - KW + 1.0) * dpjj / p[j, j] ** 2
            d_log[j, nv] = -0.5 * trigamma(shape_m)
            d_inv[j, nv] = 1.0 / p[j, j]
        return log_terms, inv_terms, d_log, d_inv

    # -- expected log prior -------------------------------------------------

    def expected_log_prior(m, alpha):
        lam = _check_priors(alpha)
        eta_l, a_s, b_s = alpha["lkj_shape"], alpha["scale_shape"], alpha["scale_rate"]
        a_n, b_n = alpha["noise_shape"], alpha["noise_rate"]

        sign, logdet_lam = np.linalg.slogdet(lam)
        u2 = unvech(m[top + 2:top + 5], 2)
        total = -LOG_2PI + 0.5 * logdet_lam - 0.5 * float(np.sum(lam * u2))

        a_mat = unvech(m[wis:wis + 3], 2)  # E[effect precision]
        u = m[top:top + 2]
        m_logdet = m[wis + 3]
        for j in range(k_sites):
            b = eff[j]
            uk = m[b:b + 2]
            uk2 = unvech(m[b + 2:b + 5], 2)
            mk = uk2 - np.outer(uk, u) - np.outer(u, uk) + u2
            total += -LOG_2PI + 0.5 * m_logdet - 0.5 * float(np.sum(a_mat * mk))

        for j in range(k_sites):
            v = noi[j]
            total += (a_n * np.log(b_n) - gammaln(a_n)
                      - (a_n + 1.0) * m[v + 1] - b_n * m[v])

        dof, scale = _wishart_params(m)
        _, p = _forward_jacobian(dof, scale)
        log_terms, inv_terms, _, _ = _diag_marginal_grads(dof, scale, p)
        total += (eta_l - 1.0) * (-m_logdet - float(np.sum(log_terms)))
        total += lkj_log_normalizer(eta_l)
        total += float(np.sum(a_s * np.log(b_s) - gammaln(a_s)
                              - (a_s + 1.0) * log_terms - b_s * inv_terms))
        return total

    def grad_log_prior(m, alpha):
        lam = _check_priors(alpha)
        eta_l, a_s, b_s = alpha["lkj_shape"], alpha["scale_shape"], alpha["scale_rate"]
        a_n, b_n = alpha["noise_shape"], alpha["noise_rate"]
        g = np.zeros(layout.dim)

        g[top + 2:top + 5] += vech_dup(-0.5 * lam)

        a_mat = unvech(m[wis:wis + 3], 2)
        u = m[top:top + 2]
        sum_uk = np.zeros(2)
        sum_mk = np.zeros((2, 2))
        u2 = unvech(m[top + 2:top + 5], 2)
        for j in range(k_sites):
            b = eff[j]
            uk = m[b:b + 2]
            uk2 = unvech(m[b + 2:b + 5], 2)
            mk = uk2 - np.outer(uk, u) - np.outer(u, uk) + u2
            sum_uk += uk
            sum_mk += mk
            g[b:b + 2] += a_mat @ u
            g[b + 2:b + 5] += vech_dup(-0.5 * a_mat)
        g[top:top + 2] += a_mat @ sum_uk
        g[top + 2:top + 5] += vech_dup(-0.5 * k_sites * a_mat)
        g[wis:wis + 3] += vech_dup(-0.5 * sum_mk)
        g[wis + 3] += 0.5 * k_sites

        for j in range(k_sites):
            v = noi[j]
            g[v] += -b_n
            g[v + 1] += -(a_n + 1.0)

        g[wis + 3] += -(eta_l - 1.0)
        dof, scale = _wishart_params(m)
        jac, p = _forward_jacobian(dof, scale)
        _, _, d_log, d_inv = _diag_marginal_grads(dof, scale, p)
        c_log = -(eta_l - 1.0) - (a_s + 1.0)
        d_params = c_log * d_log.sum(axis=0) - b_s * d_inv.sum(axis=0)
        g[wis:wis + 4] += np.linalg.solve(jac.T, d_params)
        return g

    def prior_alpha_grad(m, alpha, direction):
        lam = _check_priors(alpha)
        out = np.zeros(layout.dim)
        c = direction.get("prior_info_11", 0.0)
        if c:
            out[top + 2] += -0.5 * c
        c = direction.get("prior_info_12", 0.0)
        if c:
            out[top + 3] += -c
        c = direction.get("prior_info_22", 0.0)
        if c:
            out[top + 4] += -0.5 * c
        need_wishart = any(direction.get(kk, 0.0) for kk in
                           ("lkj_shape", "scale_shape", "scale_rate"))
        if need_wishart:
            dof, scale = _wishart_params(m)
            jac, p = _forward_jacobian(dof, scale)
            _, _, d_log, d_inv = _diag_marginal_grads(dof, scale, p)
            grad_log_sum = np.linalg.solve(jac.T, d_log.sum(axis=0))
            grad_inv_sum = np.linalg.solve(jac.T, d_inv.sum(axis=0))
            c = direction.get("lkj_shape", 0.0)
            if c:
                out[wis + 3] += -c
                out[wis:wis + 4] += -c * grad_log_sum
            c = direction.get("scale_shape", 0.0)
            if c:
                out[wis:wis + 4] += -c * grad_log_sum
            c = direction.get("scale_rate", 0.0)
            if c:
                out[wis:wis + 4] += -c * grad_inv_sum
        c = direction.get("noise_shape", 0.0)
        if c:
            for j in range(k_sites):
                out[noi[j] + 1] += -c
        c = direction.get("noise_rate", 0.0)
        if c:
            for j in range(k_sites):
                out[noi[j]] += -c
        return out

    # -- pointwise log densities (sampling / quadrature oracles) ------------

    def log_lik_values(values):
        total = 0.0
        for j in range(k_sites):
            uk = np.asarray(values[f"effects_{j+1}"], dtype=float)
            v = float(np.asarray(values[f"noise_{j+1}"]).reshape(-1)[0])
            quad = (syy[j] - 2.0 * (sy[j] * uk[0] + syt[j] * uk[1])
                    + n[j] * uk[0] ** 2 + 2.0 * st[j] * uk[0] * uk[1]
                    + st[j] * uk[1] ** 2)
            total += -0.5 * n[j] * (LOG_2PI + np.log(v)) - 0.5 * quad / v
        return total

    def log_prior_values(values, alpha):
        lam = _check_priors(alpha)
        eta_l, a_s, b_s = alpha["lkj_shape"], alpha["scale_shape"], alpha["scale_rate"]
        a_n, b_n = alpha["noise_shape"], alpha["noise_rate"]
        u = np.asarray(values["top"], dtype=float)
        prec = np.asarray(values["effect_prec"], dtype=float)
        sign, logdet_lam = np.linalg.slogdet(lam)
        total = -LOG_2PI + 0.5 * logdet_lam - 0.5 * float(u @ lam @ u)
        signp, logdet_prec = np.linalg.slogdet(prec)
        if signp <= 0:
            return -np.inf
        for j in range(k_sites):
            uk = np.asarray(values[f"effects_{j+1}"], dtype=float)
            diff = uk - u
            total += -LOG_2PI + 0.5 * logdet_prec - 0.5 * float(diff @ prec @ diff)
        for j in range(k_sites):
            v = float(np.asarray(values[f"noise_{j+1}"]).reshape(-1)[0])
            if v <= 0:
                return -np.inf
            total += (a_n * np.log(b_n) - gammaln(a_n)
                      - (a_n + 1.0) * np.log(v) - b_n / v)
        cov = np.linalg.inv(prec)
        logdet_cov = -logdet_prec
        diag = np.diag(cov)
        if np.any(diag <= 0):
            return -np.inf
        total += (eta_l - 1.0) * (logdet_cov - float(np.sum(np.log(diag))))
        total += lkj_log_normalizer(eta_l)
        total += float(np.sum(a_s * np.log(b_s) - gammaln(a_s)
                              - (a_s + 1.0) * np.log(diag) - b_s / diag))
        return total

    def prior_block_logpdf(block, point, alpha):
        if block not in ("top", 0):
            raise KeyError(f"prior does not factor across block {block!r}")
        lam = _check_priors(alpha)
        eta = _GM.natural_from_standard(np.zeros(2), np.linalg.inv(lam))
        return _GM.log_density(point, eta)

    def sampler_log_posterior(alpha):
        """Vectorized pointwise log posterior over the sampler coordinates.

        Coordinate order: (mu, tau), site effects (2K), log noise
        variances (K), then the log-Cholesky coordinates of the effect
        precision.  Matches the generic pointwise path exactly; exists
        because samplers evaluate it millions of times.
        """
        lam = _check_priors(alpha)
        eta_l, a_s, b_s = alpha["lkj_shape"], alpha["scale_shape"], alpha["scale_rate"]
        a_n, b_n = alpha["noise_shape"], alpha["noise_rate"]
        sign, logdet_lam = np.linalg.slogdet(lam)
        const = (-LOG_2PI + 0.5 * logdet_lam
                 + k_sites * (a_n * np.log(b_n) - gammaln(a_n))
                 - k_sites * LOG_2PI
                 + lkj_log_normalizer(eta_l)
                 + 2.0 * (a_s * np.log(b_s) - gammaln(a_s))
                 - 0.5 * np.sum(n) * LOG_2PI
                 + 2.0 * np.log(2.0))
        pos_noise = 2 + 2 * k_sites
        pos_chol = pos_noise + k_sites

        import math

        lam11, lam12, lam22 = lam[0, 0], lam[0, 1], lam[1, 1]

        def log_post(zv):
            mu_top, tau_top = zv[0], zv[1]
            uk = zv[2:pos_noise]
            muk, tauk = uk[0::2], uk[1::2]
            logv = zv[pos_noise:pos_chol]
            inv_v = np.exp(-logv)
            z1, l21, z3 = zv[pos_chol], zv[pos_chol + 1], zv[pos_chol + 2]
            l11, l22 = math.exp(z1), math.exp(z3)
            # likelihood
            quad = (syy - 2.0 * (sy * muk + syt * tauk)
                    + n * muk * muk + (2.0 * muk + tauk) * (st * tauk))
            total = -0.5 * float(n @ logv) - 0.5 * float(quad @ inv_v)
            # top-level prior
            total -= 0.5 * (lam11 * mu_top * mu_top
                            + 2.0 * lam12 * mu_top * tau_top
                            + lam22 * tau_top * tau_top)
            # site effects around the top level
            p11, p12, p22 = l11 * l11, l11 * l21, l21 * l21 + l22 * l22
            logdet_prec = 2.0 * (z1 + z3)
            d1, d2 = muk - mu_top, tauk - tau_top
            total += 0.5 * k_sites * logdet_prec - 0.5 * (
                p11 * float(d1 @ d1) + 2.0 * p12 * float(d1 @ d2)
                + p22 * float(d2 @ d2))
            # noise variances
            total += -(a_n + 1.0) * float(np.sum(logv)) - b_n * float(np.sum(inv_v))
            # covariance decomposition terms (C = precision inverse)
            det = p11 * p22 - p12 * p12
            c11, c22 = p22 / det, p11 / det
            log_c11, log_c22 = math.log(c11), math.log(c22)
            total += (eta_l - 1.0) * (-logdet_prec - log_c11 - log_c22)
            total += (-(a_s + 1.0) * (log_c11 + log_c22)
                      - b_s * (1.0 / c11 + 1.0 / c22))
            # log-transform Jacobians: noise logs and log-Cholesky
            total += float(np.sum(logv)) + 3.0 * z1 + 2.0 * z3
            return total + const

        return log_post

    def default_init(alpha):
        lam = _check_priors(alpha)
        a_s, b_s = alpha["scale_shape"], alpha["scale_rate"]
        a_n, b_n = alpha["noise_shape"], alpha["noise_rate"]
        c0 = b_s / max(a_s - 1.0, 0.5)
        m = np.empty(layout.dim)
        m[top:top + 5] = _GM.mean_from_standard(np.zeros(2), np.linalg.inv(lam))
        for j in range(k_sites):
            m[eff[j]:eff[j] + 5] = _GM.mean_from_standard(np.zeros(2), c0 * np.eye(2))
        for j in range(k_sites):
            m[noi[j]:noi[j] + 2] = _IG.mean_from_standard(a_n, b_n)
        dof0 = 7.0
        m[wis:wis + 4] = _WI.mean_from_standard(dof0, np.eye(2) / (c0 * dof0))
        return m

    return ModelSpec(
        name="microcredit", layout=layout, hyperparams=priors,
        expected_log_lik=expected_log_lik, grad_log_lik=grad_log_lik,
        expected_log_prior=expected_log_prior, grad_log_prior=grad_log_prior,
        default_init=default_init, data=data,
        prior_alpha_grad=prior_alpha_grad,
        prior_block_logpdf={"top": prior_block_logpdf},
        log_lik_values=log_lik_values, log_prior_values=log_prior_values,
        sampler_log_posterior=sampler_log_posterior)
