"""The site-vectorised microcredit model against a literal copy of its
earlier per-site loop implementation, kept here as the reference."""

import numpy as np
import pytest
from scipy.special import gammaln

from lrvb.expfam import FAMILIES, Family
from lrvb.mfvb import BlockDef, Layout
from lrvb.models import build_microcredit_model, simulate_microcredit
from lrvb.models.microcredit import (DEFAULT_PRIORS, LOG_2PI, MicrocreditParams,
                                     _check_priors, lkj_log_normalizer)
from lrvb.util import digamma, multitrigamma, tril, trigamma, unvech, vech, vech_dup

_GM = FAMILIES[Family.GAUSSIAN_MULTIVARIATE]
_IG = FAMILIES[Family.INVERSE_GAMMA]
_WI = FAMILIES[Family.WISHART]

REL_TOL = 1e-13


def loop_reference(data):
    """The model terms as per-site Python loops over offset lists."""
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
    KW = 2

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

    def _wishart_params(m):
        return _WI.standard_from_mean(np.asarray(m[wis:wis + 4], dtype=float))

    def _forward_jacobian(dof, scale):
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

    def expected_log_prior(m, alpha):
        lam = _check_priors(alpha)
        eta_l, a_s, b_s = alpha["lkj_shape"], alpha["scale_shape"], alpha["scale_rate"]
        a_n, b_n = alpha["noise_shape"], alpha["noise_rate"]

        sign, logdet_lam = np.linalg.slogdet(lam)
        u2 = unvech(m[top + 2:top + 5], 2)
        total = -LOG_2PI + 0.5 * logdet_lam - 0.5 * float(np.sum(lam * u2))

        a_mat = unvech(m[wis:wis + 3], 2)
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

    return dict(layout=layout, expected_log_lik=expected_log_lik,
                grad_log_lik=grad_log_lik, expected_log_prior=expected_log_prior,
                grad_log_prior=grad_log_prior, prior_alpha_grad=prior_alpha_grad,
                log_lik_values=log_lik_values, log_prior_values=log_prior_values,
                default_init=default_init)


def assert_close(actual, expected, what):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape, what
    scale = max(np.max(np.abs(expected)), np.finfo(float).tiny)
    err = np.max(np.abs(actual - expected)) / scale
    assert err <= REL_TOL, f"{what}: relative error {err:.3g}"


@pytest.fixture(scope="module", params=[7, 30])
def pair(request):
    k = request.param
    truth = MicrocreditParams(1.0, 0.5, np.array([[1.0, 0.21], [0.21, 0.49]]),
                              100.0 * (1.0 + 0.1 * np.arange(k)))
    data = simulate_microcredit(truth, 40, seed=k)
    return build_microcredit_model(data), loop_reference(data)


def random_means(model, rng, count=4):
    """Valid mean vectors scattered around the prior initialisation."""
    layout = model.layout
    z0 = layout.unconstrained_from_mean(model.default_init(model.hyperparams))
    return [layout.mean_from_unconstrained(z0 + 0.5 * rng.normal(size=z0.size))
            for _ in range(count)]


def random_values(model, rng, count=6):
    layout = model.layout
    z0 = layout.sampler_from_values(
        layout.representative_values(model.default_init(model.hyperparams)))
    return [layout.values_from_sampler(z0 + 0.3 * rng.normal(size=z0.size))[0]
            for _ in range(count)]


def test_layout_matches(pair):
    model, ref = pair
    assert model.layout.blocks == ref["layout"].blocks


def test_default_init_matches(pair):
    model, ref = pair
    alpha = model.hyperparams
    assert_close(model.default_init(alpha), ref["default_init"](alpha), "default_init")


def test_objective_terms_match(pair):
    model, ref = pair
    alpha = model.hyperparams
    for m in random_means(model, np.random.default_rng(1)):
        assert_close(model.expected_log_lik(m), ref["expected_log_lik"](m),
                     "expected_log_lik")
        assert_close(model.grad_log_lik(m), ref["grad_log_lik"](m), "grad_log_lik")
        assert_close(model.expected_log_prior(m, alpha),
                     ref["expected_log_prior"](m, alpha), "expected_log_prior")
        assert_close(model.grad_log_prior(m, alpha), ref["grad_log_prior"](m, alpha),
                     "grad_log_prior")


def test_prior_alpha_grad_matches(pair):
    model, ref = pair
    alpha = model.hyperparams
    for m in random_means(model, np.random.default_rng(2)):
        for name in DEFAULT_PRIORS.names:
            d = {name: 1.0}
            assert_close(model.prior_alpha_grad(m, alpha, d),
                         ref["prior_alpha_grad"](m, alpha, d), name)


def test_pointwise_log_densities_match(pair):
    model, ref = pair
    alpha = model.hyperparams
    for values in random_values(model, np.random.default_rng(3)):
        assert_close(model.log_lik_values(values), ref["log_lik_values"](values),
                     "log_lik_values")
        assert_close(model.log_prior_values(values, alpha),
                     ref["log_prior_values"](values, alpha), "log_prior_values")
