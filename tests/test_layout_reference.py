"""The grouped Layout against a literal copy of its earlier per-block loops,
kept here as the reference.

The reference walks the blocks one at a time through slices, and for the
multivariate Gaussian and Wishart families it also keeps the earlier
nested-loop forms of ``suff_stat_cov`` and of the d mean / d z Jacobian of
``fit_terms``.
Both sides call the library's ``solve_log_minus_digamma``, so these tests
isolate the batching from the shape solver.
"""

import numpy as np
import pytest

from lrvb import expfam
from lrvb.errors import DomainError
from lrvb.expfam import FAMILIES, Family
from lrvb.mfvb import BlockDef, Layout
from lrvb.models import (build_microcredit_model, gaussian_target_model,
                         normal_invgamma_model, simulate_microcredit)
from lrvb.models.microcredit import MicrocreditParams
from lrvb.util import multitrigamma, tril, vech

REL_TOL = 1e-13


# --- the earlier nested-loop family maps --------------------------------


def _unit(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


def loop_gaussian_suff_stat_cov(fam, eta):
    # Wick's theorem for Gaussian moments up to fourth order.
    mu, sigma = fam.standard_from_natural(eta)
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


def loop_gaussian_mean_jacobian(fam, z):
    mu, sigma = fam.standard_from_unconstrained(z)
    d = mu.size
    chol = np.linalg.cholesky(sigma)
    nstat = fam.stat_dim(d)
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


def loop_wishart_suff_stat_cov(fam, eta):
    dof, scale = fam.standard_from_natural(eta)
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


def loop_wishart_mean_jacobian(fam, z):
    dof, scale = fam.standard_from_unconstrained(z)
    k = scale.shape[0]
    mean_mat = dof * scale
    chol = np.linalg.cholesky(mean_mat)
    mean_inv = np.linalg.inv(mean_mat)
    nstat = fam.stat_dim(k)
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


class _LoopFamily:
    """A library family with the earlier loop forms swapped in."""

    LOOPS = {
        Family.GAUSSIAN_MULTIVARIATE: (loop_gaussian_suff_stat_cov,
                                       loop_gaussian_mean_jacobian),
        Family.WISHART: (loop_wishart_suff_stat_cov, loop_wishart_mean_jacobian),
    }

    def __init__(self, family):
        self._fam = FAMILIES[family]
        cov, jac = self.LOOPS.get(family, (None, None))
        if cov is not None:
            self.suff_stat_cov = lambda eta: cov(self._fam, eta)
            self.mean_jacobian = lambda z: jac(self._fam, z)

    def mean_jacobian(self, z):
        return self._fam.fit_terms(z).jacobian

    def __getattr__(self, name):
        return getattr(self._fam, name)


LOOP_FAMILIES = {family: _LoopFamily(family) for family in Family}


# --- the earlier per-block Layout methods, verbatim but for the lookup ---


def loop_check_mean(self, m):
    m = np.asarray(m, dtype=float)
    if m.shape != (self.dim,):
        raise DomainError(f"mean vector has shape {m.shape}, expected ({self.dim},)")
    for b, mb in zip(self.blocks, self.split(m)):
        LOOP_FAMILIES[b.family].check_mean(mb, b.var_dim)


def loop_natural_vector(self, m):
    out = np.empty(self.dim)
    for i, (b, mb) in enumerate(zip(self.blocks, self.split(m))):
        out[self.slice_of(i)] = LOOP_FAMILIES[b.family].natural_from_mean(mb, b.var_dim)
    return out


def loop_entropy(self, m):
    total = 0.0
    for b, mb in zip(self.blocks, self.split(m)):
        eta = LOOP_FAMILIES[b.family].natural_from_mean(mb, b.var_dim)
        total += expfam.entropy(b.family, eta)
    return total


def loop_suff_stat_cov(self, m):
    out = np.zeros((self.dim, self.dim))
    for i, (b, mb) in enumerate(zip(self.blocks, self.split(m))):
        fam = LOOP_FAMILIES[b.family]
        eta = fam.natural_from_mean(mb, b.var_dim)
        sl = self.slice_of(i)
        out[sl, sl] = fam.suff_stat_cov(eta)
    return out


def loop_unconstrained_from_mean(self, m):
    z = np.empty(self.dim)
    for i, (b, mb) in enumerate(zip(self.blocks, self.split(m))):
        fam = LOOP_FAMILIES[b.family]
        params = fam.standard_from_mean(np.asarray(mb, dtype=float))
        z[self.slice_of(i)] = fam.unconstrained_from_standard(*params)
    return z


def loop_mean_from_unconstrained(self, z):
    m = np.empty(self.dim)
    for i, b in enumerate(self.blocks):
        fam = LOOP_FAMILIES[b.family]
        params = fam.standard_from_unconstrained(z[self.slice_of(i)])
        m[self.slice_of(i)] = fam.mean_from_standard(*params)
    return m


def loop_natural_from_unconstrained(self, z):
    eta = np.empty(self.dim)
    for i, b in enumerate(self.blocks):
        fam = LOOP_FAMILIES[b.family]
        params = fam.standard_from_unconstrained(z[self.slice_of(i)])
        eta[self.slice_of(i)] = fam.natural_from_standard(*params)
    return eta


def loop_entropy_from_unconstrained(self, z):
    total = 0.0
    for i, b in enumerate(self.blocks):
        fam = LOOP_FAMILIES[b.family]
        params = fam.standard_from_unconstrained(z[self.slice_of(i)])
        eta = fam.natural_from_standard(*params)
        m = fam.mean_from_standard(*params)
        total += fam.log_partition(eta) - float(eta @ m)
    return total


def loop_mean_jacobian(self, z):
    jac = np.zeros((self.dim, self.dim))
    for i, b in enumerate(self.blocks):
        sl = self.slice_of(i)
        jac[sl, sl] = LOOP_FAMILIES[b.family].mean_jacobian(z[sl])
    return jac


MEAN_MAPS = ("natural_vector", "entropy", "suff_stat_cov", "unconstrained_from_mean")
Z_MAPS = ("mean_from_unconstrained", "natural_from_unconstrained",
          "entropy_from_unconstrained", "mean_jacobian")
LOOPS = {name: globals()[f"loop_{name}"] for name in MEAN_MAPS + Z_MAPS}


# --- layouts and points --------------------------------------------------


def _microcredit_layout(k_sites):
    truth = MicrocreditParams(mu=1.0, tau=0.5,
                              effect_cov=np.array([[1.0, 0.21], [0.21, 0.49]]),
                              noise_vars=100.0 * (1.0 + 0.1 * (np.arange(k_sites) % 7)))
    model = build_microcredit_model(simulate_microcredit(truth, 50, seed=k_sites))
    return model.layout, model.default_init(model.hyperparams)


def _nig_layout():
    rng = np.random.default_rng(3)
    model = normal_invgamma_model(rng.normal(1.5, 1.2, size=20), 0.0, 1.0, 2.5, 2.0)
    return model.layout, model.default_init(model.hyperparams)


def _gaussian_target_layout():
    model = gaussian_target_model(np.array([0.3, -1.0, 0.5]),
                                  np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.4],
                                            [0.1, -0.4, 1.0]]))
    return model.layout, model.default_init(model.hyperparams)


def _mixed_layout():
    # every family, two variable dimensions of the matrix families, and the
    # members of each group interleaved with the others
    blocks = [BlockDef("a", Family.GAUSSIAN_UNIVARIATE), BlockDef("b", Family.WISHART, 3),
              BlockDef("c", Family.GAMMA), BlockDef("d", Family.GAUSSIAN_MULTIVARIATE, 3),
              BlockDef("e", Family.INVERSE_GAMMA), BlockDef("f", Family.GAUSSIAN_UNIVARIATE),
              BlockDef("g", Family.GAUSSIAN_MULTIVARIATE, 2), BlockDef("h", Family.GAMMA),
              BlockDef("i", Family.WISHART, 2), BlockDef("j", Family.GAUSSIAN_MULTIVARIATE, 3)]
    layout = Layout(blocks)
    return layout, loop_mean_from_unconstrained(layout, np.zeros(layout.dim))


LAYOUTS = {
    "microcredit-7": lambda: _microcredit_layout(7),
    "microcredit-30": lambda: _microcredit_layout(30),
    "normal-invgamma": _nig_layout,
    "gaussian-target-3": _gaussian_target_layout,
    "mixed": _mixed_layout,
}


def random_points(layout, m0, n_points=4, seed=0):
    """Mean vectors and unconstrained vectors scattered around m0."""
    rng = np.random.default_rng(seed)
    z0 = loop_unconstrained_from_mean(layout, m0)
    for _ in range(n_points):
        z = z0 + rng.normal(scale=0.5, size=z0.size)
        yield loop_mean_from_unconstrained(layout, z), z


def rel_err(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@pytest.fixture(scope="module", params=sorted(LAYOUTS))
def layout_and_points(request):
    layout, m0 = LAYOUTS[request.param]()
    return layout, list(random_points(layout, m0))


class TestGroupedLayout:
    def test_groups_cover_every_coordinate_once(self, layout_and_points):
        layout, _ = layout_and_points
        idx = np.concatenate([g[2].ravel() for g in layout.groups])
        assert np.array_equal(np.sort(idx), np.arange(layout.dim))
        assert len(layout.groups) == len({(b.family, b.var_dim) for b in layout.blocks})

    @pytest.mark.parametrize("name", MEAN_MAPS)
    def test_mean_maps_match_block_loops(self, layout_and_points, name):
        layout, points = layout_and_points
        for m, _ in points:
            err = rel_err(getattr(layout, name)(m), LOOPS[name](layout, m))
            assert err <= REL_TOL, (name, err)

    @pytest.mark.parametrize("name", Z_MAPS)
    def test_unconstrained_maps_match_block_loops(self, layout_and_points, name):
        layout, points = layout_and_points
        for _, z in points:
            err = rel_err(getattr(layout, name)(z), LOOPS[name](layout, z))
            assert err <= REL_TOL, (name, err)

    def test_check_mean_raises_on_the_same_inputs(self, layout_and_points):
        layout, points = layout_and_points
        m, _ = points[0]
        layout.check_mean(m)
        loop_check_mean(layout, m)
        rng = np.random.default_rng(1)
        for block in range(len(layout.blocks)):
            sl = layout.slice_of(block)
            for trial in range(6):
                bad = m.copy()
                if trial == 0:
                    bad[sl.start] = np.nan
                elif trial == 1:
                    bad[sl.stop - 1] = -bad[sl.stop - 1] * 10.0 - 10.0
                elif trial == 2:
                    bad[sl.stop - 1] = bad[sl.stop - 1] * 10.0 + 10.0
                else:
                    bad[sl] += rng.normal(scale=3.0, size=sl.stop - sl.start)
                raised = []
                for check in (layout.check_mean, lambda x: loop_check_mean(layout, x)):
                    try:
                        check(bad)
                        raised.append(False)
                    except DomainError:
                        raised.append(True)
                assert raised[0] == raised[1], (layout.blocks[block], trial, bad[sl])
        with pytest.raises(DomainError):
            layout.check_mean(m[:-1])
