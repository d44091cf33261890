"""The conjugate fixtures' pointwise posterior, derived from their expected
log joint, against the densities the fixtures used to write by hand.

Each fixture's ``sampler_log_posterior`` is the expected log joint at the
statistics of a point plus the log-Jacobian.  The references below are
literal copies of the ``log_lik_values`` / ``log_prior_values`` hooks the
fixtures carried before, composed as the sampling oracle composed them,
and a literal copy of the contaminated-posterior oracle's
likelihood-times-weight path.
"""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from lrvb import oracle
from lrvb.errors import DomainError
from lrvb.expfam import FAMILIES, Family
from lrvb.models import gaussian_target_model, normal_invgamma_model, normal_normal_model
from lrvb.util import tril

from conftest import NN_DATA

_GU = FAMILIES[Family.GAUSSIAN_UNIVARIATE]
LOG_2PI = np.log(2.0 * np.pi)


# ---------------------------------------------------------------------------
# the hand-written hooks, as the fixtures had them
# ---------------------------------------------------------------------------


def normal_normal_hooks(data, noise_var, prior_natural):
    if isinstance(prior_natural, tuple) and prior_natural and prior_natural[0] == "moment":
        _, mu0, var0 = prior_natural
        prior_natural = _GU.natural_from_standard([mu0], [[var0]])
    x = np.asarray(data, dtype=float)
    n, sx, sxx = x.size, float(np.sum(x)), float(np.sum(x ** 2))
    lik_coeff = np.array([sx / noise_var, -0.5 * n / noise_var])
    lik_const = -0.5 * n * LOG_2PI - 0.5 * n * np.log(noise_var) - 0.5 * sxx / noise_var

    def _nat(alpha):
        eta = np.array([alpha["prior_nat_1"], alpha["prior_nat_2"]])
        if eta[1] >= 0:
            raise DomainError(f"prior natural parameters {eta} out of domain")
        return eta

    def log_lik_values(values):
        th = float(np.asarray(values["theta"]).reshape(-1)[0])
        return lik_const + lik_coeff[0] * th + lik_coeff[1] * th ** 2

    def log_prior_values(values, alpha):
        th = float(np.asarray(values["theta"]).reshape(-1)[0])
        eta = _nat(alpha)
        return eta[0] * th + eta[1] * th ** 2 - _GU.log_partition(eta)

    return log_lik_values, log_prior_values


def normal_invgamma_hooks(data):
    x = np.asarray(data, dtype=float)
    n, sx, sxx = x.size, float(np.sum(x)), float(np.sum(x ** 2))

    def log_lik_values(values):
        th = float(np.asarray(values["theta"]).reshape(-1)[0])
        v = float(np.asarray(values["noise_var"]).reshape(-1)[0])
        quad = sxx - 2.0 * sx * th + n * th ** 2
        return -0.5 * n * LOG_2PI - 0.5 * n * np.log(v) - 0.5 * quad / v

    def log_prior_values(values, alpha):
        mu0, k0 = alpha["prior_loc"], alpha["prior_obs"]
        a0, b0 = alpha["prior_shape"], alpha["prior_rate"]
        th = float(np.asarray(values["theta"]).reshape(-1)[0])
        v = float(np.asarray(values["noise_var"]).reshape(-1)[0])
        loc = (-0.5 * LOG_2PI + 0.5 * np.log(k0) - 0.5 * np.log(v)
               - 0.5 * k0 * (th - mu0) ** 2 / v)
        scale = (a0 * np.log(b0) - gammaln(a0)
                 - (a0 + 1.0) * np.log(v) - b0 / v)
        return loc + scale

    return log_lik_values, log_prior_values


def gaussian_target_hooks(d):
    def _unpack(alpha):
        h = np.array([alpha[f"nat_loc_{i+1}"] for i in range(d)])
        lam = np.zeros((d, d))
        for i, j in zip(*tril(d)):
            lam[i, j] = lam[j, i] = alpha[f"info_{i+1}{j+1}"]
        return h, lam

    def log_lik_values(values):
        return 0.0

    def log_prior_values(values, alpha):
        h, lam = _unpack(alpha)
        th = np.array([float(np.asarray(values[f"theta_{i+1}"]).reshape(-1)[0])
                       for i in range(d)])
        sign, logdet = np.linalg.slogdet(lam)
        return float(h @ th) - 0.5 * float(th @ lam @ th) + 0.5 * logdet - 0.5 * d * LOG_2PI

    return log_lik_values, log_prior_values


def reference_target(layout, hooks, alpha):
    """The sampling oracle's composition of the two hooks."""
    log_lik_values, log_prior_values = hooks

    def log_post(zv):
        with np.errstate(over="ignore", invalid="ignore"):
            values, logjac = layout.values_from_sampler(np.atleast_1d(zv))
            lp = log_prior_values(values, alpha)
            if not np.isfinite(lp):
                return -np.inf
            value = log_lik_values(values) + lp + logjac
        return value if np.isfinite(value) else -np.inf

    return log_post


# ---------------------------------------------------------------------------
# derived against hand-written, at random sampler points
# ---------------------------------------------------------------------------


def _assert_targets_agree(model, hooks, points):
    alpha = model.hyperparams
    derived = oracle.sampler_log_target(model)
    reference = reference_target(model.layout, hooks, alpha)
    for zv in points:
        got, want = derived(zv), reference(zv)
        if want == -np.inf:
            assert got == -np.inf, (zv, got)
        else:
            assert np.isfinite(got), (zv, got, want)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (zv, got, want)


DATA = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=DATA, noise_var=st.floats(0.2, 10.0), mu0=st.floats(-5.0, 5.0),
       var0=st.floats(0.1, 10.0), seed=st.integers(0, 2 ** 32 - 1))
def test_normal_normal_matches_hand_written(data, noise_var, mu0, var0, seed):
    prior = ("moment", mu0, var0)
    model = normal_normal_model(data, noise_var, prior)
    points = np.random.default_rng(seed).normal(0.0, 4.0, size=(20, 1))
    _assert_targets_agree(model, normal_normal_hooks(data, noise_var, prior), points)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=DATA, mu0=st.floats(-5.0, 5.0), k0=st.floats(0.1, 10.0),
       a0=st.floats(0.5, 10.0), b0=st.floats(0.1, 10.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_normal_invgamma_matches_hand_written(data, mu0, k0, a0, b0, seed):
    model = normal_invgamma_model(data, mu0, k0, a0, b0)
    rng = np.random.default_rng(seed)
    points = np.column_stack([rng.normal(0.0, 4.0, 20), rng.normal(0.0, 2.0, 20)])
    # the variance past the float range on either side (-inf from both),
    # and a location whose square is near it
    points = np.vstack([points, [[0.5, 720.0], [0.5, -744.0], [1e150, 0.0]]])
    _assert_targets_agree(model, normal_invgamma_hooks(data), points)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_gaussian_target_matches_hand_written(d, seed):
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(d, d))
    info = root @ root.T + 0.5 * np.eye(d)
    model = gaussian_target_model(rng.normal(0.0, 2.0, d), info)
    points = rng.normal(0.0, 3.0, size=(20, d))
    extreme = np.zeros((2, d))
    extreme[0, 0], extreme[1, -1] = 1e200, -1e200  # squares past the float range
    _assert_targets_agree(model, gaussian_target_hooks(d), np.vstack([points, extreme]))


# ---------------------------------------------------------------------------
# the contaminated posterior over the joint, against likelihood times weight
# ---------------------------------------------------------------------------


def reference_contaminated_posterior_mean(model, log_lik_values, contaminant, eps):
    """The oracle's path on a one-block model before it integrated the joint."""
    alpha = model.hyperparams
    fam = FAMILIES[model.layout.blocks[0].family]
    bounds = fam.quad_support()
    name = model.layout.blocks[0].name

    def lik(x):
        return np.exp(log_lik_values({name: x}))

    def prior(x):
        return np.exp(model.prior_block_logpdf[name](x, alpha))

    def mass_and_stats(weight):
        """Integrals of lik * weight times 1 and times each statistic."""
        return oracle.quadrature_expectation(lambda x: lik(x) * weight(x),
                                             lambda x: np.append(1.0, fam.suff_stats(x)),
                                             bounds, tol=1e-6)[0]

    base = mass_and_stats(prior)
    kind, payload = contaminant
    if kind == "dirac":
        x0 = float(payload)
        cont = lik(x0) * np.append(1.0, fam.suff_stats(x0))
    elif kind == "density":
        cont = mass_and_stats(lambda x: np.exp(payload(x)))
    mixed = (1.0 - eps) * base + eps * cont
    return mixed[1:] / mixed[0]


CONTAMINANTS = [
    ("dirac", -1.5), ("dirac", 0.8), ("dirac", 3.0),
    ("density", lambda x: scipy.stats.norm.logpdf(x, 1.0, 2.0)),
    ("density", lambda x: scipy.stats.t.logpdf(x, 3.0, -0.5, 1.5)),
    ("density", lambda x: scipy.stats.laplace.logpdf(x, 2.0, 0.5)),
]


@pytest.mark.parametrize("contaminant", CONTAMINANTS,
                         ids=["dirac-1.5", "dirac0.8", "dirac3", "normal", "t3", "laplace"])
@pytest.mark.parametrize("eps", [0.0, 0.1, 1.0])
def test_contaminated_posterior_matches_likelihood_times_weight(nn_model, contaminant, eps):
    log_lik_values, _ = normal_normal_hooks(NN_DATA, 1.0, ("moment", 0.0, 1.0))
    got = oracle.contaminated_posterior_mean(nn_model, "theta", contaminant, eps)
    want = reference_contaminated_posterior_mean(nn_model, log_lik_values, contaminant, eps)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10
