"""Independent ground-truth machinery.

Everything in this module recomputes posterior quantities without
touching the linear-response path: exact conjugate updates, adaptive
quadrature over the underlying variables, a seeded random-walk
Metropolis sampler, and a perturb-and-rerun comparator that measures
actual changes in posterior means against the predicted derivatives.
All outputs are reproducible under fixed seeds.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.integrate

from . import mfvb
from .errors import (DegenerateChain, DomainError, NotConjugate,
                     QuadratureFailure)
from .expfam import FAMILIES, Family
from .util import digamma

QUAD_ABS_TOL = 1e-8


def sampler_log_target(model, alpha):
    """Log posterior plus log-Jacobian over the sampler coordinates: the
    model's ``sampler_log_posterior(alpha)`` when it has one, else
    ``log_lik_values`` + ``log_prior_values``, -inf where the latter or
    the sum is not finite.  A value that overflows the float range makes
    the sum -inf without a warning."""
    if model.sampler_log_posterior is not None:
        return model.sampler_log_posterior(alpha)
    layout = model.layout

    def log_post(zv):
        with np.errstate(over="ignore", invalid="ignore"):
            values, logjac = layout.values_from_sampler(np.atleast_1d(zv))
            lp = model.log_prior_values(values, alpha)
            if not np.isfinite(lp):
                return -np.inf
            value = model.log_lik_values(values) + lp + logjac
        return value if np.isfinite(value) else -np.inf

    return log_post


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def quadrature_expectation(density, integrand, bounds, tol=QUAD_ABS_TOL):
    """Integral of density * integrand over a 1-D or 2-D box.

    ``bounds`` is (lo, hi) or ((lo1, hi1), (lo2, hi2)); infinities allowed.
    Returns (value, error_bound); raises QuadratureFailure when the error
    estimate exceeds ``tol`` (absolute).
    """
    bounds = np.asarray(bounds, dtype=float)
    if bounds.shape == (2,):
        value, err = scipy.integrate.quad(
            lambda x: density(x) * integrand(x), bounds[0], bounds[1],
            limit=200, epsabs=tol / 10.0, epsrel=1e-11)
    elif bounds.shape == (2, 2):
        value, err = scipy.integrate.dblquad(
            lambda y, x: density(np.array([x, y])) * integrand(np.array([x, y])),
            bounds[0, 0], bounds[0, 1], bounds[1, 0], bounds[1, 1],
            epsabs=tol / 10.0, epsrel=1e-10)
    else:
        raise DomainError(f"bounds must describe a 1-D or 2-D box, got {bounds.shape}")
    if not np.isfinite(value) or err > tol:
        raise QuadratureFailure(
            f"quadrature error bound {err:.3g} above {tol:g} (value {value:.6g})")
    return float(value), float(err)


def block_quad_bounds(family, center=None, spread=None, widen=12.0):
    """Integration box for one block's underlying variable."""
    if family in (Family.GAMMA, Family.INVERSE_GAMMA):
        return (0.0, np.inf)
    if family is Family.GAUSSIAN_UNIVARIATE:
        if center is None:
            return (-np.inf, np.inf)
        return (center - widen * spread, center + widen * spread)
    if family is Family.GAUSSIAN_MULTIVARIATE:
        if center is None:
            raise DomainError("2-D Gaussian quadrature needs a finite box")
        lo = center - widen * spread
        hi = center + widen * spread
        return ((lo[0], hi[0]), (lo[1], hi[1]))
    raise DomainError(f"no quadrature support for family {family}")


# ---------------------------------------------------------------------------
# exact conjugate posteriors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugatePosterior:
    """Exact posterior expected statistics in the model's mean layout."""

    mean: np.ndarray
    log_evidence: Optional[float] = None


def exact_conjugate_posterior(model, alpha=None):
    """Closed-form posterior moments from the model's ``exact_posterior`` hook."""
    if model.exact_posterior is None:
        raise NotConjugate(f"no closed-form posterior for model {model.name!r}")
    mean, log_evidence = model.exact_posterior(model.resolve_alpha(alpha))
    return ConjugatePosterior(mean=mean, log_evidence=log_evidence)


# ---------------------------------------------------------------------------
# quadrature posteriors (exact, non-conjugate-safe, 1-2 dimensional)
# ---------------------------------------------------------------------------


def quadrature_posterior_mean(model, alpha=None, box=None):
    """Exact posterior expected statistics via quadrature (value dim <= 2).

    Integrates the unnormalized joint over the underlying variables and
    normalizes; independent of both the fit and the conjugate formulas.
    """
    alpha = model.resolve_alpha(alpha)
    layout = model.layout
    _check_quadrature_supports(model)

    log_joint_z = sampler_log_target(model, alpha)
    if box is None:
        box = _sampler_box(model, alpha)
    # peak-normalize to keep exponentials in range
    grid = _box_grid(box, 41)
    peak = max(log_joint_z(z) for z in grid)

    def density(zv):
        return np.exp(log_joint_z(zv) - peak)

    bounds = box[0] if len(box) == 1 else tuple(box)
    z_norm, _ = quadrature_expectation(density, lambda z: 1.0, bounds, tol=1e-6)

    def stat(zv, c):
        values, _ = layout.values_from_sampler(np.atleast_1d(zv))
        return layout.suff_stats_of_values(values)[c]

    return np.array([quadrature_expectation(density, lambda z, c=c: stat(z, c),
                                            bounds, tol=1e-6)[0]
                     for c in range(layout.dim)]) / z_norm


def _check_quadrature_supports(model):
    if model.layout.value_dim() > 2:
        raise DomainError("quadrature posterior supports at most 2 scalar variables")


def _sampler_box(model, alpha, widen=10.0):
    """Finite integration box from a quick fit of the model."""
    sol = mfvb.fit(model, alpha=alpha)
    layout = model.layout
    lo, hi = [], []
    for b in layout.blocks:
        fam = FAMILIES[b.family]
        mb = sol.mean[layout.slice_of(b.name)]
        params = fam.standard_from_mean(np.asarray(mb, dtype=float))
        if b.family is Family.GAUSSIAN_UNIVARIATE:
            mu, var = params
            lo.append(mu - widen * np.sqrt(var))
            hi.append(mu + widen * np.sqrt(var))
        elif b.family in (Family.GAMMA, Family.INVERSE_GAMMA):
            # sampler coordinate is log x
            shape, rate = params
            sign = 1.0 if b.family is Family.GAMMA else -1.0
            center = sign * (digamma(shape) - np.log(rate))
            sd = np.sqrt(max(1.0 / shape, 0.05))
            lo.append(center - widen * sd)
            hi.append(center + widen * sd)
        else:
            raise DomainError(f"no quadrature box for family {b.family}")
    return list(zip(lo, hi))


def _box_grid(box, n):
    return [np.array(p) for p in itertools.product(
        *(np.linspace(lo, hi, n) for lo, hi in box))]


def contaminated_posterior_mean(model, block, contaminant, eps, alpha=None):
    """Exact posterior statistics when the block prior is mixed with a
    contaminating distribution at weight eps.

    ``contaminant`` is either ("dirac", point) or ("density", logpdf).
    Only single-Gaussian-block models (value dim 1) are supported; the
    mixture prior makes the one-dimensional integrals explicit:

        E_eps[s] = [(1-eps) Z0 E0[s] + eps Zc Ec[s]] / [(1-eps) Z0 + eps Zc]

    where Z0, E0 use the base prior and Zc, Ec reweight by the
    contaminant instead.
    """
    alpha = model.resolve_alpha(alpha)
    layout = model.layout
    if len(layout.blocks) != 1 or layout.blocks[0].family is not Family.GAUSSIAN_UNIVARIATE:
        raise DomainError("contaminated posterior oracle supports one scalar Gaussian block")
    name = layout.blocks[0].name
    if block not in (name, 0):
        raise DomainError(f"unknown block {block!r}")

    def lik(x):
        return np.exp(model.log_lik_values({name: x}))

    def prior(x):
        return np.exp(model.prior_block_logpdf[name](name, x, alpha))

    fam = FAMILIES[Family.GAUSSIAN_UNIVARIATE]

    def mass_and_stats(weight):
        """Integrals of lik * weight times 1 and times each statistic."""
        return [quadrature_expectation(lambda x: lik(x) * weight(x), f,
                                       (-np.inf, np.inf), tol=1e-6)[0]
                for f in (lambda x: 1.0, lambda x: fam.suff_stats(x)[0, 0],
                          lambda x: fam.suff_stats(x)[0, 1])]

    z0, *s0 = mass_and_stats(prior)
    kind, payload = contaminant
    if kind == "dirac":
        x0 = float(payload)
        zc = lik(x0)
        sc = [zc * fam.suff_stats(x0)[0, c] for c in range(2)]
    elif kind == "density":
        zc, *sc = mass_and_stats(lambda x: np.exp(payload(x)))
    else:
        raise DomainError(f"unknown contaminant kind {kind!r}")
    denom = (1.0 - eps) * z0 + eps * zc
    return np.array([((1.0 - eps) * s0[c] + eps * sc[c]) / denom for c in range(2)])


def contaminated_model(model, block, pc_logpdf, eps):
    """ModelSpec whose block prior is (1-eps) p + eps p_c, for refit oracles.

    The contamination correction E_q[log(1 - eps + eps p_c/p)] and its
    mean gradient are evaluated by quadrature over the block's underlying
    variable (supported for scalar Gaussian and positive-scalar blocks).
    """
    from dataclasses import replace

    layout = model.layout
    idx = block if isinstance(block, int) else layout.block_index(block)
    bdef = layout.blocks[idx]
    if bdef.family is Family.GAUSSIAN_MULTIVARIATE or bdef.family is Family.WISHART:
        raise DomainError("contaminated refits support scalar blocks only")
    fam = FAMILIES[bdef.family]
    sl = layout.slice_of(idx)
    name = bdef.name

    def correction_and_grad(m, alpha):
        mb = np.asarray(m[sl], dtype=float)
        eta = fam.natural_from_mean(mb, bdef.var_dim)
        vblk = fam.suff_stat_cov(eta)

        def qdens(x):
            return np.exp(fam.log_density(x, eta))

        def logterm(x):
            ratio = np.exp(pc_logpdf(x) - model.prior_block_logpdf[name](name, x, alpha))
            return np.log1p(eps * (ratio - 1.0))

        bounds = block_quad_bounds(bdef.family)
        val, _ = quadrature_expectation(qdens, logterm, bounds, tol=1e-9)
        gblk = [quadrature_expectation(
            qdens, lambda x, c=c: (fam.suff_stats(x)[0, c] - mb[c]) * logterm(x),
            bounds, tol=1e-9)[0] for c in range(mb.size)]
        return val, np.linalg.solve(vblk, gblk)

    def expected_log_prior(m, alpha):
        val, _ = correction_and_grad(m, alpha)
        return model.expected_log_prior(m, alpha) + val

    def grad_log_prior(m, alpha):
        _, gblk = correction_and_grad(m, alpha)
        g = model.grad_log_prior(m, alpha).copy()
        g[sl] += gblk
        return g

    return replace(model, name=model.name + "+contaminated",
                   expected_log_prior=expected_log_prior,
                   grad_log_prior=grad_log_prior,
                   prior_alpha_grad=None, exact_posterior=None)


# ---------------------------------------------------------------------------
# random-walk Metropolis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McmcConfig:
    chain_length: int
    burn_in: int
    step_scales: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (self.chain_length > self.burn_in >= 0):
            raise DomainError("need chain_length > burn_in >= 0")
        if np.any(np.asarray(self.step_scales) <= 0):
            raise DomainError("step scales must be positive")


@dataclass(frozen=True)
class McmcResult:
    draws: np.ndarray
    means: np.ndarray
    standard_errors: np.ndarray
    ess: np.ndarray
    acceptance_rate: float
    scales: np.ndarray


def metropolis_sample(log_target, init, config, adapt_sweeps=500):
    """Random-walk Metropolis with per-coordinate Gaussian proposals.

    One sweep updates each coordinate in turn.  Step scales adapt toward
    ~44% per-coordinate acceptance during a pre-run phase and are then
    frozen so the recorded chain is a valid Markov chain.  The proposal
    and acceptance random streams are drawn per coordinate on every
    sweep, so two runs with the same seed but different targets stay
    coupled draw-by-draw.

    ``log_target`` maps a point to its log density.  A plain callable is
    evaluated in full at a copy of the point for every proposal.  A target
    may also carry cached moves, as an attribute ``coordinate_moves(x)``
    that returns ``(f, propose, accept)``: f is the log target at x,
    ``propose(j, xj)`` is the log target at x with coordinate j set to xj,
    and ``accept()`` commits the last proposal before the sampler writes xj
    into x.  Each sweep starts from a fresh ``coordinate_moves(x)``, whose
    statistics are built from scratch, so the rounding of the cached
    updates cannot accumulate; its values must equal the full evaluation
    up to that rounding.
    """
    x = np.array(init, dtype=float)
    d = x.size
    f = float(log_target(x))
    if not np.isfinite(f):
        raise DomainError("log target not finite at the initial point")
    rng = np.random.default_rng(config.seed)
    scales = np.broadcast_to(np.asarray(config.step_scales, dtype=float), (d,)).copy()
    cached = getattr(log_target, "coordinate_moves", None)

    def sweep(f, accept_counter):
        steps = (scales * rng.normal(size=d)).tolist()
        logu = np.log(rng.random(d)).tolist()
        if cached is None:
            propose, accept = _full_moves(log_target, x)
        else:
            f, propose, accept = cached(x)
        for j in range(d):
            xj = x.item(j) + steps[j]
            fp = propose(j, xj)
            if fp - f > logu[j]:
                accept()
                x[j], f = xj, fp
                accept_counter[j] += 1
        return f

    # adaptation phase (discarded)
    window = 50
    acc = np.zeros(d)
    for sweep_idx in range(adapt_sweeps):
        f = sweep(f, acc)
        if (sweep_idx + 1) % window == 0:
            rate = acc / window
            scales *= np.exp(np.clip(rate - 0.44, -0.5, 0.5))
            acc[:] = 0.0

    kept = config.chain_length - config.burn_in
    draws = np.empty((kept, d))
    acc_total = np.zeros(d)
    for it in range(config.chain_length):
        f = sweep(f, acc_total)
        if it >= config.burn_in:
            draws[it - config.burn_in] = x
    rate = float(np.mean(acc_total) / config.chain_length)
    if rate < 0.01 or rate > 0.99:
        raise DegenerateChain(f"acceptance rate {rate:.4f} outside [0.01, 0.99]")
    means = draws.mean(axis=0)
    se, ess = batch_means_se(draws)
    return McmcResult(draws=draws, means=means, standard_errors=se, ess=ess,
                      acceptance_rate=rate, scales=scales)


def _full_moves(log_target, x):
    """(propose, accept) of a plain log target: every proposal is one full
    evaluation at a copy of x, and accepting needs no bookkeeping."""
    def propose(j, xj):
        prop = x.copy()
        prop[j] = xj
        return float(log_target(prop))

    return propose, lambda: None


def batch_means_se(series):
    """Batch-means standard error and implied effective sample size."""
    series = np.asarray(series, dtype=float)
    if series.ndim == 1:
        series = series[:, None]
    n = series.shape[0]
    nb = max(10, int(np.sqrt(n)))
    size = n // nb
    trimmed = series[:nb * size].reshape(nb, size, -1)
    bm = trimmed.mean(axis=1)
    se = bm.std(axis=0, ddof=1) / np.sqrt(nb)
    var = series.var(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ess = np.where(se > 0, var / se ** 2, float(n))
    return se, ess


# ---------------------------------------------------------------------------
# predicted-versus-actual comparisons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonResult:
    """Predicted (derivative) vs actual (rerun) per-unit-step mean changes."""

    names: tuple
    predicted_deltas: np.ndarray
    actual_deltas: np.ndarray
    mc_standard_errors: np.ndarray
    slope: float
    correlation: float
    step: float
    # mcmc engine only: {"base" | "perturbed": {"acceptance_rate", "min_ess"}}
    # of its two chains, min_ess over the sampler coordinates
    chains: Optional[dict] = None

    def restricted(self, names):
        idx = [self.names.index(n) for n in names]
        pred, act = self.predicted_deltas[idx], self.actual_deltas[idx]
        slope, corr = _slope_and_correlation(pred, act)
        return ComparisonResult(tuple(names), pred, act,
                                self.mc_standard_errors[idx], slope, corr,
                                self.step, self.chains)


def _slope_and_correlation(predicted, actual):
    """Through-origin slope and Pearson correlation; NaN if undefined or overflowed."""
    with np.errstate(all="ignore"):
        denom = float(predicted @ predicted)
        slope = float(predicted @ actual) / denom if denom > 0 else np.nan
        if predicted.size < 2 or np.std(predicted) == 0 or np.std(actual) == 0:
            corr = np.nan
        else:
            corr = float(np.corrcoef(predicted, actual)[0, 1])
    return slope, corr


def check_rerun_inputs(model, engine, direction, step=None):
    """DomainError unless the engine is known and supports the model, the
    direction's coefficients are finite and not all zero, and the step,
    when given, is finite and non-zero."""
    if engine not in ("vb", "quadrature", "mcmc"):
        raise DomainError(f"unknown engine {engine!r}")
    if engine == "quadrature":
        _check_quadrature_supports(model)
    coefs = np.array(list(direction.values()), dtype=float)
    if not (np.all(np.isfinite(coefs)) and np.any(coefs)):
        raise DomainError("direction coefficients must be finite and not all zero")
    if step is not None and not (np.isfinite(step) and step != 0):
        raise DomainError(f"step must be finite and non-zero, got {step}")


def perturb_and_rerun(model, direction, engine, step=None, sol=None, sys=None,
                      alpha=None, mcmc_config=None, mcmc_adapt=500,
                      fit_opts=None):
    """Compare predicted sensitivity against an actual rerun.

    ``direction`` is a {hyperparameter: coefficient} dict.  ``engine`` is
    one of "vb" (refit at the perturbed prior), "quadrature" (exact
    posterior statistics via integration), or "mcmc" (two coupled chains
    sharing one seed).  Forward differences with step ``step`` (default
    1% of the dominant hyperparameter magnitude); the Vb and Quadrature
    engines Richardson-extrapolate with a halved step.
    """
    from . import linear_response, robustness

    check_rerun_inputs(model, engine, direction, step)
    alpha = model.resolve_alpha(alpha)
    if step is None:
        mags = [abs(alpha[k]) for k in direction if alpha[k] != 0]
        scale = max(mags) if mags else 1.0
        step = 0.01 * scale / max(abs(v) for v in direction.values())
    if sol is None:
        sol = mfvb.fit(model, alpha=alpha, opts=fit_opts)
    if sys is None:
        sys = linear_response.build_system(model, sol, alpha=alpha)
    predicted = robustness.hyperparam_sensitivity(model, sol, sys, direction,
                                                  alpha=alpha)
    names = tuple(model.layout.coord_names())

    def means_at(t):
        a = alpha.perturbed(direction, t)
        if engine == "vb":
            return mfvb.fit(model, init=sol.mean, alpha=a, opts=fit_opts).mean
        return quadrature_posterior_mean(model, alpha=a)

    chains = None
    if engine != "mcmc":
        base, at_step, at_half = means_at(0.0), means_at(step), means_at(step / 2.0)
        # a subnormal step halves to 0 and a huge one overflows: the
        # finiteness check below reports either
        with np.errstate(all="ignore"):
            d1 = (at_step - base) / step
            d2 = (at_half - base) / (step / 2.0)
            actual = 2.0 * d2 - d1
            se = np.maximum(np.abs(d2 - d1), 1e-300)
    else:
        if mcmc_config is None:
            mcmc_config = McmcConfig(chain_length=20_000, burn_in=5_000, seed=0)
        layout = model.layout
        z0 = layout.sampler_from_values(layout.representative_values(sol.mean))

        def chain(a):
            run = metropolis_sample(sampler_log_target(model, a), z0, mcmc_config,
                                    adapt_sweeps=mcmc_adapt)
            return (layout.suff_stats_of_sampler_matrix(run.draws),
                    {"acceptance_rate": run.acceptance_rate,
                     "min_ess": float(np.min(run.ess))})

        (stats_base, base), (stats_pert, pert) = (
            chain(a) for a in (alpha, alpha.perturbed(direction, step)))
        chains = {"base": base, "perturbed": pert}
        diff = (stats_pert - stats_base) / step
        if not np.any(diff):
            raise DegenerateChain(
                f"the base and perturbed chains made identical moves at step "
                f"{step:g}, so every sampled difference is zero; use a larger "
                "step (--step on the command line)")
        actual = diff.mean(axis=0)
        se, _ = batch_means_se(diff)
    if not (np.all(np.isfinite(actual)) and np.all(np.isfinite(se))):
        raise DomainError(f"the rerun mean changes are not finite at step {step:g}")

    slope, corr = _slope_and_correlation(predicted, actual)
    return ComparisonResult(names=names, predicted_deltas=predicted,
                            actual_deltas=actual, mc_standard_errors=se,
                            slope=slope, correlation=corr, step=float(step),
                            chains=chains)
