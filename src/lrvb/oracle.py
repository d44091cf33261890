"""Independent ground-truth machinery.

Everything in this module recomputes posterior quantities without
touching the linear-response path: exact conjugate updates, adaptive
quadrature over the underlying variables, a seeded random-walk
Metropolis sampler, and a perturb-and-rerun comparator that measures
actual changes in posterior means against the predicted derivatives.
All outputs are reproducible under fixed seeds.  The comparator's mcmc
engine runs its perturbed chain in a child made by ``os.fork()`` while
the base chain runs here, so it needs a platform with ``os.fork``; its
results are bitwise those of running the two chains in turn.
"""

import itertools
import os
import pickle
import signal
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import mfvb
from .errors import (DegenerateChain, DomainError, NotConjugate,
                     QuadratureFailure)
from .expfam import FAMILIES

QUAD_ABS_TOL = 1e-8
MIN_BATCHES = 10  # batch means of a chain; one draw per batch at the least


def sampler_log_target(model):
    """Log posterior plus log-Jacobian over the sampler coordinates: the
    model's one pointwise posterior at its prior, -inf where it is not
    finite.  DomainError for a model without it."""
    _check_pointwise_posterior(model)
    return model.sampler_log_posterior(model.hyperparams)


def _check_pointwise_posterior(model):
    if model.sampler_log_posterior is None:
        raise DomainError(f"model {model.name!r} has no pointwise posterior "
                          "for the sampling and quadrature oracles")


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def quadrature_expectation(density, integrand, bounds, tol=QUAD_ABS_TOL):
    """Integral of density * integrand, a scalar or a vector, over a 1-D or 2-D box.

    ``bounds`` is (lo, hi) or ((lo1, hi1), (lo2, hi2)); infinities allowed.
    Returns (value, error_bound), the largest error estimate of any entry and
    integral, inner or outer; raises QuadratureFailure above ``tol`` (absolute).
    scipy.integrate is imported on the first call, so that a process that
    never integrates does not load it and the scipy.optimize it imports.
    """
    import scipy.integrate

    bounds = np.asarray(bounds, dtype=float)
    errors = []

    def integrate(f, lo, hi, epsrel):
        value, err = scipy.integrate.quad_vec(f, lo, hi, epsabs=tol / 10.0, epsrel=epsrel,
                                              norm="max", limit=200)
        errors.append(err)
        return value

    if bounds.shape == (2,):
        value = integrate(lambda x: density(x) * integrand(x), *bounds, 1e-11)
    elif bounds.shape == (2, 2):
        value = integrate(lambda x: integrate(
            lambda y: density(np.array([x, y])) * integrand(np.array([x, y])),
            *bounds[1], 1e-10), *bounds[0], 1e-10)
    else:
        raise DomainError(f"bounds must describe a 1-D or 2-D box, got {bounds.shape}")
    err = max(errors)
    if not np.all(np.isfinite(value)) or err > tol:
        raise QuadratureFailure(
            f"quadrature error bound {err:.3g} above {tol:g} (value {value})")
    return (float(value) if np.ndim(value) == 0 else value), float(err)


# ---------------------------------------------------------------------------
# exact conjugate posteriors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugatePosterior:
    """Exact posterior expected statistics in the model's mean layout."""

    mean: np.ndarray
    log_evidence: Optional[float] = None


def exact_conjugate_posterior(model):
    """Closed-form posterior moments from the model's ``exact_posterior`` hook."""
    if model.exact_posterior is None:
        raise NotConjugate(f"no closed-form posterior for model {model.name!r}")
    mean, log_evidence = model.exact_posterior(model.hyperparams)
    return ConjugatePosterior(mean=mean, log_evidence=log_evidence)


# ---------------------------------------------------------------------------
# quadrature posteriors (exact, non-conjugate-safe, 1-2 dimensional)
# ---------------------------------------------------------------------------


def quadrature_posterior_mean(model, box=None):
    """Exact posterior expected statistics via quadrature (value dim <= 2).

    Integrates the unnormalized joint over the underlying variables and
    normalizes; independent of both the fit and the conjugate formulas.
    ``box`` holds one (lo, hi) sampler-coordinate range per block; by
    default it is placed around a fit of the model.
    """
    layout = model.layout
    _check_quadrature_supports(model)

    log_joint_z = sampler_log_target(model)
    if box is None:
        box = _sampler_box(layout, mfvb.fit(model).mean)
    # peak-normalize to keep exponentials in range
    grid = _box_grid(box, 41)
    peak = max(log_joint_z(z) for z in grid)

    def density(zv):
        return np.exp(log_joint_z(zv) - peak)

    def one_and_stats(zv):
        values, _ = layout.values_from_sampler(np.atleast_1d(zv))
        return np.append(1.0, layout.suff_stats_of_values(values))

    bounds = box[0] if len(box) == 1 else tuple(box)
    moments, _ = quadrature_expectation(density, one_and_stats, bounds, tol=1e-6)
    return moments[1:] / moments[0]


def _check_quadrature_supports(model):
    if model.layout.value_dim() > 2:
        raise DomainError("quadrature posterior supports at most 2 scalar variables")


def _sampler_box(layout, mean, widen=10.0):
    """Finite integration box around fitted means: one (lo, hi) range of
    each (scalar) block's sampler coordinate."""
    return [FAMILIES[b.family].sampler_box(mb, widen)
            for b, mb in zip(layout.blocks, layout.split(mean))]


def _box_grid(box, n):
    return [np.array(p) for p in itertools.product(
        *(np.linspace(lo, hi, n) for lo, hi in box))]


def contaminated_posterior_mean(model, block, contaminant, eps):
    """Exact posterior statistics when the block prior p is mixed with a
    contaminating distribution at weight eps in [0, 1].

    ``contaminant`` is either ("dirac", point) or ("density", logpdf).
    Only single-block models whose family has a ``quad_support()`` are
    supported.  The integrals run over the block's value x, of the joint
    p(x) l(x): the model's sampler target less its log-Jacobian.  The
    mixture prior makes them explicit:

        E_eps[s] = [(1-eps) Z0 E0[s] + eps Zc Ec[s]] / [(1-eps) Z0 + eps Zc]

    where Z0, E0 integrate the joint and Zc, Ec the joint times p_c/p
    instead: a density contaminant weights it by exp(log p_c - log p),
    and a Dirac at x0 contributes the joint at x0 over p(x0).  Every
    ratio is taken in log space.
    """
    _check_weight(eps)
    layout = model.layout
    if len(layout.blocks) != 1:
        raise DomainError("contaminated posterior oracle supports one block")
    fam = FAMILIES[layout.blocks[0].family]
    bounds = fam.quad_support()
    name = layout.blocks[0].name
    kind, payload = contaminant
    if kind not in ("dirac", "density"):
        raise DomainError(f"unknown contaminant kind {kind!r}")
    log_post = sampler_log_target(model)
    model.factorized_block(block)

    def log_joint(x):
        zv = layout.sampler_from_values({name: x})
        return log_post(zv) - layout.values_from_sampler(zv)[1]

    def log_prior(x):
        return model.prior_block_logpdf[name](x, model.hyperparams)

    def mass_and_stats(log_weight):
        """Integrals of the joint times exp(log_weight), times 1 and times
        each statistic."""
        return quadrature_expectation(lambda x: np.exp(log_joint(x) + log_weight(x)),
                                      lambda x: np.append(1.0, fam.suff_stats(x)),
                                      bounds, tol=1e-6)[0]

    base = mass_and_stats(lambda x: 0.0)
    if kind == "dirac":
        x0 = float(payload)
        cont = np.exp(log_joint(x0) - log_prior(x0)) * np.append(1.0, fam.suff_stats(x0))
    else:
        cont = mass_and_stats(lambda x: payload(x) - log_prior(x))
    mixed = (1.0 - eps) * base + eps * cont
    return mixed[1:] / mixed[0]


def _check_weight(eps):
    if not (np.isfinite(eps) and 0.0 <= eps <= 1.0):
        raise DomainError(f"contamination weight eps must be in [0, 1], got {eps}")


def contaminated_model(model, block, pc_logpdf, eps):
    """ModelSpec whose block prior is (1-eps) p + eps p_c, for refit oracles.

    The contamination correction E_q[log(1 - eps + eps p_c/p)] and its
    mean gradient are evaluated by quadrature over the block's underlying
    variable (over the family's ``quad_support()``), with the log taken as
    logaddexp(log(1 - eps), log eps + log p_c - log p), so a contaminant
    with heavier tails than p does not overflow.  Building the model raises
    DomainError for eps outside [0, 1], a block across which the prior
    does not factor, or a family without ``quad_support()``.  The model
    keeps only the fit's hooks: it has no pointwise posterior and no
    per-block prior.
    """
    _check_weight(eps)
    layout = model.layout
    idx = model.factorized_block(block)
    bdef = layout.blocks[idx]
    fam = FAMILIES[bdef.family]
    bounds = fam.quad_support()
    sl = layout.slice_of(idx)
    name = bdef.name
    with np.errstate(divide="ignore"):  # -inf at eps = 1 and eps = 0
        log_keep, log_eps = np.log1p(-eps), np.log(eps)

    def correction_and_grad(m, alpha):
        mb = np.asarray(m[sl], dtype=float)
        eta = fam.natural_from_mean(mb, bdef.var_dim)
        vblk = fam.suff_stat_cov(eta)

        def qdens(x):
            return np.exp(fam.log_density(x, eta))

        def logterm(x):
            log_ratio = pc_logpdf(x) - model.prior_block_logpdf[name](x, alpha)
            return np.logaddexp(log_keep, log_eps + log_ratio)

        # the correction, then its covariance with each statistic
        moments, _ = quadrature_expectation(
            qdens, lambda x: logterm(x) * np.append(1.0, fam.suff_stats(x) - mb),
            bounds, tol=1e-9)
        return moments[0], np.linalg.solve(vblk, moments[1:])

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
                   exact_posterior=None, sampler_log_posterior=None, prior_block_logpdf={})


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
        if not all(isinstance(n, (int, np.integer)) for n in (self.chain_length,
                                                              self.burn_in)):
            raise DomainError(f"chain_length and burn_in must be integers, got "
                              f"{self.chain_length!r} and {self.burn_in!r}")
        if not (self.burn_in >= 0 and self.chain_length - self.burn_in >= MIN_BATCHES):
            raise DomainError(f"need burn_in >= 0 and at least {MIN_BATCHES} draws "
                              f"after it, got chain_length {self.chain_length} and "
                              f"burn_in {self.burn_in}")
        scales = np.asarray(self.step_scales, dtype=float)
        if not np.all(np.isfinite(scales) & (scales > 0)):
            raise DomainError("step scales must be finite and positive")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise DomainError(f"seed must be a non-negative integer, got {self.seed!r}")


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
    called once per chain with the array the sampler updates in place.  It
    returns ``(resum, propose, accept)``: ``resum()`` is the log target at
    the current x, recomputed from statistics kept per piece of the target
    and evaluated from x's values, and the sampler calls it at the start of
    every sweep, so the rounding of the cached updates cannot accumulate;
    ``propose(j, xj)`` is the log target at x with coordinate j set to xj;
    and ``accept()`` commits the last proposal before the sampler writes xj
    into x.  Its values must equal the full evaluation up to that rounding.
    """
    x = np.array(init, dtype=float)
    d = x.size
    f = float(log_target(x))
    if not np.isfinite(f):
        raise DomainError("log target not finite at the initial point")
    rng = np.random.default_rng(config.seed)
    scales = np.broadcast_to(np.asarray(config.step_scales, dtype=float), (d,)).copy()
    cached = getattr(log_target, "coordinate_moves", None)
    resum, propose, accept = (_full_moves(log_target, x) if cached is None
                              else cached(x))

    def sweep(f, accept_counter):
        steps = (scales * rng.normal(size=d)).tolist()
        logu = np.log(rng.random(d)).tolist()
        # coordinate j changes only at its own move, so x read at the start
        # of the sweep holds its current value
        start = x.tolist()
        if resum is not None:
            f = resum()
        for j in range(d):
            xj = start[j] + steps[j]
            fp = propose(j, xj)
            if fp - f > logu[j]:
                accept()
                x[j], f = xj, fp
                accept_counter[j] += 1
        return f

    # adaptation phase (discarded)
    window = 50
    acc = [0] * d
    for sweep_idx in range(adapt_sweeps):
        f = sweep(f, acc)
        if (sweep_idx + 1) % window == 0:
            rate = np.array(acc) / window
            scales *= np.exp(np.clip(rate - 0.44, -0.5, 0.5))
            acc = [0] * d

    kept = config.chain_length - config.burn_in
    draws = np.empty((kept, d))
    acc_total = [0] * d
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
    """(None, propose, accept) of a plain log target: the sampler carries f
    between sweeps, every proposal is one full evaluation at a copy of x,
    and accepting needs no bookkeeping."""
    def propose(j, xj):
        prop = x.copy()
        prop[j] = xj
        return float(log_target(prop))

    return None, propose, lambda: None


def _beside_forked_child(here, there):
    """(here(), there()), with there() run in a child made by os.fork()
    while this process runs here().

    The child pickles its result, or the exception it raised, and the
    warnings it caught into a pipe, then leaves with os._exit: it runs no
    atexit handler and flushes no stdio buffer it inherited.  This process
    reads the pipe to EOF, reaps the child and issues the child's warnings
    after its own.  An exception of here() wins over one of there(), as
    when the two run in turn, and any exception here, KeyboardInterrupt
    included, kills and reaps the child.  Processes, not threads: calls
    into OpenBLAS from threads of one process have not been shown safe."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        _child(there, read_fd, write_fd)  # does not return
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            mine = here()
            payload = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:  # it did not answer in full: killed, say by the OOM killer
        raise RuntimeError(f"the forked child ended with exit code {code}")
    ok, theirs, caught = pickle.loads(payload)
    for message, category, filename, lineno in caught:
        warnings.warn_explicit(message, category, filename, lineno)
    if not ok:
        raise theirs
    return mine, theirs


def _child(there, read_fd, write_fd):
    """The forked child's whole life: run there(), send (True, result,
    warnings) or (False, exception, warnings) down write_fd, and leave
    without cleaning up."""
    status = 1
    try:
        os.close(read_fd)
        with warnings.catch_warnings(record=True) as caught:
            try:
                outcome = True, there()
            except BaseException as exc:
                outcome = False, exc
        shown = [(w.message, w.category, w.filename, w.lineno) for w in caught]
        try:
            payload = pickle.dumps((*outcome, shown), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            payload = pickle.dumps((False, RuntimeError(
                f"the forked child's outcome does not pickle: {exc}"), []))
        view = memoryview(payload)
        while view:
            view = view[os.write(write_fd, view):]
        status = 0
    finally:
        os._exit(status)


def batch_means_se(series):
    """Batch-means standard error and implied effective sample size."""
    series = np.asarray(series, dtype=float)
    if series.ndim == 1:
        series = series[:, None]
    n = series.shape[0]
    nb = max(MIN_BATCHES, int(np.sqrt(n)))
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
    """DomainError unless the engine is known and supports the model (the
    sampling and quadrature engines need a pointwise posterior), the
    direction's coefficients are finite and not all zero, and the step,
    when given, is finite and non-zero."""
    if engine not in ("vb", "quadrature", "mcmc"):
        raise DomainError(f"unknown engine {engine!r}")
    if engine == "quadrature":
        _check_quadrature_supports(model)
    if engine != "vb":
        _check_pointwise_posterior(model)
    coefs = np.array(list(direction.values()), dtype=float)
    if not (np.all(np.isfinite(coefs)) and np.any(coefs)):
        raise DomainError("direction coefficients must be finite and not all zero")
    if step is not None and not (np.isfinite(step) and step != 0):
        raise DomainError(f"step must be finite and non-zero, got {step}")


def perturb_and_rerun(model, direction, engine, step=None, sol=None, sys=None,
                      mcmc_config=None, mcmc_adapt=500, fit_opts=None):
    """Compare predicted sensitivity against an actual rerun.

    ``direction`` is a {hyperparameter: coefficient} dict.  ``engine`` is
    one of "vb" (refit at the perturbed prior), "quadrature" (exact
    posterior statistics via integration), or "mcmc" (two coupled chains
    sharing one seed).  Forward differences with step ``step`` (default
    1% of the dominant hyperparameter magnitude); the Vb and Quadrature
    engines Richardson-extrapolate with a halved step.  ``sol`` and ``sys``
    must come from ``model``; a rerun at t fits, integrates or samples
    ``replace(model, hyperparams=model.hyperparams.perturbed(direction, t))``.

    The mcmc engine runs the perturbed chain in a child made by
    ``os.fork()`` (so it needs ``os.fork``) while this process runs the
    base chain.  Each chain is a deterministic function of its target, the
    start point and the seeded config, so the results are bitwise those of
    running the two in turn.  Where both chains raise, the base chain's
    error is the one raised, as in that order.
    """
    from . import linear_response, robustness

    check_rerun_inputs(model, engine, direction, step)
    alpha = model.hyperparams
    alpha.check_names(direction)
    if step is None:
        mags = [abs(alpha[k]) for k in direction if alpha[k] != 0]
        scale = max(mags) if mags else 1.0
        step = 0.01 * scale / max(abs(v) for v in direction.values())
    if sol is None:
        sol = mfvb.fit(model, opts=fit_opts)
    if sys is None:
        sys = linear_response.build_system(model, sol)
    predicted = robustness.hyperparam_sensitivity(model, sol, sys, direction)
    names = tuple(model.layout.coord_names())
    # the quadrature engine integrates every rerun over one box around sol
    box = _sampler_box(model.layout, sol.mean) if engine == "quadrature" else None

    def at(t):
        return replace(model, hyperparams=alpha.perturbed(direction, t))

    def means_at(t):
        if engine == "vb":
            return mfvb.fit(at(t), init=sol.mean, opts=fit_opts).mean
        return quadrature_posterior_mean(at(t), box=box)

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

        def chain(m):
            run = metropolis_sample(sampler_log_target(m), z0, mcmc_config,
                                    adapt_sweeps=mcmc_adapt)
            return (layout.suff_stats_of_sampler_matrix(run.draws),
                    {"acceptance_rate": run.acceptance_rate,
                     "min_ess": float(np.min(run.ess))})

        (stats_base, base), (stats_pert, pert) = _beside_forked_child(
            lambda: chain(model), lambda: chain(at(step)))
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
