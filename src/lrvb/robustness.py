"""Local prior-robustness measures at a converged fit.

Four measures, all priced through one factorized linear-response solve:

* hyperparameter sensitivity -- derivative of every posterior mean with
  respect to a direction in hyperparameter space;
* contamination sensitivity -- derivative under mixing a block's prior
  with a contaminating distribution at weight eps;
* influence function -- the contamination derivative for a point mass,
  as a closed form in the fitted density ratio;
* worst-case perturbation -- the extremal contaminating density of unit
  p-norm size and the bound it attains.

Every query takes the density ratio q(x)/p(x) from one array expression
over all of its points.  The influence right-hand side of a point is
non-zero only in the d location rows of its block, so a query solves
nothing per point: the system memoizes (I - VH)^-1 on those d columns
(one solve per system and block) and the block's fitted natural
parameters, and each row is a sum of d scaled columns.  A single point
is the grid of one point.

Conventions.  The influence-function column carries the displacement of
the perturbed block's plain location statistics (Gaussian blocks), with
the block's higher-order moment coordinates zeroed, so the influence of
a point mass at the fitted mean is identically zero; Dirac contamination
delegates to the same construction.  Density contamination, the worst
case and perturbation derivatives share one response functional,
a(x) = row (s(x) - m) q(x)/p(x) with row the target gradient pushed
through (I - VH)^-1 on the block: it integrates the full statistic
displacement, which is the exact fixed-point derivative, over the
family's ``quad_support()``.  The influence function keeps the
location-only convention.
"""

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import (DimensionMismatch, DomainError, NonDifferentiablePrior,
                     NormalizationFailure, QuadratureFailure, ZeroPriorDensity)
from .expfam import FAMILIES
from .linear_response import function_sensitivity
from .oracle import quadrature_expectation
from .util import fd_jacobian

MIN_PRIOR_DENSITY_LOG = np.log(1e-300)
INFLUENCE_CHUNK = 4096  # points per pass of an influence grid's accumulation
ALPHA_FD_REL_STEP = 1e-6


# ---------------------------------------------------------------------------
# query types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContaminationSpec:
    """One epsilon-contamination direction for a single block's prior.

    ``contaminant`` is ("dirac", point) or ("density", logpdf callable).
    The derivative is taken at eps = 0.  Requires the prior and the
    variational distribution to factor across the chosen block, and for
    density contaminants a family with a ``quad_support()`` and a density
    that integrates to one over it (checked by quadrature to 1e-4).
    """

    block: Union[str, int]
    contaminant: tuple

    def validated(self, model):
        idx = model.factorized_block(self.block)
        kind, payload = self.contaminant
        if kind not in ("dirac", "density"):
            raise DomainError(f"unknown contaminant kind {kind!r}")
        if kind == "density":
            bounds = FAMILIES[model.layout.blocks[idx].family].quad_support()
            total, _ = quadrature_expectation(
                lambda x: np.exp(payload(x)), lambda x: 1.0, bounds, tol=1e-4)
            if abs(total - 1.0) > 1e-4:
                raise DomainError(
                    f"contaminant density integrates to {total:.6f}, not 1")
        return idx


@dataclass(frozen=True)
class SensitivityQuery:
    """Named (target, direction) pair for report assembly.

    ``target`` is a mean-coordinate name or an explicit gradient vector of
    the tracked quantity with respect to the means; ``direction`` is a
    {hyperparameter: coefficient} dict or a ContaminationSpec.
    """

    quantity: str
    target: Union[str, np.ndarray]
    direction: Union[dict, ContaminationSpec]
    direction_label: str = ""

    def label(self):
        if self.direction_label:
            return self.direction_label
        if isinstance(self.direction, ContaminationSpec):
            return f"contamination[{self.direction.block}]"
        return "+".join(f"{v:g}*{k}" for k, v in self.direction.items())


@dataclass(frozen=True)
class ReportEntry:
    quantity: str
    direction: str
    value: Optional[float]
    normalized: Optional[float]
    error: Optional[str] = None


@dataclass(frozen=True)
class SensitivityReport:
    entries: tuple
    model_hash: str
    solution_hash: str


@dataclass(frozen=True)
class WorstCaseResult:
    """Extremal unit-size prior perturbation for one block and target."""

    a_values: Callable
    p_norm: float
    worst_density: Callable
    attained_derivative: float


# ---------------------------------------------------------------------------
# hyperparameter sensitivity
# ---------------------------------------------------------------------------


def prior_direction_gradient(model, m, direction):
    """d/dm of the directional alpha-derivative of the expected log prior.

    The one path for every model: a central difference of
    ``grad_log_prior`` along the direction, its step ALPHA_FD_REL_STEP of
    the largest moved |alpha| (at least 1) rounded down to a power of two,
    so that alpha +- step is exact.  Where one side leaves the prior's
    domain (the model raises DomainError), the difference is one-sided
    over the same span.  An unknown name raises the KeyError of
    :meth:`Hyperparams.check_names`; a non-finite coefficient, or a
    derivative that overflows, DomainError.
    """
    alpha = model.hyperparams
    alpha.check_names(direction)
    if not all(np.isfinite(v) for v in direction.values()):
        raise DomainError(f"direction coefficients must be finite, got {direction}")
    m = np.asarray(m, dtype=float)
    scale = max([abs(alpha[k]) for k in direction] + [1.0])
    size = max((abs(v) for v in direction.values()), default=0.0) or 1.0  # zero moves nothing
    h = np.ldexp(0.5, np.frexp(ALPHA_FD_REL_STEP * scale / size)[1])
    for center in (0.0, 1.0, -1.0):  # in units of h: central, else one-sided
        try:
            diff = fd_jacobian(
                lambda t: model.grad_log_prior(m, alpha.perturbed(direction, h * t[0])),
                np.array([center]), rel_step=1.0)[:, 0]
        except DomainError as exc:
            error = exc
            continue
        with np.errstate(over="ignore"):  # a coefficient near the largest float
            grad = diff / h
        if not np.all(np.isfinite(grad)):
            raise DomainError(f"prior gradient along {direction} overflows")
        return grad
    raise NonDifferentiablePrior(
        f"prior gradient failed under perturbation {direction}: {error}") from error


def hyperparam_sensitivity(model, sol, sys, direction):
    """Derivative of every posterior mean along a hyperparameter direction."""
    grad_f = prior_direction_gradient(model, sol.mean, direction)
    if grad_f.shape != (sys.dim,):
        raise DimensionMismatch(f"direction gradient has shape {grad_f.shape}")
    return sys.solve(grad_f)


# ---------------------------------------------------------------------------
# influence functions and contamination
# ---------------------------------------------------------------------------


def _block_setup(model, sys, block):
    layout = model.layout
    idx = model.factorized_block(block)
    bdef = layout.blocks[idx]
    sl = layout.slice_of(idx)
    eta = sys.fitted_natural(sl, bdef.family, bdef.var_dim)
    return idx, bdef, sl, sys.mean[sl], FAMILIES[bdef.family], eta


def _log_density_ratio(model, bdef, fam, eta, x):
    """log q(x) - log p(x) and log p(x) for one block, elementwise over one
    value or an array of them, with one call of each density."""
    name = bdef.name
    log_p = model.prior_block_logpdf[name](x, model.hyperparams)
    log_q = fam.log_density(x, eta)
    if np.shape(log_p) != np.shape(log_q):
        raise DimensionMismatch(f"prior_block_logpdf[{name!r}] returned shape "
                                f"{np.shape(log_p)}, expected {np.shape(log_q)}")
    return log_q - log_p, log_p


def influence_function(model, sol, sys, block, point):
    """Response of all posterior means to a point mass added to one
    block's prior.

    Returns q(point)/p(point) times the solve of (I - VH) against the
    location displacement of the block (see module docstring for the
    convention on higher-order coordinates): the influence grid of the one
    point.
    """
    return _influence_rows(model, sys, block, point, one_point=True)[0]


def influence_grid(model, sol, sys, block, points):
    """Influence vectors over many points, shape (n_points, dim).

    Row i is sum_j q/p(x_i) (x_ij - m_j) c_j over the block's d location
    coordinates j, with c_j the system's memoized response column of
    coordinate j; a row does not depend on which other points share the
    call.
    """
    return _influence_rows(model, sys, block, points)


def _influence_rows(model, sys, block, points, one_point=False):
    idx, bdef, _, _, fam, eta = _block_setup(model, sys, block)
    if not fam.has_location:
        raise DomainError(f"block {bdef.name!r} has no location statistics")
    points = np.asarray(points, dtype=float)
    if points.size % bdef.var_dim or (one_point and points.size != bdef.var_dim):
        raise DimensionMismatch(f"block {bdef.name!r} takes points of {bdef.var_dim} "
                                f"entries, got an array of shape {points.shape}")
    points = points.reshape(-1, bdef.var_dim)
    if not np.all(np.isfinite(points)):
        raise DomainError(f"influence point {points[~np.isfinite(points)][0]} is not finite")
    values = points[:, 0] if fam.scalar else points
    # a far point's densities overflow to -inf or nan: zero prior density below
    with np.errstate(over="ignore", invalid="ignore"):
        log_ratio, log_p = _log_density_ratio(model, bdef, fam, eta, values)
    under = np.flatnonzero(~(log_p >= MIN_PRIOR_DENSITY_LOG))
    if under.size:
        i = under[0]
        raise ZeroPriorDensity(
            f"prior density underflows at {values[i]!r} (log density {log_p[i]:.1f})")
    loc = model.layout.location_indices(idx)
    cols = sys.response_columns(loc)
    weights = np.exp(log_ratio)[:, None] * (points - sys.mean[loc])
    rows = np.zeros((points.shape[0], sys.dim))
    # elementwise products summed over j in a fixed order, one chunk of
    # points at a time and in place, so temporaries stay one chunk in size
    # and no matmul makes a row's rounding depend on the number of points
    for start in range(0, rows.shape[0], INFLUENCE_CHUNK):
        part = slice(start, start + INFLUENCE_CHUNK)
        for j in range(loc.size):
            rows[part] += weights[part, j, None] * cols[:, j]
    return rows


def contamination_sensitivity(model, sol, sys, spec, target):
    """Derivative of a tracked quantity under epsilon-contamination.

    ``target`` is the gradient of the quantity with respect to the means
    (or a mean-coordinate name).  Dirac contaminants reduce to the
    influence function; density contaminants integrate the response
    functional a(x) of :func:`worst_case_perturbation` against p_c.
    """
    grad_h = resolve_target(model.layout, target)
    idx = spec.validated(model)
    kind, payload = spec.contaminant
    if kind == "dirac":
        vec = influence_function(model, sol, sys, idx, payload)
        return float(grad_h @ vec)
    a_values, _, bounds = _response_functional(model, sys, idx, grad_h)
    # raises QuadratureFailure where the error estimate exceeds 1e-9
    val, _ = quadrature_expectation(lambda x: np.exp(payload(x)), a_values, bounds, tol=1e-9)
    return float(val)


# ---------------------------------------------------------------------------
# worst-case perturbations
# ---------------------------------------------------------------------------


def _response_functional(model, sys, block, target):
    """a(x), the prior density p(x) and the family's quadrature support of
    one block (a(x) as in worst_case_perturbation; an array for an array)."""
    grad_h = resolve_target(model.layout, target)
    idx, bdef, sl, mb, fam, eta = _block_setup(model, sys, block)
    bounds = fam.quad_support()
    row = sys.solve_transpose(grad_h)[sl]
    prior_logpdf = model.prior_block_logpdf[bdef.name]

    def a_values(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        log_ratio, _ = _log_density_ratio(model, bdef, fam, eta, x)
        out = ((fam.suff_stats(x) - mb) @ row) * np.exp(log_ratio)
        return out if out.size > 1 else float(out[0])

    def prior_dens(x):
        return np.exp(prior_logpdf(x, model.hyperparams))

    return a_values, prior_dens, bounds


def worst_case_perturbation(model, sol, sys, block, target, p_norm):
    """Extremal prior perturbation of unit p-norm size for one block.

    The response functional is a(x) = row (s(x) - m) q(x)/p(x) with row
    the target gradient pushed through (I - VH)^-1.  The extremal density
    profile is p(x) |a(x)|^(1/(p-1)) normalized to unit perturbation
    size; the attained derivative is the conjugate-norm of a, which
    bounds every unit-size perturbation's derivative.
    """
    if not (1.0 < p_norm < np.inf):
        raise DomainError(f"p_norm must lie in (1, inf), got {p_norm}")
    a_values, prior_dens, bounds = _response_functional(model, sys, block, target)
    q_conj = p_norm / (p_norm - 1.0)
    try:
        norm_q, _ = quadrature_expectation(
            prior_dens, lambda x: abs(a_values(x)) ** q_conj, bounds, tol=1e-9)
    except QuadratureFailure as exc:
        raise NormalizationFailure(str(exc)) from exc
    if not np.isfinite(norm_q) or norm_q <= 0:
        raise NormalizationFailure(
            f"conjugate-norm integral is {norm_q}; extremal density undefined")
    attained = norm_q ** (1.0 / q_conj)
    size_norm = norm_q ** (1.0 / p_norm)

    def worst_density(x):
        return prior_dens(x) * np.abs(a_values(x)) ** (1.0 / (p_norm - 1.0)) / size_norm

    return WorstCaseResult(a_values=a_values, p_norm=float(p_norm),
                           worst_density=worst_density,
                           attained_derivative=float(attained))


def perturbation_derivative(model, sol, sys, block, target, pc_over_p):
    """Derivative under a signed perturbation given as a ratio p_c/p.

    Integrates a(x) (p_c/p)(x) against the prior; used to test the
    worst-case bound against arbitrary unit-size perturbations.
    """
    a_values, prior_dens, bounds = _response_functional(model, sys, block, target)
    val, _ = quadrature_expectation(prior_dens, lambda x: a_values(x) * pc_over_p(x),
                                    bounds, tol=1e-8)
    return float(val)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def resolve_target(layout, target):
    """Mean-coordinate name or explicit gradient -> gradient vector."""
    if isinstance(target, str):
        grad = np.zeros(layout.dim)
        grad[layout.coord_index(target)] = 1.0
        return grad
    grad = np.asarray(target, dtype=float)
    if grad.shape != (layout.dim,):
        raise DimensionMismatch(
            f"target gradient has shape {grad.shape}, expected ({layout.dim},)")
    return grad


def make_report(queries, model, sol, sys):
    """Evaluate queries into a report with per-posterior-sd normalization.

    Each distinct hyperparameter direction is priced once for all of its
    queries; a named target's variance is read off sigma_hat's diagonal.
    Per-query failures become error entries instead of aborting the batch;
    a zero-variance target is reported as an error, not a division by zero.
    """
    entries = []
    priced = {}  # hyperparameter direction -> sensitivity of every mean
    for query in queries:
        try:
            grad_h = resolve_target(model.layout, query.target)
            if isinstance(query.direction, ContaminationSpec):
                value = contamination_sensitivity(model, sol, sys, query.direction, grad_h)
            else:
                key = tuple(query.direction.items())
                if key not in priced:
                    priced[key] = hyperparam_sensitivity(model, sol, sys, query.direction)
                value = float(grad_h @ priced[key])
            variance = (sys.variances(model.layout.coord_index(query.target))
                        if isinstance(query.target, str)
                        else function_sensitivity(sys, grad_h, grad_h))
            if variance <= 0:
                raise DomainError(
                    f"quantity {query.quantity!r} has nonpositive posterior "
                    f"variance {variance:.3g}")
            entries.append(ReportEntry(
                quantity=query.quantity, direction=query.label(),
                value=value, normalized=value / np.sqrt(variance)))
        except Exception as exc:  # keep batch going, tag the failing entry
            entries.append(ReportEntry(
                quantity=query.quantity, direction=query.label(),
                value=None, normalized=None,
                error=f"{type(exc).__name__}: {exc}"))
    return SensitivityReport(entries=tuple(entries),
                             model_hash=model_fingerprint(model),
                             solution_hash=solution_fingerprint(sol))


def model_fingerprint(model):
    blob = (model.name + "|" + ",".join(model.layout.coord_names()) + "|"
            + ",".join(f"{k}={v!r}" for k, v in model.hyperparams.items()))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def solution_fingerprint(sol):
    return hashlib.sha256(np.asarray(sol.mean, dtype=float).tobytes()).hexdigest()[:16]
