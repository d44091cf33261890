"""Mean-field variational fits over products of exponential-family blocks.

A model is specified by its block layout, a hyperparameter record, and
closed-form maps from the stacked mean-parameter vector ``m`` to the
expected log likelihood and expected log prior (plus their gradients in
``m``).  The fit maximizes ``expected_log_lik + expected_log_prior +
entropy`` over ``m``; the stationarity condition is ``natural(m) =
grad_L(m)``.

Optimization runs in unconstrained per-block coordinates (means stay
untouched, positive scalars are log-transformed, positive-definite
matrices are Cholesky-parameterized), so every iterate is automatically
inside the product of block domains.  A quasi-Newton pass is followed by
damped Newton polishing to push the gradient norm to the requested
tolerance; the downstream covariance correction needs a tight optimum.

The polish's Newton step is the linear-response solve of :mod:`lrvb.linear_response`.

ModelSpec and VbSolution are immutable after construction.  Fits call
into the same BLAS library as every other stage, and concurrent calls
from threads of one process have not been shown safe with it; run
independent fits in separate processes.
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping, Optional

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import DomainError, DomainViolation, NonConvergence
from .expfam import FAMILIES, Family
from .linear_response import identity_minus_vh


@dataclass(frozen=True)
class BlockDef:
    """Name, family, and underlying-variable dimension of one factor."""

    name: str
    family: Family
    var_dim: int = 1
    labels: tuple = ()

    def __post_init__(self):
        if not self.labels:  # one per dimension of x, as the Wishart's name[i,j]
            labels = ((self.name,) if self.var_dim == 1
                      else tuple(f"{self.name}[{i}]" for i in range(self.var_dim)))
            object.__setattr__(self, "labels", labels)

    @property
    def stat_dim(self):
        return FAMILIES[self.family].stat_dim(self.var_dim)


class Layout:
    """Stacked coordinate bookkeeping for an ordered list of blocks.

    Blocks of one family and variable dimension form a group.  ``groups``
    holds (family, var_dim, idx) per group, idx being the (n_blocks,
    stat_dim) positions of its blocks in the stacked vector, so each fit and
    linear-response map is one batched family call per group (see
    :mod:`lrvb.expfam`) and never loops over blocks, the Wishart dof solve
    included.  The entropy is the sum of each family's closed form in fit
    coordinates (``entropy_unconstrained``); at a mean vector it goes
    through ``unconstrained_from_mean``.  Names, location statistics and
    sampler coordinates follow each block's family (see :mod:`lrvb.expfam`)
    and are looked up in per-block tables built once.
    """

    def __init__(self, blocks):
        self.blocks = tuple(blocks)
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate block names in {names}")
        self._index = {b.name: i for i, b in enumerate(self.blocks)}
        offsets = np.cumsum([0] + [b.stat_dim for b in self.blocks])
        self.offsets = offsets
        self.dim = int(offsets[-1])
        rows = {}
        for b, off in zip(self.blocks, offsets):
            rows.setdefault((b.family, b.var_dim), []).append(off + np.arange(b.stat_dim))
        self.groups = tuple((FAMILIES[family], var_dim, np.array(idx))
                            for (family, var_dim), idx in rows.items())
        fams = [FAMILIES[b.family] for b in self.blocks]
        self._locations = [list(range(off, off + b.var_dim)) if fam.has_location else []
                           for b, fam, off in zip(self.blocks, fams, offsets.tolist())]
        self._value_dims = [fam.value_dim(b.var_dim) for b, fam in zip(self.blocks, fams)]

    def __iter__(self):
        return iter(self.blocks)

    def slice_of(self, block):
        i = block if isinstance(block, int) else self._index[block]
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def split(self, m):
        return [np.asarray(m)[self.slice_of(i)] for i in range(len(self.blocks))]

    # built on first use: a block with too few labels fits, but has no names
    @cached_property
    def _names(self):
        return [n for b in self.blocks for n in FAMILIES[b.family].coord_names(b)]

    @cached_property
    def _coord_index(self):  # reversed, so the first of repeated names wins
        return {n: i for i, n in reversed(list(enumerate(self._names)))}

    def coord_names(self):
        return list(self._names)

    def location_indices(self, block=None):
        """Indices of plain location statistics (families with ``has_location``)."""
        if block is None:
            return np.array([c for loc in self._locations for c in loc], dtype=int)
        return np.array(self._locations[block if isinstance(block, int)
                                        else self._index[block]], dtype=int)

    def coord_index(self, name):
        """Position of the first coordinate with this name."""
        if name not in self._coord_index:
            raise ValueError(f"no coordinate named {name!r}")
        return self._coord_index[name]

    def hessian_columns(self, local_groups):
        """Column sets for the objective Hessian's differences, and each
        coordinate's local group (-1 outside every group).

        ``local_groups`` holds groups of block names.  The p-th coordinate
        of every group, in layout order, is stepped together with the
        others; the coordinates outside every group come after those sets,
        each stepped alone, so a one-entry memo keyed on a global block
        (the microcredit Wishart terms) holds the base point until that
        block's own columns.
        """
        owner = np.full(self.dim, -1)
        for k, group in enumerate(local_groups):
            for name in group:
                if name not in self._index:
                    raise ValueError(f"local group {k} names unknown block {name!r}")
                if owner[self.slice_of(name).start] >= 0:
                    raise ValueError(f"block {name!r} is named more than once "
                                     "in the local groups")
                owner[self.slice_of(name)] = k
        members = [np.flatnonzero(owner == k) for k in range(len(local_groups))]
        width = max((g.size for g in members), default=0)
        columns = ([np.array([g[p] for g in members if p < g.size]) for p in range(width)]
                   + [[j] for j in np.flatnonzero(owner < 0)])
        return columns, owner

    # --- per-group assembly -----------------------------------------------

    def _scatter(self, parts):
        """Stacked vector from one (n_blocks, stat_dim) array per group."""
        out = np.empty(self.dim)
        for (_, _, idx), part in zip(self.groups, parts):
            out[idx] = part
        return out

    def _block_diagonal(self, parts):
        """Block-diagonal matrix from one (n_blocks, s, s) array per group."""
        out = np.zeros((self.dim, self.dim))
        for (_, _, idx), part in zip(self.groups, parts):
            out[idx[:, :, None], idx[:, None, :]] = part
        return out

    # --- domain checks and dual coordinates -------------------------------

    def check_mean(self, m):
        m = np.asarray(m, dtype=float)
        if m.shape != (self.dim,):
            raise DomainError(f"mean vector has shape {m.shape}, expected ({self.dim},)")
        for fam, var_dim, idx in self.groups:
            fam.check_mean(m[idx], var_dim)

    def natural_vector(self, m):
        """Per-block natural parameters stacked to match the mean layout."""
        m = np.asarray(m, dtype=float)
        return self._scatter(fam.natural_from_mean(m[idx], var_dim)
                             for fam, var_dim, idx in self.groups)

    def entropy(self, m):
        return self.entropy_from_unconstrained(self.unconstrained_from_mean(m))

    def suff_stat_cov(self, m):
        """Block-diagonal covariance of the sufficient statistics at m."""
        m = np.asarray(m, dtype=float)
        return self._block_diagonal(
            fam.suff_stat_cov(fam.natural_from_mean(m[idx], var_dim))
            for fam, var_dim, idx in self.groups)

    # --- unconstrained fit coordinates ------------------------------------
    # Every family's unconstrained vector has the same length as its
    # statistic vector, so z and m share positions.

    def unconstrained_from_mean(self, m):
        m = np.asarray(m, dtype=float)
        return self._scatter(fam.unconstrained_from_standard(*fam.standard_from_mean(m[idx]))
                             for fam, _, idx in self.groups)

    def mean_from_unconstrained(self, z):
        return self._scatter(fam.mean_from_standard(*fam.standard_from_unconstrained(z[idx]))
                             for fam, _, idx in self.groups)

    def natural_from_unconstrained(self, z):
        return self._scatter(
            fam.natural_from_standard(*fam.standard_from_unconstrained(z[idx]))
            for fam, _, idx in self.groups)

    def entropy_from_unconstrained(self, z):
        return float(sum(np.sum(fam.entropy_unconstrained(z[idx]))
                         for fam, _, idx in self.groups))

    def mean_jacobian(self, z):
        """Block-diagonal d mean / d unconstrained."""
        return self._block_diagonal(fam.mean_jacobian_unconstrained(z[idx])
                                    for fam, _, idx in self.groups)

    def mean_jacobian_solve(self, z, rhs, trans=False):
        """J^-1 rhs (J^-T rhs with ``trans``), J = mean_jacobian(z), batched per group."""
        jacs = (fam.mean_jacobian_unconstrained(z[idx]) for fam, _, idx in self.groups)
        return self._scatter(np.linalg.solve(np.swapaxes(jac, 1, 2) if trans else jac,
                                             rhs[idx][..., None])[..., 0]
                             for jac, (_, _, idx) in zip(jacs, self.groups))

    # --- underlying-variable (sampler/oracle) coordinates, per family -----

    def value_dim(self):
        return sum(self._value_dims)

    def values_from_sampler(self, zv):
        """Map an unconstrained sampler vector to per-block variable values.

        Returns (values dict, total log-Jacobian of the transform).
        """
        values, logjac, pos = {}, 0.0, 0
        for b, d in zip(self.blocks, self._value_dims):
            values[b.name], lj = FAMILIES[b.family].value_from_unconstrained(zv[pos:pos + d])
            logjac += lj
            pos += d
        return values, logjac

    def sampler_from_values(self, values):
        return np.concatenate([FAMILIES[b.family].unconstrained_from_value(values[b.name])
                               for b in self.blocks])

    def suff_stats_of_values(self, values):
        """Stacked sufficient statistics of one draw, in mean layout."""
        return np.concatenate([FAMILIES[b.family].suff_stats(values[b.name])[0]
                               for b in self.blocks])

    def representative_values(self, m):
        """Central per-block variable values, e.g. to seed a sampler."""
        return {b.name: FAMILIES[b.family].representative_value(mb, b.var_dim)
                for b, mb in zip(self.blocks, self.split(m))}

    def suff_stats_of_sampler_matrix(self, zmat):
        """Vectorized sufficient statistics for rows of sampler draws."""
        cols = np.split(np.asarray(zmat, dtype=float), np.cumsum(self._value_dims)[:-1],
                        axis=1)
        return np.concatenate([FAMILIES[b.family].sampler_suff_stats(z, b.var_dim)
                               for b, z in zip(self.blocks, cols)], axis=1)


class Hyperparams(Mapping):
    """Ordered record of scalar hyperparameters, addressable by name."""

    def __init__(self, entries):
        self._entries = dict(entries)
        for k, v in self._entries.items():
            self._entries[k] = float(v)

    def __getitem__(self, key):
        return self._entries[key]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)

    @property
    def names(self):
        return tuple(self._entries)

    def as_vector(self):
        return np.array(list(self._entries.values()))

    def check_names(self, names):
        """KeyError listing the valid keys unless every name is one of them."""
        unknown = set(names) - set(self._entries)
        if unknown:
            raise KeyError(f"unknown hyperparameters {sorted(unknown)}; "
                           f"valid keys: {sorted(self._entries)}")

    def with_updates(self, **updates):
        self.check_names(updates)
        merged = dict(self._entries)
        merged.update(updates)
        return Hyperparams(merged)

    def perturbed(self, direction, t):
        """Shift by t along a {name: coefficient} direction."""
        self.check_names(direction)
        return self.with_updates(**{k: self._entries[k] + t * v for k, v in direction.items()})

    def __repr__(self):
        inner = ", ".join(f"{k}={v:g}" for k, v in self._entries.items())
        return f"Hyperparams({inner})"


@dataclass(frozen=True)
class ModelSpec:
    """Blocks plus differentiable expected log likelihood and log prior.

    ``expected_log_lik(m)`` and ``expected_log_prior(m, alpha)`` must be
    deterministic closed forms of the mean vector; their gradients are
    exact, which is what lets the fit reach tight tolerances and keeps
    the downstream Hessian noise-free.  Sensitivities difference
    ``grad_log_prior`` along alpha, so a model writes no alpha-derivative.

    Optional hooks:

    * ``prior_block_logpdf`` -- per-block marginal prior log density for
      the blocks across which the prior factorizes (required by
      influence-function and contamination queries on that block, which
      call :meth:`factorized_block`).
      ``prior_block_logpdf[name](x, alpha)`` maps one block value to
      a float and an array of n values (shape (n,), or (n, d) for a
      d-dimensional block) to an (n,) array, as the family's ``log_density``.
    * ``sampler_log_posterior(alpha)`` -- the one pointwise posterior, for
      the MCMC and quadrature oracles and never used by the fit.  It
      returns the log posterior plus log-Jacobian as a function of the
      sampler vector (see :meth:`Layout.values_from_sampler`), -inf where
      that is not finite; the function may carry the cached
      ``coordinate_moves`` of :func:`lrvb.oracle.metropolis_sample`.
      Every model in :mod:`lrvb.models` supplies it; the oracles raise
      DomainError for a model without it.
    * ``exact_posterior(alpha)`` -- closed-form posterior expected
      statistics in the mean layout and the log evidence (or None), for
      conjugate models; read by :func:`lrvb.oracle.exact_conjugate_posterior`.
    * ``local_groups`` -- groups of block names, such as one site's blocks
      of a hierarchical model.  A group promises that its coordinates
      couple in ``H = d^2 L / dm dm'`` only with themselves and with the
      blocks outside every group, so
      :func:`lrvb.linear_response.hessian_of_objective` steps the same
      coordinate of every group at once (see :meth:`Layout.hessian_columns`).
      Construction raises ValueError when a group names an unknown block or
      a block is named twice.  A wrong promise gives a wrong H; nothing
      checks it at run time.
    """

    name: str
    layout: Layout
    hyperparams: Hyperparams
    expected_log_lik: Callable
    grad_log_lik: Callable
    expected_log_prior: Callable
    grad_log_prior: Callable
    default_init: Callable
    data: Any = None
    prior_block_logpdf: Mapping = field(default_factory=dict)
    exact_posterior: Optional[Callable] = None
    sampler_log_posterior: Optional[Callable] = None
    local_groups: tuple = ()
    # (column sets, coordinate groups) of Layout.hessian_columns
    _hessian_columns: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hessian_columns",
                           self.layout.hessian_columns(self.local_groups))

    def resolve_alpha(self, alpha):
        return self.hyperparams if alpha is None else alpha

    def factorized_block(self, block):
        """Index of a block across which the prior factors, as every query on
        one block needs.  ``block`` is a layout block name or an integer
        (Python or numpy) in [0, n_blocks); anything else, or a block the
        prior does not factor across, raises DomainError."""
        index = self.layout._index
        if isinstance(block, str) and block in index:
            idx = index[block]
        elif (isinstance(block, (int, np.integer)) and not isinstance(block, bool)
              and 0 <= block < len(index)):
            idx = int(block)
        else:
            raise DomainError(f"unknown block {block!r}; blocks: {list(index)}")
        name = self.layout.blocks[idx].name
        if name not in self.prior_block_logpdf:
            raise DomainError(
                f"prior does not factor across block {name!r}; "
                f"factorized blocks: {sorted(self.prior_block_logpdf)}")
        return idx


def elbo(model, m, alpha=None):
    """Expected log joint plus entropy at mean vector m."""
    alpha = model.resolve_alpha(alpha)
    model.layout.check_mean(m)
    m = np.asarray(m, dtype=float)
    value = (model.expected_log_lik(m) + model.expected_log_prior(m, alpha)
             + model.layout.entropy(m))
    if not np.isfinite(value):
        raise DomainError(f"objective not finite at the given mean vector ({value})")
    return float(value)


def elbo_grad_mean(model, m, alpha=None):
    """Gradient of the objective in mean coordinates: grad_L(m) - natural(m)."""
    alpha = model.resolve_alpha(alpha)
    m = np.asarray(m, dtype=float)
    return (model.grad_log_lik(m) + model.grad_log_prior(m, alpha)
            - model.layout.natural_vector(m))


@dataclass(frozen=True)
class FitOptions:
    tol: float = 1e-8          # max-abs gradient in unconstrained coordinates
    max_iter: int = 10_000
    polish_iter: int = 60      # damped Newton steps after quasi-Newton stage


@dataclass(frozen=True)
class VbSolution:
    """Converged mean parameters with fit diagnostics."""

    mean: np.ndarray
    elbo: float
    iterations: int
    converged: bool
    grad_norm: float
    elbo_trace: tuple = ()


def fit(model, init=None, opts=None, alpha=None):
    """Maximize the objective; returns a VbSolution or raises NonConvergence.

    Deterministic for fixed (model, init, opts).  Accepted steps never
    decrease the objective; the per-step values are kept in
    ``elbo_trace``.
    """
    opts = opts or FitOptions()
    alpha = model.resolve_alpha(alpha)
    layout = model.layout
    m0 = np.asarray(init if init is not None else model.default_init(alpha), dtype=float)
    layout.check_mean(m0)
    z0 = layout.unconstrained_from_mean(m0)

    def value_grad(z):
        try:
            with np.errstate(all="ignore"):
                m = layout.mean_from_unconstrained(z)
                val = (model.expected_log_lik(m)
                       + model.expected_log_prior(m, alpha)
                       + layout.entropy_from_unconstrained(z))
                if not np.isfinite(val):
                    return np.inf, np.zeros_like(z)
                gm = (model.grad_log_lik(m) + model.grad_log_prior(m, alpha)
                      - layout.natural_from_unconstrained(z))
                gz = layout.mean_jacobian(z).T @ gm
                if not np.all(np.isfinite(gz)):
                    return np.inf, np.zeros_like(z)
                return -val, -gz
        except (DomainError, np.linalg.LinAlgError, OverflowError):
            return np.inf, np.zeros_like(z)

    trace = [-value_grad(z0)[0]]
    res = scipy.optimize.minimize(
        value_grad, z0, jac=True, method="L-BFGS-B",
        callback=lambda intermediate_result: trace.append(-intermediate_result.fun),
        options={"maxiter": opts.max_iter, "ftol": 1e-14, "gtol": opts.tol / 10.0,
                 "maxcor": 30, "maxls": 60})
    z, fz, gz = res.x, res.fun, res.jac
    iterations = int(res.nit)
    # kept for the error messages: the first sign of a stalled fit
    quasi_newton = f"; L-BFGS-B stopped after {res.nit} iterations: {res.message}"

    # Damped Newton polish: quasi-Newton alone rarely reaches 1e-8.
    for _ in range(opts.polish_iter):
        gnorm = np.max(np.abs(gz))
        if gnorm <= opts.tol:
            break
        try:
            step = _newton_step(model, z, gz, alpha)
        except (DomainError, np.linalg.LinAlgError):
            # a singular J, or a Hessian step that left the domain: steepest descent
            step = -gz
        accepted = False
        scale = 1.0
        # Near the optimum the objective change drops below float
        # resolution, so a step also counts when it shrinks the gradient
        # without measurably moving the objective.
        float_floor = 1e-12 * max(1.0, abs(fz))
        for _ in range(40):
            z_new = z + scale * step
            f_new, g_new = value_grad(z_new)
            better_f = f_new < fz
            flat_better_g = (f_new <= fz + float_floor
                             and np.max(np.abs(g_new)) < 0.9 * gnorm)
            if better_f or flat_better_g:
                z, fz, gz = z_new, f_new, g_new
                trace.append(-fz)
                accepted = True
                break
            scale /= 2.0
        iterations += 1
        if not accepted:
            if gnorm <= 1e3 * opts.tol:
                break  # stuck at rounding floor near the optimum
            raise DomainViolation(
                f"backtracking failed at gradient norm {gnorm:.3g}{quasi_newton}")

    if not np.isfinite(fz):
        raise DomainViolation(f"objective is not finite at the final iterate{quasi_newton}")
    grad_norm = float(np.max(np.abs(gz)))
    converged = grad_norm <= opts.tol
    mean = layout.mean_from_unconstrained(z)
    solution = VbSolution(mean=mean, elbo=float(-fz), iterations=iterations,
                          converged=converged, grad_norm=grad_norm,
                          elbo_trace=tuple(trace))
    if not converged:
        raise NonConvergence(
            f"gradient norm {grad_norm:.3g} above tol {opts.tol:g} "
            f"after {iterations} iterations{quasi_newton}", solution=solution)
    return solution


def _newton_step(model, z, grad, alpha):
    """Newton step J^-1 dm on -ELBO, (I - VH) dm = V g with J' g = -grad, damped in m
    by lam V (Levenberg-Marquardt on V^-1 - H + lam I); else steepest descent."""
    layout = model.layout
    m = layout.mean_from_unconstrained(z)
    g = layout.mean_jacobian_solve(z, -grad, trans=True)
    v, h, system = identity_minus_vh(model, m, alpha)
    vg = v @ g
    damping = 0.0
    for _ in range(12):
        try:
            with warnings.catch_warnings():
                # a system with rcond below machine epsilon is as good as singular
                warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
                dm = scipy.linalg.solve(system + damping * v, vg)
            if np.all(np.isfinite(dm)) and dm @ g > 0:
                return layout.mean_jacobian_solve(z, dm)  # J is regular: J' solved above
        except (ValueError, scipy.linalg.LinAlgWarning):
            pass  # singular, ill-conditioned, or curvature that overflowed
        damping = max(2.0 * damping, 1e-8 * max(np.max(np.abs(h)), 1.0))
    return -grad  # fall back to steepest descent
