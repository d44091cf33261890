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
inside the product of block domains.  One evaluation of the objective
and its gradient makes one pass over the layout's family groups
(:meth:`Layout.fit_terms`) and forms J' g block by block, never the dense
J.  A limited-memory BFGS stage in numpy (:func:`_quasi_newton`, the
compact form of Byrd, Nocedal & Schnabel 1994) runs until the largest
gradient entry falls to HANDOFF_GRAD; a damped Newton polish then pushes
it to the requested tolerance, as the downstream covariance correction
needs a tight optimum.  Both stages step through one backtracking
search, :func:`_line_search`; neither imports scipy.optimize.

The polish's Newton step is the linear-response solve of
:mod:`lrvb.linear_response`.  It keeps the Cholesky factors of
B + lam I, B = I - L'HL with V = LL', and L while its full steps shrink
the gradient KEEP_SHRINK-fold, so one H serves several steps, and
refreshes H otherwise.  Once the gradient is below tol it takes only
full steps from a kept factorization, while they shrink the gradient,
down to tol / 100, so fits end about as tight as a quasi-Newton stage
run to tol / 10 left them.

ModelSpec and VbSolution are immutable after construction.  Fits call
into the same BLAS library as every other stage, and concurrent calls
from threads of one process have not been shown safe with it; run
independent fits in separate processes.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Callable, Mapping, Optional

import numpy as np
import scipy.linalg

from .errors import DomainError, DomainViolation, NonConvergence
from .expfam import FAMILIES, Family
from .linear_response import linear_response, times_chol


@dataclass(frozen=True)
class BlockDef:
    """Name, family, and underlying-variable dimension of one factor."""

    name: str
    family: Family
    var_dim: int = 1
    labels: tuple = ()

    def __post_init__(self):
        self.stat_dim  # the family's ValueError for a var_dim it does not take
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
    coordinates (the ``entropy`` of ``fit_terms``); at a mean vector it goes
    through ``unconstrained_from_mean``.  The fit's objective and gradient
    read :meth:`fit_terms`, one pass over the groups, and
    :meth:`jacobian_transpose_times`, which never forms the dense
    :meth:`mean_jacobian`.  Names, location statistics and
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
        return float(sum(np.sum(fam.fit_terms(z[idx]).entropy)
                         for fam, _, idx in self.groups))

    def fit_terms(self, z):
        """(mean vector, natural vector, entropy, per-group d mean / d z
        stacks) at z: one family ``fit_terms`` call per group, where the
        four maps around this one make a standard-parameter pass each."""
        terms = [fam.fit_terms(z[idx]) for fam, _, idx in self.groups]
        return (self._scatter(t.mean for t in terms),
                self._scatter(t.natural for t in terms),
                float(sum(np.sum(t.entropy) for t in terms)),
                [t.jacobian for t in terms])

    def jacobian_transpose_times(self, jacobians, g):
        """J' g for the per-group stacks of :meth:`fit_terms`, block by
        block: a block's entries do not depend on the others."""
        return self._scatter(np.sum(jac * g[idx][..., :, None], axis=-2)
                             for jac, (_, _, idx) in zip(jacobians, self.groups))

    def mean_jacobian(self, z):
        """Block-diagonal d mean / d unconstrained."""
        return self._block_diagonal(fam.fit_terms(z[idx]).jacobian
                                    for fam, _, idx in self.groups)

    def mean_jacobian_solve(self, jacobians, rhs, trans=False):
        """J^-1 rhs (J^-T rhs with ``trans``) for the per-group stacks of
        :meth:`fit_terms`, batched per group."""
        return self._scatter(np.linalg.solve(np.swapaxes(jac, 1, 2) if trans else jac,
                                             rhs[idx][..., None])[..., 0]
                             for jac, (_, _, idx) in zip(jacobians, self.groups))

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
    the downstream Hessian noise-free.  The prior lives here, in
    ``hyperparams``, which every fit, system, query and oracle reads; the
    hooks take alpha so that sensitivities can difference ``grad_log_prior``
    in it, and no model writes an alpha-derivative.  Another prior is
    another model, ``dataclasses.replace(model, hyperparams=...)``.

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


def elbo(model, m):
    """Expected log joint plus entropy at mean vector m."""
    model.layout.check_mean(m)
    m = np.asarray(m, dtype=float)
    value = (model.expected_log_lik(m) + model.expected_log_prior(m, model.hyperparams)
             + model.layout.entropy(m))
    if not np.isfinite(value):
        raise DomainError(f"objective not finite at the given mean vector ({value})")
    return float(value)


def elbo_grad_mean(model, m):
    """Gradient of the objective in mean coordinates: grad_L(m) - natural(m)."""
    m = np.asarray(m, dtype=float)
    return (model.grad_log_lik(m) + model.grad_log_prior(m, model.hyperparams)
            - model.layout.natural_vector(m))


# The quasi-Newton stage keeps the last MEMORY curvature pairs, tries at
# most LINE_SEARCH steps along a direction, and stops once an iteration
# lowers the objective by at most REL_REDUCTION max(|objective|, 1).
MEMORY = 30
LINE_SEARCH = 60
REL_REDUCTION = 1e-14
# The quasi-Newton stage hands the fit to the Newton polish once its
# largest gradient entry is at most HANDOFF_GRAD.  On the microcredit
# studies of 7 to 300 sites, hand-offs from 0.01 to 0.1 cost about the
# same up to 30 sites (measured with scipy's L-BFGS-B as that stage).
# Above 0.02 the 100- and 300-site polishes start outside the quadratic
# basin and take a second H; at 1.0 they take 5-10 and three times as
# long.  0.05 keeps the bundled fit at one H and 58 evaluations.
HANDOFF_GRAD = 0.05
# A kept factorization serves while its full steps shrink the largest
# gradient entry at least this many times; below tol, while they shrink it.
KEEP_SHRINK = 4.0
# The polish damps B = I - L'HL, which is I where H vanishes, by the first
# of these lam at which B + lam I is positive definite.
DAMPING = (0.0, 1e-8, 1e-6, 1e-4, 1e-2, 1.0)
# Damped Newton steps after the quasi-Newton stage, at most.
POLISH_ITER = 60


@dataclass(frozen=True)
class FitOptions:
    tol: float = 1e-8          # max-abs gradient in unconstrained coordinates
    max_iter: int = 10_000


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

    Deterministic for fixed (model, init, opts).  The per-step objective
    values are kept in ``elbo_trace``.  The quasi-Newton stage
    (:func:`_quasi_newton`, from ``init`` to a largest gradient entry of
    max(HANDOFF_GRAD, tol / 10), at most ``opts.max_iter`` iterations)
    evaluates no point twice; the polish starts from its last evaluation.
    Both stages step through one :func:`_line_search`: a step lowers the
    objective only when it shrinks the largest gradient entry 0.9-fold, and
    by at most 1e-12 max(1, |objective|), below which the change is rounding.
    The mean returned is the one the final iterate's evaluation formed.

    ``alpha``, when given, fits ``replace(model, hyperparams=alpha)``, for
    callers that refit one model at many priors; no code below reads it.
    """
    opts = opts or FitOptions()
    if alpha is not None:
        model = replace(model, hyperparams=alpha)
    layout, prior = model.layout, model.hyperparams
    m0 = np.asarray(init if init is not None else model.default_init(prior), dtype=float)
    layout.check_mean(m0)
    z0 = layout.unconstrained_from_mean(m0)

    def evaluate(z):
        """(-objective, its gradient in z, the layout's fit terms) at z;
        (inf, zeros, None) where the objective is not finite."""
        try:
            with np.errstate(all="ignore"):
                terms = layout.fit_terms(z)
                m, natural, entropy, jacobians = terms
                val = (model.expected_log_lik(m)
                       + model.expected_log_prior(m, prior)
                       + entropy)
                if not np.isfinite(val):
                    return np.inf, np.zeros_like(z), None
                gm = (model.grad_log_lik(m) + model.grad_log_prior(m, prior)
                      - natural)
                gz = layout.jacobian_transpose_times(jacobians, gm)
                if not np.all(np.isfinite(gz)):
                    return np.inf, np.zeros_like(z), None
                return -val, -gz, terms
        except (DomainError, np.linalg.LinAlgError, OverflowError):
            return np.inf, np.zeros_like(z), None

    point = evaluate(z0)
    trace = [-point[0]]
    z, (fz, gz, terms), iterations, reason = _quasi_newton(
        evaluate, z0, point, max(HANDOFF_GRAD, opts.tol / 10.0), opts.max_iter, trace)
    # kept for the error messages: the first sign of a stalled fit
    quasi_newton = f"; quasi-Newton stage stopped after {iterations} iterations: {reason}"

    # Damped Newton polish.  A factorization is kept while its full steps
    # shrink the gradient KEEP_SHRINK-fold; otherwise H is refreshed.  Below
    # tol only full steps from a kept factorization are taken, while they
    # shrink the gradient, down to tol / 100.
    factor = None  # (Cholesky of B + lam I, L) from an earlier iterate
    for _ in range(POLISH_ITER):
        gnorm = np.max(np.abs(gz))
        if gnorm <= opts.tol / 100.0:
            break
        try:
            step = None if factor is None else _factored_step(layout, factor, terms, gz)
        except np.linalg.LinAlgError:  # a singular J
            step = None
        fresh = step is None
        if fresh and gnorm <= opts.tol:
            break  # below tol, only full steps from a kept factorization
        if fresh:
            try:
                factor, step = _newton_factor(model, terms, gz)
            except (DomainError, np.linalg.LinAlgError):
                # a singular J, or a Hessian step that left the domain
                factor, step = None, -gz
        # a kept factorization: full steps only
        found = _line_search(evaluate, z, fz, gz, step, LINE_SEARCH if fresh else 1)
        iterations += 1
        if found is not None:
            scale, (fz, gz, terms) = found
            z = z + scale * step
            trace.append(-fz)
        keep = KEEP_SHRINK if np.max(np.abs(gz)) > opts.tol else 1.0
        if found is None or scale < 1.0 or np.max(np.abs(gz)) > gnorm / keep:
            factor = None
        if found is None and fresh:
            if gnorm <= 1e3 * opts.tol:
                break  # stuck at rounding floor near the optimum
            raise DomainViolation(
                f"backtracking failed at gradient norm {gnorm:.3g}{quasi_newton}")

    if not np.isfinite(fz):
        raise DomainViolation(f"objective is not finite at the final iterate{quasi_newton}")
    grad_norm = float(np.max(np.abs(gz)))
    converged = grad_norm <= opts.tol
    solution = VbSolution(mean=terms[0], elbo=float(-fz), iterations=iterations,
                          converged=converged, grad_norm=grad_norm,
                          elbo_trace=tuple(trace))
    if not converged:
        raise NonConvergence(
            f"gradient norm {grad_norm:.3g} above tol {opts.tol:g} "
            f"after {iterations} iterations{quasi_newton}", solution=solution)
    return solution


def _quasi_newton(evaluate, z, point, gtol, max_iter, trace):
    """L-BFGS on ``evaluate`` from z, where point = evaluate(z), until the
    largest gradient entry is at most gtol, after max_iter iterations, or
    once an iteration lowers the objective by at most REL_REDUCTION
    max(|f|, |f_new|, 1).  Appends -f at each iterate to ``trace``.
    Returns (z, evaluate(z), iterations, the reason for stopping).

    The direction is -H g for the inverse Hessian of the last MEMORY pairs
    s = z_new - z, y = g_new - g in the compact form of Byrd, Nocedal &
    Schnabel (1994), H = gamma I + [S Y] M [S Y]' with gamma =
    s'y / y'y of the newest pair, M built from the upper triangle R and
    the diagonal D of S'Y and from Y'Y.  A pair with s'y <= eps y'y is not
    kept.  Without pairs the step is steepest descent of length one.  The
    step length comes from :func:`_line_search`, within LINE_SEARCH
    steps; when they all fail, the pairs are dropped and steepest descent
    is tried once more before the stage gives up.
    """
    f, g, terms = point
    n = z.size
    # rows [0, k) hold the pairs, oldest first; sy[i, j] = s_i'y_j for i <= j
    s_mem, y_mem = np.zeros((MEMORY, n)), np.zeros((MEMORY, n))
    sy, yy = np.zeros((MEMORY, MEMORY)), np.zeros((MEMORY, MEMORY))
    k = iterations = 0
    with np.errstate(all="ignore"):  # an overflowing pair is not kept
        while True:
            if np.max(np.abs(g)) <= gtol:
                reason = f"largest gradient entry <= {gtol:g}"
                break
            if iterations >= max_iter:
                reason = "iteration limit reached"
                break
            if k:
                d = -_compact_times(s_mem[:k], y_mem[:k], sy[:k, :k], yy[:k, :k], g)
            if not k or not d @ g < 0:  # no pairs, or not a finite descent direction
                k = 0
                gmax = np.max(np.abs(g))
                d = -g / gmax / np.linalg.norm(g / gmax)
            found = _line_search(evaluate, z, f, g, d, LINE_SEARCH)
            if found is None:
                if not k:
                    reason = "line search failed"
                    break
                k = 0
                continue
            step, (f_new, g_new, terms_new) = found
            s, y = step * d, g_new - g
            reduction = (f - f_new) / max(abs(f), abs(f_new), 1.0)
            z, f, g, terms = z + s, f_new, g_new, terms_new
            trace.append(-f)
            iterations += 1
            if s @ y > np.finfo(float).eps * (y @ y):
                if k == MEMORY:
                    s_mem[:-1], y_mem[:-1] = s_mem[1:], y_mem[1:]
                    sy[:-1, :-1], yy[:-1, :-1] = sy[1:, 1:], yy[1:, 1:]
                    k -= 1
                s_mem[k], y_mem[k] = s, y
                sy[:k + 1, k] = s_mem[:k + 1] @ y
                yy[:k + 1, k] = yy[k, :k + 1] = y_mem[:k + 1] @ y
                k += 1
            if reduction <= REL_REDUCTION:
                reason = f"relative reduction <= {REL_REDUCTION:g}"
                break
    return z, (f, g, terms), iterations, reason


def _line_search(evaluate, z, f, g, d, tries):
    """(step, evaluate(z + step d)) for the first of at most ``tries``
    steps along d from z, where (f, g) are the objective and gradient at z,
    that lowers f by the Armijo rule, f_new <= f + 1e-4 step d'g, or raises
    it by at most 1e-12 max(1, |f|) while shrinking the largest gradient
    entry 0.9-fold: near the optimum the objective's change drops below
    float resolution.  None when every step fails.  The first step is 1; a
    failed one shrinks to the minimizer of the quadratic through f, its
    slope and f_new, within [0.1, 0.5] of it, and halves past a non-finite
    objective."""
    with np.errstate(all="ignore"):  # an overflowing slope or quadratic
        slope, step = d @ g, 1.0
        floor, gmax = 1e-12 * max(1.0, abs(f)), np.max(np.abs(g))
        for _ in range(tries):
            point = evaluate(z + step * d)
            f_new, g_new = point[:2]
            if f_new <= f + 1e-4 * step * slope or (
                    f_new <= f + floor and np.max(np.abs(g_new)) < 0.9 * gmax):
                return step, point
            q = -0.5 * slope * step / (f_new - f - slope * step)
            step *= min(max(q, 0.1), 0.5) if np.isfinite(f_new) and np.isfinite(q) else 0.5
    return None


def _compact_times(s_mem, y_mem, sy, yy, g):
    """H g for the compact L-BFGS inverse Hessian of the pairs (rows of
    s_mem, y_mem), with sy's upper triangle S'Y and yy = Y'Y:
    gamma g + S R^-T ((D + gamma Y'Y) u - gamma Y'g) - gamma Y u, where
    u = R^-1 S'g."""
    r = np.triu(sy)
    gamma = sy[-1, -1] / yy[-1, -1]
    u = scipy.linalg.solve_triangular(r, s_mem @ g, check_finite=False)
    w = scipy.linalg.solve_triangular(r, np.diag(r) * u + gamma * (yy @ u - y_mem @ g),
                                      trans="T", check_finite=False)
    return gamma * g + s_mem.T @ w - gamma * (y_mem.T @ u)


def _newton_factor(model, terms, grad):
    """(factorization, step) at the point of the layout's fit terms: the
    Newton step on -ELBO from the (Cholesky factors of B + lam I, L) at the
    first lam of DAMPING where they exist; else (None, steepest descent)."""
    _, _, chol, b = linear_response(model, terms[0])
    for damping in DAMPING:
        try:
            factor = (scipy.linalg.cho_factor(b + damping * np.eye(b.shape[0])), chol)
        except (ValueError, np.linalg.LinAlgError):  # indefinite, or not finite
            continue
        return factor, _factored_step(model.layout, factor, terms, grad)
    return None, -grad


def _factored_step(layout, factor, terms, grad):
    """The Newton step from a kept (Cholesky of B + lam I, L) at the point
    of the fit terms: J^-1 dm with dm = L (B + lam I)^-1 L' g, J' g = -grad."""
    (cho, chol), jacobians = factor, terms[3]
    g = layout.mean_jacobian_solve(jacobians, -grad, trans=True)
    dm = times_chol(layout, chol,
                    scipy.linalg.cho_solve(cho, times_chol(layout, chol, g)), trans=True)
    return layout.mean_jacobian_solve(jacobians, dm)
