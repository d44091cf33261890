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

The polish and the linear-response system share one Hessian,
``H = d^2 L / dm dm'`` from :func:`hessian_of_objective`: central
differences of L's analytic gradient, one column at a time except where
the model declares ``local_groups`` of blocks that couple only with
themselves and the blocks outside every group.  Those columns are
differenced a position of every group at a time, so a hierarchical model
pays the same number of gradient calls at any number of groups.  The
entropy's gradient is ``-natural(m)`` and ``d natural / dm = V^-1``, so the
objective's Hessian in m is ``H - V^-1``; in z it is ``J' (H - V^-1) J``
(``J = dm/dz``) plus a gradient term that vanishes at the optimum.  The
polish minimizes -ELBO, so it uses ``-J' (H - V^-1) J``.

ModelSpec and VbSolution are immutable after construction.  Fits call
into the same BLAS library as every other stage, and concurrent calls
from threads of one process have not been shown safe with it; run
independent fits in separate processes.
"""

import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import DomainError, DomainViolation, NonConvergence
from .expfam import FAMILIES, Family
from .util import chol_from_logchol, fd_jacobian, tril, tril_diag, unvech, vech_dim

HESSIAN_REL_STEP = 1e-5


@dataclass(frozen=True)
class BlockDef:
    """Name, family, and underlying-variable dimension of one factor."""

    name: str
    family: Family
    var_dim: int = 1
    labels: tuple = ()

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels", (self.name,))

    @property
    def stat_dim(self):
        return FAMILIES[self.family].stat_dim(self.var_dim)


class Layout:
    """Stacked coordinate bookkeeping for an ordered list of blocks.

    Blocks of one family and variable dimension form a group.  ``groups``
    holds (family, var_dim, idx) per group, idx being the (n_blocks,
    stat_dim) positions of its blocks in the stacked vector, so each fit and
    linear-response map is one batched family call per group (see
    :mod:`lrvb.expfam`) and never loops over blocks.  The exception inside
    them is the Wishart dof solve, a ``brentq`` per Wishart block; no model
    has more than one.  The sampler-coordinate methods serve the oracles'
    per-block dicts and stay per block.
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

    def __iter__(self):
        return iter(self.blocks)

    def block_index(self, name):
        return self._index[name]

    def slice_of(self, block):
        i = block if isinstance(block, int) else self._index[block]
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def split(self, m):
        return [np.asarray(m)[self.slice_of(i)] for i in range(len(self.blocks))]

    def coord_names(self):
        names = []
        for b in self.blocks:
            lab = b.labels
            if b.family in (Family.GAUSSIAN_UNIVARIATE, Family.GAUSSIAN_MULTIVARIATE):
                names.extend(lab)
                names.extend(f"{lab[i]}*{lab[j]}" for i, j in zip(*tril(b.var_dim)))
            elif b.family is Family.GAMMA:
                names.extend([lab[0], f"log({lab[0]})"])
            elif b.family is Family.INVERSE_GAMMA:
                names.extend([f"1/{lab[0]}", f"log({lab[0]})"])
            else:  # Wishart
                names.extend(f"{b.name}[{i},{j}]" for i, j in zip(*tril(b.var_dim)))
                names.append(f"logdet({b.name})")
        return names

    def location_indices(self, block=None):
        """Indices of plain location statistics (Gaussian blocks only)."""
        items = self.blocks if block is None else (
            self.blocks[block if isinstance(block, int) else self._index[block]],)
        gaussian = (Family.GAUSSIAN_UNIVARIATE, Family.GAUSSIAN_MULTIVARIATE)
        return np.array([self.offsets[self._index[b.name]] + c for b in items
                         if b.family in gaussian for c in range(b.var_dim)], dtype=int)

    def coord_index(self, name):
        return self.coord_names().index(name)

    def hessian_columns(self, local_groups):
        """Column sets for the objective Hessian's differences, and each
        coordinate's local group (-1 outside every group).

        ``local_groups`` holds groups of block names.  Coordinates outside
        every group are stepped one at a time; the p-th coordinate of every
        group, in layout order, is stepped together with the others.
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
        columns = ([[j] for j in np.flatnonzero(owner < 0)]
                   + [np.array([g[p] for g in members if p < g.size]) for p in range(width)])
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

    def _entropy(self, pairs):
        """Sum of A(eta) - eta . m (unit base measures) from (eta, m) per group."""
        total = 0.0
        for (fam, _, _), (eta, m) in zip(self.groups, pairs):
            # a row-by-column matmul takes each block's eta . m with the
            # same BLAS dot as a 1-D eta @ m
            dot = (eta[:, None, :] @ m[:, :, None])[:, 0, 0]
            total += np.sum(fam.log_partition(eta) - dot)
        return float(total)

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
        m = np.asarray(m, dtype=float)
        return self._entropy((fam.natural_from_mean(m[idx], var_dim), m[idx])
                             for fam, var_dim, idx in self.groups)

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
        def pairs():
            for fam, _, idx in self.groups:
                params = fam.standard_from_unconstrained(z[idx])
                yield fam.natural_from_standard(*params), fam.mean_from_standard(*params)
        return self._entropy(pairs())

    def mean_jacobian(self, z):
        """Block-diagonal d mean / d unconstrained."""
        return self._block_diagonal(fam.mean_jacobian_unconstrained(z[idx])
                                    for fam, _, idx in self.groups)

    # --- underlying-variable (sampler/oracle) coordinates -----------------
    # The per-block unconstrained value vector also has one coordinate per
    # scalar degree of freedom: identity for Gaussians, log for positive
    # scalars, log-Cholesky for matrices.

    def value_dims(self):
        # scalar blocks have var_dim 1
        return [vech_dim(b.var_dim) if b.family is Family.WISHART else b.var_dim
                for b in self.blocks]

    def value_dim(self):
        return sum(self.value_dims())

    def values_from_sampler(self, zv):
        """Map an unconstrained sampler vector to per-block variable values.

        Returns (values dict, total log-Jacobian of the transform).
        """
        values = {}
        logjac = 0.0
        pos = 0
        for b, d in zip(self.blocks, self.value_dims()):
            x, lj = FAMILIES[b.family].value_from_unconstrained(zv[pos:pos + d])
            if b.family is Family.GAUSSIAN_UNIVARIATE or (
                    b.family in (Family.GAMMA, Family.INVERSE_GAMMA)):
                x = float(np.asarray(x).reshape(-1)[0])
            values[b.name] = x
            logjac += lj
            pos += d
        return values, logjac

    def sampler_from_values(self, values):
        parts = []
        for b in self.blocks:
            parts.append(np.atleast_1d(
                FAMILIES[b.family].unconstrained_from_value(values[b.name])))
        return np.concatenate(parts)

    def suff_stats_of_values(self, values):
        """Stacked sufficient statistics of one draw, in mean layout."""
        out = np.empty(self.dim)
        for i, b in enumerate(self.blocks):
            stats = FAMILIES[b.family].suff_stats(values[b.name])
            out[self.slice_of(i)] = stats[0]
        return out

    def representative_values(self, m):
        """Central per-block variable values, e.g. to seed a sampler."""
        values = {}
        for b, mb in zip(self.blocks, self.split(m)):
            fam = FAMILIES[b.family]
            if b.family is Family.GAUSSIAN_UNIVARIATE:
                values[b.name] = float(mb[0])
            elif b.family is Family.GAUSSIAN_MULTIVARIATE:
                values[b.name] = np.asarray(mb[:b.var_dim], dtype=float)
            elif b.family in (Family.GAMMA, Family.INVERSE_GAMMA):
                shape, rate = fam.standard_from_mean(np.asarray(mb, dtype=float))
                if b.family is Family.GAMMA:
                    values[b.name] = shape / rate
                else:
                    values[b.name] = rate / max(shape - 1.0, 0.5)
            else:
                values[b.name] = unvech(mb[:-1], b.var_dim)  # E[X]
        return values

    def suff_stats_of_sampler_matrix(self, zmat):
        """Vectorized sufficient statistics for rows of sampler draws."""
        zmat = np.asarray(zmat, dtype=float)
        n = zmat.shape[0]
        out = np.empty((n, self.dim))
        pos = 0
        for i, (b, d) in enumerate(zip(self.blocks, self.value_dims())):
            sl = self.slice_of(i)
            z = zmat[:, pos:pos + d]
            if b.family is Family.GAUSSIAN_UNIVARIATE:
                out[:, sl] = np.column_stack([z[:, 0], z[:, 0] ** 2])
            elif b.family is Family.GAUSSIAN_MULTIVARIATE:
                rows, cols = tril(b.var_dim)
                out[:, sl] = np.column_stack([z, z[:, rows] * z[:, cols]])
            elif b.family in (Family.GAMMA, Family.INVERSE_GAMMA):
                first = np.exp(z[:, 0]) if b.family is Family.GAMMA else np.exp(-z[:, 0])
                out[:, sl] = np.column_stack([first, z[:, 0]])
            else:  # Wishart: log-Cholesky coordinates
                chol = chol_from_logchol(z)
                logdet = (2.0 * z[:, tril_diag(b.var_dim)]).sum(axis=1)
                mats = np.einsum("nij,nkj->nik", chol, chol)
                rows, cols = tril(b.var_dim)
                out[:, sl] = np.column_stack([mats[:, rows, cols], logdet])
            pos += d
        return out


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

    def with_updates(self, **updates):
        unknown = set(updates) - set(self._entries)
        if unknown:
            raise KeyError(f"unknown hyperparameters {sorted(unknown)}; "
                           f"valid keys: {sorted(self._entries)}")
        merged = dict(self._entries)
        merged.update(updates)
        return Hyperparams(merged)

    def perturbed(self, direction, t):
        """Shift by t along a {name: coefficient} direction."""
        updates = {k: self._entries[k] + t * v for k, v in direction.items()}
        return self.with_updates(**updates)

    def __repr__(self):
        inner = ", ".join(f"{k}={v:g}" for k, v in self._entries.items())
        return f"Hyperparams({inner})"


@dataclass(frozen=True)
class ModelSpec:
    """Blocks plus differentiable expected log likelihood and log prior.

    ``expected_log_lik(m)`` and ``expected_log_prior(m, alpha)`` must be
    deterministic closed forms of the mean vector; their gradients are
    exact, which is what lets the fit reach tight tolerances and keeps
    the downstream Hessian noise-free.

    Optional hooks:

    * ``prior_alpha_grad(m, alpha, direction)`` -- analytic
      d/dm [d expected_log_prior / d alpha . direction]; when absent the
      robustness module falls back to differencing ``grad_log_prior``
      over alpha.
    * ``prior_block_logpdf`` -- per-block marginal prior log density for
      the blocks across which the prior factorizes (required by
      influence-function and contamination queries on that block).
      ``prior_block_logpdf[name](name, x, alpha)`` maps one block value to
      a float and an array of n values (shape (n,), or (n, d) for a
      d-dimensional block) to an (n,) array, as the family's ``log_density``.
    * ``log_lik_values`` / ``log_prior_values`` -- pointwise log
      likelihood and prior over a dict of per-block variable values; used
      by the MCMC and quadrature oracles, never by the fit itself.
    * ``exact_posterior(alpha)`` -- closed-form posterior expected
      statistics in the mean layout and the log evidence (or None), for
      conjugate models; read by :func:`lrvb.oracle.exact_conjugate_posterior`.
    * ``local_groups`` -- groups of block names, such as one site's blocks
      of a hierarchical model.  A group promises that its coordinates
      couple in ``H = d^2 L / dm dm'`` only with themselves and with the
      blocks outside every group, so :func:`hessian_of_objective` steps the
      same coordinate of every group at once (see
      :meth:`Layout.hessian_columns`).  Construction raises ValueError
      when a group names an unknown block or a block is named twice.  A
      wrong promise gives a wrong H; nothing checks it at run time.
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
    prior_alpha_grad: Optional[Callable] = None
    prior_block_logpdf: Mapping = field(default_factory=dict)
    log_lik_values: Optional[Callable] = None
    log_prior_values: Optional[Callable] = None
    exact_posterior: Optional[Callable] = None
    # optional factory alpha -> (sampler vector -> log posterior + Jacobian)
    # for hot sampling loops; it must equal log_lik_values + log_prior_values
    # plus the values_from_sampler Jacobian, and may carry the cached
    # ``coordinate_moves`` of lrvb.oracle.metropolis_sample.  Microcredit's
    # hook, its moves and its dict hooks share one formula over cached site
    # statistics, checked by tests/test_microcredit_reference.py.
    sampler_log_posterior: Optional[Callable] = None
    local_groups: tuple = ()
    # (column sets, coordinate groups) of Layout.hessian_columns
    _hessian_columns: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hessian_columns",
                           self.layout.hessian_columns(self.local_groups))

    def resolve_alpha(self, alpha):
        return self.hyperparams if alpha is None else alpha


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


def hessian_of_objective(model, m, alpha=None):
    """H = d^2 L / dm dm' by central differences of L's analytic gradient.

    Each coordinate outside the model's ``local_groups`` is differenced on
    its own.  The p-th coordinate of every group is stepped at once, and
    each group's rows of that difference are read as its own column; the
    rows outside every group come from the single columns by symmetry,
    and the other groups' rows are zero.  That is two gradient calls per
    single coordinate plus two per position of the largest group, at any
    number of groups (Powell & Toint 1979).  A model that declares no
    groups has every column differenced on its own.
    """
    alpha = model.resolve_alpha(alpha)
    columns, owner = model._hessian_columns
    hess = fd_jacobian(lambda x: model.grad_log_lik(x) + model.grad_log_prior(x, alpha),
                       np.asarray(m, dtype=float), rel_step=HESSIAN_REL_STEP,
                       columns=columns)
    own = (owner[None, :] < 0) | (owner[:, None] == owner[None, :])
    hess = np.where(own, hess, np.where(owner[:, None] < 0, hess.T, 0.0))
    return (hess + hess.T) / 2.0


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

    # Damped Newton polish: quasi-Newton alone rarely reaches 1e-8.
    for _ in range(opts.polish_iter):
        gnorm = np.max(np.abs(gz))
        if gnorm <= opts.tol:
            break
        try:
            step = _newton_direction(_polish_hessian(model, z, alpha), gz)
        except np.linalg.LinAlgError:  # singular covariance: steepest descent
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
                f"backtracking failed at gradient norm {gnorm:.3g}")

    if not np.isfinite(fz):
        raise DomainViolation("objective is not finite at the final iterate")
    grad_norm = float(np.max(np.abs(gz)))
    converged = grad_norm <= opts.tol
    mean = layout.mean_from_unconstrained(z)
    solution = VbSolution(mean=mean, elbo=float(-fz), iterations=iterations,
                          converged=converged, grad_norm=grad_norm,
                          elbo_trace=tuple(trace))
    if not converged:
        raise NonConvergence(
            f"gradient norm {grad_norm:.3g} above tol {opts.tol:g} "
            f"after {iterations} iterations", solution=solution)
    return solution


def _polish_hessian(model, z, alpha):
    """-J' (H - V^-1) J: the Hessian of -ELBO in z, exact at the optimum."""
    layout = model.layout
    m, jac = layout.mean_from_unconstrained(z), layout.mean_jacobian(z)
    curv = hessian_of_objective(model, m, alpha) - np.linalg.inv(layout.suff_stat_cov(m))
    return -jac.T @ curv @ jac


def _newton_direction(hess, grad):
    n = hess.shape[0]
    damping = 0.0
    for _ in range(12):
        try:
            with warnings.catch_warnings():
                # a system with rcond below machine epsilon is as good as singular
                warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
                step = scipy.linalg.solve(hess + damping * np.eye(n), -grad,
                                          assume_a="sym")
            if np.all(np.isfinite(step)) and step @ (-grad) > 0:
                return step
        except (ValueError, scipy.linalg.LinAlgWarning):
            pass  # singular, ill-conditioned, or curvature that overflowed
        damping = max(2.0 * damping, 1e-8 * max(np.max(np.abs(hess)), 1.0))
    return -grad  # fall back to steepest descent
