"""Linear-response covariance correction at a converged fit.

At the optimum the fitted mean vector solves ``natural(m) = grad_L(m)``.
Differentiating that fixed point under perturbations of the objective
turns the block-diagonal statistic covariance V into the corrected
covariance

    sigma_hat = (I - V H)^-1 V,     H = d^2 L / dm dm'

which also prices the response of any smooth function of the means to
any smooth perturbation direction via ``grad_h' sigma_hat grad_f``.

H is :func:`hessian_of_objective`, central differences of the model's
analytic gradient of L in mean coordinates (relative step
HESSIAN_REL_STEP): every column on its own, or, for a model that declares
``local_groups``, each coordinate outside the groups on its own and one
position of every group at a time, with the rows outside the groups
filled in by symmetry.  An independent full second-difference Hessian of
the scalar objective is used by the test suite to validate this path.

sigma_hat inverts A = V^-1 - H, minus the objective's Hessian in m.
:func:`linear_response` factors V = LL' block by block and forms
B = L'AL = I - L'HL, never inverting V, whose inverse-gamma blocks have
condition numbers near 1e7.  A Cholesky factorization of B gives
:func:`build_system` sigma_hat = L B^-1 L' and the fit's Newton polish its
step L (B + lam I)^-1 L' g; where B has none, m is no strict maximum.
Where a block of V has no Cholesky factor, :func:`build_system` raises
SingularSystem and the polish falls back to steepest descent.

This module is the only one in the package that knows sigma_hat is a
dense matrix.  Everything else asks :class:`LrvbSystem` for an operation:
``solve(g)`` for sigma_hat g, :func:`function_sensitivity` for
g' sigma_hat f, ``variances(idx)`` for its diagonal, and
``response_columns``, ``solve_identity_minus_vh`` and ``solve_transpose``
for (I - VH)^-1 = I + sigma_hat H.  The dense fields ``v``, ``h`` and
``sigma_hat`` stay readable for tests, demos and the benchmark.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NonConvergence, SingularSystem
from .expfam import FAMILIES
from .util import fd_jacobian

HESSIAN_REL_STEP = 1e-5
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class LrvbSystem:
    """V, H and the corrected covariance, with the queries that use them.

    Queries: ``solve`` (sigma_hat g), ``variances`` (its diagonal),
    ``solve_identity_minus_vh``, ``solve_transpose`` and
    ``response_columns`` ((I - VH)^-1 = I + sigma_hat H), and
    ``fitted_natural``.  Only this module, tests, demos and the
    benchmark read the dense fields ``v``, ``h`` and ``sigma_hat``.

    What influence queries reuse per system -- response columns and a
    block's fitted natural parameters -- is computed on first use and kept
    in ``_memo``, keyed by content, read-only, and outside equality and
    repr.
    """

    mean: np.ndarray
    v: np.ndarray
    h: np.ndarray
    sigma_hat: np.ndarray
    condition: float
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def dim(self):
        return self.mean.size

    def solve(self, rhs):
        """sigma_hat rhs, the response of every mean to the gradient rhs."""
        return self.sigma_hat @ np.asarray(rhs, dtype=float)

    def variances(self, idx=None):
        """sigma_hat's diagonal, or its entries at the coordinates idx."""
        diag = np.diag(self.sigma_hat)
        return diag if idx is None else diag[idx]

    def solve_identity_minus_vh(self, rhs):
        """(I - VH)^-1 rhs = rhs + sigma_hat H rhs, for vectors or matrices."""
        rhs = np.asarray(rhs, dtype=float)
        return rhs + self.sigma_hat @ (self.h @ rhs)

    def solve_transpose(self, lhs):
        """(I - VH)^-T lhs = lhs + H sigma_hat lhs, i.e. lhs' (I - VH)^-1."""
        lhs = np.asarray(lhs, dtype=float)
        return lhs + self.h @ (self.sigma_hat @ lhs)

    def response_columns(self, idx):
        """(I - VH)^-1 restricted to the columns ``idx``, shape (dim, len(idx)):
        one product with their unit columns on first use, stored column by
        column, as influence grids read one column at a time."""
        key = ("columns",) + tuple(int(i) for i in idx)
        if key not in self._memo:
            unit = np.zeros((self.dim, len(key) - 1))
            unit[key[1:], np.arange(unit.shape[1])] = 1.0
            self._memo[key] = _read_only(np.asfortranarray(self.solve_identity_minus_vh(unit)))
        return self._memo[key]

    def fitted_natural(self, sl, family, var_dim):
        """Natural parameters of the fitted block at ``sl`` of the means."""
        key = ("natural", sl.start, sl.stop, family, var_dim)
        if key not in self._memo:
            self._memo[key] = _read_only(
                FAMILIES[family].natural_from_mean(self.mean[sl], var_dim))
        return self._memo[key]


def _read_only(arr):
    arr = np.asarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def hessian_of_objective(model, m):
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
    columns, owner = model._hessian_columns
    hess = fd_jacobian(
        lambda x: model.grad_log_lik(x) + model.grad_log_prior(x, model.hyperparams),
        np.asarray(m, dtype=float), rel_step=HESSIAN_REL_STEP, columns=columns)
    own = (owner[None, :] < 0) | (owner[:, None] == owner[None, :])
    hess = np.where(own, hess, np.where(owner[:, None] < 0, hess.T, 0.0))
    return (hess + hess.T) / 2.0


def linear_response(model, m):
    """(V, H, L, B) at the mean vector m: L the per-group stacks of the
    Cholesky factors of V's blocks, so that V = L L' with L block diagonal,
    and B = I - L'HL, which is L^-1 (I - VH) L."""
    layout = model.layout
    v, h = layout.suff_stat_cov(m), hessian_of_objective(model, m)
    chol = [np.linalg.cholesky(v[idx[:, :, None], idx[:, None, :]])
            for _, _, idx in layout.groups]
    lhl = times_chol(layout, chol, times_chol(layout, chol, h).T)  # (HL)'L
    return v, h, chol, np.eye(m.size) - lhl


def times_chol(layout, chol, x, trans=False):
    """x L (x L' with ``trans``) for the block-diagonal L of the per-group
    stacks ``chol``, over x's last axis: L'x and Lx for a vector x.  Each
    group is one stacked matmul over its blocks."""
    rows = np.reshape(x, (-1, x.shape[-1]))
    out = np.empty_like(rows)
    for c, (_, _, idx) in zip(chol, layout.groups):
        out[:, idx] = np.swapaxes(np.swapaxes(rows[:, idx], 0, 1)
                                  @ (np.swapaxes(c, 1, 2) if trans else c), 0, 1)
    return out.reshape(x.shape)


def build_system(model, sol):
    """Assemble the linear-response system at a converged solution:
    sigma_hat = X'X, X = R^-1 L' with B = RR', exactly symmetric."""
    if not sol.converged:
        raise NonConvergence("linear-response system requires a converged solution")
    m = np.asarray(sol.mean, dtype=float)
    try:
        v, h, chol, b = linear_response(model, m)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("a block of V has no Cholesky factor; the fitted "
                             "statistics are degenerate") from exc
    condition = float(np.linalg.cond(np.eye(m.size) - v @ h))
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise SingularSystem(
            f"(I - VH) condition number {condition:.3g} exceeds {CONDITION_LIMIT:.0e}; "
            "the optimum is degenerate or not interior")
    try:
        r = scipy.linalg.cholesky(b, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("I - L'HL is not positive definite; the fit "
                             "stopped at a saddle point, not a maximum") from exc
    r_inv, _ = scipy.linalg.lapack.dtrtri(r, lower=1)
    x = times_chol(model.layout, chol, r_inv, trans=True)
    return LrvbSystem(mean=m.copy(), v=v, h=h, sigma_hat=x.T @ x, condition=condition)


def function_sensitivity(sys, grad_h, grad_f):
    """Bilinear response grad_h' sigma_hat grad_f, through ``sys.solve``."""
    grad_h = np.asarray(grad_h, dtype=float)
    grad_f = np.asarray(grad_f, dtype=float)
    if grad_h.shape != (sys.dim,) or grad_f.shape != (sys.dim,):
        raise DimensionMismatch(
            f"gradients must have shape ({sys.dim},), got {grad_h.shape} and {grad_f.shape}")
    return float(grad_h @ sys.solve(grad_f))
