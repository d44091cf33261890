"""Linear-response covariance correction at a converged fit.

At the optimum the fitted mean vector solves ``natural(m) = grad_L(m)``.
Differentiating that fixed point under perturbations of the objective
turns the block-diagonal statistic covariance V into the corrected
covariance

    sigma_hat = (I - V H)^-1 V,     H = d^2 L / dm dm'

which also prices the response of any smooth function of the means to
any smooth perturbation direction via ``grad_h' sigma_hat grad_f``.

H is :func:`lrvb.mfvb.hessian_of_objective`, central differences of the
model's analytic gradient of L in mean coordinates (relative step
HESSIAN_REL_STEP): every column on its own, or, for a model that declares
``local_groups``, each coordinate outside the groups on its own and one
position of every group at a time, with the rows outside the groups
filled in by symmetry.  The fit's Newton polish uses the same H:
(I - VH) = -V (H - V^-1), and H - V^-1 is the objective's Hessian in m.
An independent full second-difference Hessian of the scalar objective
is used by the test suite to validate this path.  The factorization is
a dense LU: target model sizes are O(10^2) coordinates.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NonConvergence, SingularSystem
from .mfvb import HESSIAN_REL_STEP, hessian_of_objective  # noqa: F401

CONDITION_LIMIT = 1e12
SYMMETRY_WARN = 1e-6


@dataclass(frozen=True)
class LrvbSystem:
    """V, H, the corrected covariance, and a reusable factorized solve."""

    mean: np.ndarray
    v: np.ndarray
    h: np.ndarray
    sigma_hat: np.ndarray
    condition: float
    _lu: tuple = field(repr=False, default=None)

    @property
    def dim(self):
        return self.mean.size

    def solve(self, rhs):
        """Apply sigma_hat through the factorization: (I - VH)^-1 (V rhs)."""
        rhs = np.asarray(rhs, dtype=float)
        return scipy.linalg.lu_solve(self._lu, self.v @ rhs)

    def solve_identity_minus_vh(self, rhs):
        """Apply (I - VH)^-1 to rhs (columns solved jointly for matrices)."""
        return scipy.linalg.lu_solve(self._lu, np.asarray(rhs, dtype=float))

    def solve_transpose(self, lhs):
        """Return (I - VH)^-T lhs, i.e. row-vector solves lhs' (I - VH)^-1."""
        return scipy.linalg.lu_solve(self._lu, np.asarray(lhs, dtype=float), trans=1)


def build_system(model, sol, alpha=None):
    """Assemble the linear-response system at a converged solution."""
    if not sol.converged:
        raise NonConvergence("linear-response system requires a converged solution")
    m = np.asarray(sol.mean, dtype=float)
    v = model.layout.suff_stat_cov(m)
    h = hessian_of_objective(model, m, alpha)
    system = np.eye(m.size) - v @ h
    condition = float(np.linalg.cond(system))
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise SingularSystem(
            f"(I - VH) condition number {condition:.3g} exceeds {CONDITION_LIMIT:.0e}; "
            "the optimum is degenerate or not interior")
    lu = scipy.linalg.lu_factor(system)
    sigma = scipy.linalg.lu_solve(lu, v)
    asym = float(np.max(np.abs(sigma - sigma.T)))
    scale = max(float(np.max(np.abs(sigma))), 1e-300)
    if asym > SYMMETRY_WARN * scale:
        warnings.warn(
            f"corrected covariance asymmetry {asym:.3g} exceeds "
            f"{SYMMETRY_WARN:g} of its scale; check convergence", RuntimeWarning)
    sigma = (sigma + sigma.T) / 2.0
    return LrvbSystem(mean=m.copy(), v=v, h=h, sigma_hat=sigma,
                      condition=condition, _lu=lu)


def function_sensitivity(sys, grad_h, grad_f):
    """Bilinear response grad_h' sigma_hat grad_f."""
    grad_h = np.asarray(grad_h, dtype=float)
    grad_f = np.asarray(grad_f, dtype=float)
    if grad_h.shape != (sys.dim,) or grad_f.shape != (sys.dim,):
        raise DimensionMismatch(
            f"gradients must have shape ({sys.dim},), got {grad_h.shape} and {grad_f.shape}")
    return float(grad_h @ sys.sigma_hat @ grad_f)
