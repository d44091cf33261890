"""Small numerical helpers: half-vectorization, 1-D inversions, derivatives.

The matrix helpers treat leading axes as batch axes, as the family maps in
:mod:`lrvb.expfam` do.
"""

import functools

import numpy as np
from scipy.special import gammaln, psi, zeta

from .errors import DomainError


def digamma(x):
    return psi(x)


def trigamma(x):
    # polygamma(1, x) is this value, reached through a Python-level wrapper
    return zeta(2, x)


@functools.lru_cache(maxsize=None)
def tril(k):
    """Row and column indices of the k x k lower triangle, row-major.

    This is the one layout of every half-vectorized coordinate vector in
    the package.  The arrays are cached and read-only.
    """
    rows, cols = np.tril_indices(k)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@functools.lru_cache(maxsize=None)
def tril_diag(k):
    """Positions of the diagonal entries within the :func:`tril` layout."""
    rows, cols = tril(k)
    pos = np.flatnonzero(rows == cols)
    pos.setflags(write=False)
    return pos


def vech(mat):
    """Lower triangle of a symmetric matrix in row-major order."""
    mat = np.asarray(mat, dtype=float)
    rows, cols = tril(mat.shape[-1])
    return mat[..., rows, cols]


def unvech(v, k):
    """Inverse of :func:`vech` for a k x k symmetric matrix."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (k, k))
    rows, cols = tril(k)
    out[..., rows, cols] = v
    out[..., cols, rows] = v
    return out


def vech_dim(k):
    return k * (k + 1) // 2


def dim_from_vech(n):
    k = int(round((np.sqrt(8 * n + 1) - 1) / 2))
    if vech_dim(k) != n:
        raise ValueError(f"{n} is not a triangular number")
    return k


def vech_dup(mat):
    """vech with off-diagonal entries doubled.

    If ``eta = vech_dup(B)`` then ``eta @ vech(X) == trace(B @ X)`` for
    symmetric X, which is the coefficient layout used for matrix-valued
    natural parameters.
    """
    mat = np.asarray(mat, dtype=float)
    rows, cols = tril(mat.shape[-1])
    return vech(mat) * np.where(rows == cols, 1.0, 2.0)


def unvech_half(v, k):
    """Inverse of :func:`vech_dup`."""
    rows, cols = tril(k)
    return unvech(np.asarray(v, dtype=float) * np.where(rows == cols, 1.0, 0.5), k)


def chol_from_logchol(z):
    """Lower Cholesky factor from log-Cholesky coordinates.

    ``z`` holds the factor's lower triangle in :func:`tril` order with the
    diagonal entries log-transformed, so every real vector maps to a
    factor with a positive diagonal.  Leading axes are batch axes: an
    (..., k(k+1)/2) array gives an (..., k, k) array of factors.
    """
    z = np.asarray(z, dtype=float)
    k = dim_from_vech(z.shape[-1])
    rows, cols = tril(k)
    chol = np.zeros(z.shape[:-1] + (k, k))
    chol[..., rows, cols] = z
    on_diag = np.arange(k)
    chol[..., on_diag, on_diag] = np.exp(z[..., tril_diag(k)])
    return chol


def logchol_from_chol(chol):
    """Inverse of :func:`chol_from_logchol`; batched the same way."""
    chol = np.asarray(chol, dtype=float)
    k = chol.shape[-1]
    rows, cols = tril(k)
    diag = tril_diag(k)
    z = chol[..., rows, cols]
    z[..., diag] = np.log(z[..., diag])
    return z


def is_pos_def(mat):
    """Whether every matrix of a stack is finite and positive definite."""
    mat = np.asarray(mat, dtype=float)
    if not np.all(np.isfinite(mat)):
        return False
    try:
        np.linalg.cholesky(mat)
        return True
    except np.linalg.LinAlgError:
        return False


def solve_log_minus_digamma(c, k=1):
    """Solve k log(a) - multidigamma(a, k) = c for a > (k-1)/2, elementwise.

    For k = 1 this is log(a) - digamma(a) = c, the gamma shape; for k = K
    it gives a = dof/2 of a K x K Wishart.  The left side decreases
    monotonically from +inf at a = (k-1)/2 to 0, so a unique root exists
    for every c > 0.  An array of gaps is solved in one array iteration (a
    scalar gap gives a float): Newton in u = log(a - (k-1)/2) on the log of
    the left side, nearly linear with slope ~ -1, from Minka's initializer
    for the gap rescaled by 2/(k(k+1)) (the left side is ~ k(k+1)/(4a) for
    large a).  Each step evaluates digamma and trigamma once over the
    stacked (..., k) arguments.  Each entry stops after its first step
    below 1e-9, so its root does not depend on what shares the call.
    Above a ~ 500 the difference cancels and the root is only as good as it.
    """
    c = np.asarray(c, dtype=float)
    if not np.all(np.isfinite(c) & (c > 0)):
        raise DomainError(f"{k} log(a) - multidigamma(a, {k}) = {c} has no root")
    gap = c.ravel()
    # a_i = a - (i-1)/2 = x + shifts[i-1] with x = exp(u), so a_k is x exactly
    shifts = np.arange(k - 1, -1, -1) / 2.0
    scaled = gap * (2.0 / (k * (k + 1)))
    # Minka's form cancels to 0 for large c; there the root is ~1/c
    small = np.minimum(scaled, 1e8)
    minka = (3.0 - small + np.sqrt((small - 3.0) ** 2 + 24.0 * small)) / (12.0 * small)
    log_x = np.log(np.where(scaled < 1e8, minka, 1.0 / scaled))
    live = np.arange(gap.size)
    for _ in range(50):
        x = np.exp(log_x[live])
        a = x + shifts[0]
        args = x[:, None] + shifts
        h = k * np.log(a) - digamma(args).sum(-1)
        # d h / d u = x (k/a - sum_i trigamma(a_i)), with the 1/a_i^2 term
        # of each trigamma taken out so that tiny x does not overflow
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (k * (x / a) - (x[:, None] / args / args).sum(-1)
                     - x * trigamma(args + 1.0).sum(-1)) / h
            step = (np.log(gap[live]) - np.log(h)) / slope
        # past a ~ 1e13 the difference is lost to rounding and the step is
        # not finite; Minka's initializer is exact to rounding there
        step[~np.isfinite(step)] = 0.0
        log_x[live] += step
        live = live[np.abs(step) > 1e-9]
        if not live.size:
            break
    root = (np.exp(log_x) + shifts[0]).reshape(c.shape)
    return float(root) if root.ndim == 0 else root


def multigamma_ln(a, k):
    """log of the multivariate gamma function Gamma_k(a), elementwise in a."""
    i = np.arange(1, k + 1)
    return (k * (k - 1) / 4.0 * np.log(np.pi)
            + np.sum(gammaln(np.asarray(a)[..., None] + (1 - i) / 2.0), axis=-1))


def multidigamma(a, k):
    """Derivative of multigamma_ln with respect to a."""
    i = np.arange(1, k + 1)
    return np.sum(digamma(np.asarray(a)[..., None] + (1 - i) / 2.0), axis=-1)


def multitrigamma(a, k):
    i = np.arange(1, k + 1)
    return np.sum(trigamma(np.asarray(a)[..., None] + (1 - i) / 2.0), axis=-1)


def fd_jacobian(func, x, rel_step=1e-6, columns=None):
    """Central-difference Jacobian of a vector-valued func at x.

    Column j steps x[j] by ``h_j = rel_step * max(|x[j]|, 1)`` each way.
    ``columns`` partitions the column indices into sets that are stepped
    together, by default every column on its own; func is called exactly
    twice per set.  Column j of the result is its set's difference over
    2 h_j, which is the j-th Jacobian column only in the rows where no
    other column of the set is non-zero (Curtis, Powell & Reid 1974).
    """
    x = np.asarray(x, dtype=float)
    steps = rel_step * np.maximum(np.abs(x), 1.0)
    jac = np.empty((0, x.size))
    for i, cols in enumerate(np.arange(x.size)[:, None] if columns is None else columns):
        xp = x.copy()
        xm = x.copy()
        xp[cols] += steps[cols]
        xm[cols] -= steps[cols]
        diff = np.ravel(np.asarray(func(xp)) - np.asarray(func(xm)))
        if i == 0:
            jac = np.empty((diff.size, x.size))
        jac[:, cols] = diff[:, None] / (2.0 * steps[cols])
    return jac


def fd_hessian(func, x, rel_step=1e-4):
    """Central second-difference Hessian of a scalar func at x."""
    x = np.asarray(x, dtype=float)
    n = x.size
    hess = np.empty((n, n))
    steps = np.array([rel_step * max(abs(x[j]), 1.0) for j in range(n)])
    f0 = func(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = steps[i]
        hess[i, i] = (func(x + ei) - 2.0 * f0 + func(x - ei)) / steps[i] ** 2
        for j in range(i):
            ej = np.zeros(n)
            ej[j] = steps[j]
            val = (func(x + ei + ej) - func(x + ei - ej)
                   - func(x - ei + ej) + func(x - ei - ej))
            val /= 4.0 * steps[i] * steps[j]
            hess[i, j] = hess[j, i] = val
    return hess


def format_float_17g(x):
    return format(float(x), ".17g")


def canonical_json(obj, indent=0):
    """Serialize to JSON with floats at 17 significant digits.

    Output is byte-identical for identical inputs; dict insertion order is
    preserved (callers construct payloads deterministically).
    """
    import json

    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {canonical_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{canonical_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float_17g(obj)
    return json.dumps(obj)
