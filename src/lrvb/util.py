"""Small numerical helpers: half-vectorization, 1-D inversions, derivatives."""

import functools

import numpy as np
from scipy.optimize import brentq
from scipy.special import polygamma

from .errors import DomainError


def digamma(x):
    return polygamma(0, x)


def trigamma(x):
    return polygamma(1, x)


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
    rows, cols = tril(mat.shape[0])
    return mat[rows, cols]


def unvech(v, k):
    """Inverse of :func:`vech` for a k x k symmetric matrix."""
    v = np.asarray(v, dtype=float)
    out = np.zeros((k, k))
    rows, cols = tril(k)
    out[rows, cols] = v
    out[cols, rows] = v
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
    doubled = 2.0 * mat - np.diag(np.diag(mat))
    return vech(doubled)


def unvech_half(v, k):
    """Inverse of :func:`vech_dup`."""
    doubled = unvech(v, k)
    return (doubled + np.diag(np.diag(doubled))) / 2.0


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


def is_pos_def(mat, tol=0.0):
    mat = np.asarray(mat, dtype=float)
    if not np.all(np.isfinite(mat)):
        return False
    try:
        np.linalg.cholesky(mat - tol * np.eye(mat.shape[0]))
        return True
    except np.linalg.LinAlgError:
        return False


def solve_log_minus_digamma(c):
    """Solve log(a) - digamma(a) = c for a > 0.

    The left side decreases monotonically from +inf to 0, so a unique root
    exists for every c > 0.
    """
    if not np.isfinite(c) or c <= 0:
        raise DomainError(f"log(a) - digamma(a) = {c} has no positive root")
    # Minka's initializer, then a bracketed Newton cleanup via brentq.
    if c < 1e8:
        a = (3.0 - c + np.sqrt((c - 3.0) ** 2 + 24.0 * c)) / (12.0 * c)
    else:  # Minka's form cancels to 0 for large c; there the root is ~1/c
        a = 1.0 / c
    lo, hi = a, a
    while np.log(lo) - digamma(lo) < c:
        lo /= 2.0
    while np.log(hi) - digamma(hi) > c:
        hi *= 2.0
    return brentq(lambda t: np.log(t) - digamma(t) - c, lo, hi,
                  xtol=1e-14, rtol=8.9e-16)


def multigamma_ln(a, k):
    """log of the multivariate gamma function Gamma_k(a)."""
    from scipy.special import gammaln
    i = np.arange(1, k + 1)
    return k * (k - 1) / 4.0 * np.log(np.pi) + np.sum(gammaln(a + (1 - i) / 2.0))


def multidigamma(a, k):
    """Derivative of multigamma_ln with respect to a."""
    i = np.arange(1, k + 1)
    return np.sum(digamma(a + (1 - i) / 2.0))


def multitrigamma(a, k):
    i = np.arange(1, k + 1)
    return np.sum(trigamma(a + (1 - i) / 2.0))


def fd_jacobian(func, x, rel_step=1e-6):
    """Central-difference Jacobian of a vector-valued func at x.

    Column j steps x[j] by ``rel_step * max(|x[j]|, 1)`` each way, so func
    is called exactly 2 * x.size times.
    """
    x = np.asarray(x, dtype=float)
    jac = np.empty((0, x.size))
    for j in range(x.size):
        h = rel_step * max(abs(x[j]), 1.0)
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        col = (np.asarray(func(xp)) - np.asarray(func(xm))) / (2.0 * h)
        if j == 0:
            jac = np.empty((col.size, x.size))
        jac[:, j] = col
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
