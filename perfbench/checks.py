"""Correctness checks on the outputs the workloads produce.

Each check takes plain data (parsed JSON payloads, arrays) and returns a
list of problems; an empty list means the output passed.  The checks
compare against properties the method must have, or against
computations made apart from the program's linear-response path.  None
compares against a stored copy of earlier output.
"""

import numpy as np
import scipy.stats


def fit_summary(payload, tol):
    """`lrvb fit` output: converged at tolerance, finite positive sds."""
    problems = []
    if payload.get("converged") is not True:
        problems.append("fit did not report converged")
    if not payload.get("grad_norm", np.inf) <= tol:
        problems.append(f"fit grad_norm {payload.get('grad_norm')} above tol {tol:g}")
    sds = np.array(list(payload.get("posterior_sd", {}).values()), dtype=float)
    if sds.size == 0 or not np.all(np.isfinite(sds) & (sds > 0)):
        problems.append("fit has a posterior sd that is not finite and positive")
    return problems


def _entries(payload):
    return {e["quantity"]: e for e in payload["entries"]}


def refit_slope(payload, names, rel=0.01):
    """`compare --engine vb`: slope of refit over predicted within rel of 1."""
    entries = _entries(payload)
    pred = np.array([entries[n]["predicted"] for n in names])
    act = np.array([entries[n]["actual"] for n in names])
    slope = float(pred @ act / (pred @ pred))
    if not abs(slope - 1.0) < rel:
        return [f"refit slope over {list(names)} is {slope:.6f}, not within {rel:g} of 1"]
    return []


def sensitivity_matches_prediction(sens_payload, cmp_payload, hyper):
    """The sensitivity derivative along `hyper` equals the compare prediction
    of the same fit for every tracked quantity, to rounding."""
    pred = {n: e["predicted"] for n, e in _entries(cmp_payload).items()}
    problems = []
    seen = 0
    for e in sens_payload["entries"]:
        if e["hyperparameter"] != hyper:
            continue
        seen += 1
        want = pred[e["quantity"]]
        if e["derivative"] is None or not (
                abs(e["derivative"] - want) <= 1e-12 * max(abs(want), 1e-300)):
            problems.append(f"sensitivity d{e['quantity']}/d{hyper} = "
                            f"{e['derivative']} but compare predicts {want}")
    if seen == 0:
        problems.append(f"sensitivity output has no {hyper} entries")
    return problems


def sampled_correlation(payload, names, minimum=0.95):
    """`compare --engine mcmc`: predicted and sampled changes correlate."""
    entries = _entries(payload)
    pred = np.array([entries[n]["predicted"] for n in names])
    act = np.array([entries[n]["actual"] for n in names])
    if np.std(act) == 0:
        return ["sampled changes are all equal; the chains did not separate"]
    corr = float(np.corrcoef(pred, act)[0, 1])
    if not corr >= minimum:
        return [f"predicted-vs-sampled correlation {corr:.4f} below {minimum}"]
    return []


def identical(label, first, other):
    """Repeated outputs must be byte- (or bit-) identical."""
    if isinstance(first, np.ndarray):
        same = np.array_equal(first, other)
    else:
        same = first == other
    return [] if same else [f"{label}: repeated output differs from the first"]


def influence_linear(points, rows, top_mean, top_cov, prior_prec, coef, rel=1e-8):
    """Influence rows over q(x)/p(x) equal coef @ (x - m).

    q is the fitted Gaussian of the perturbed block and p its prior, both
    evaluated with scipy.stats; coef is (I - VH)^-1 restricted to the
    block's location columns, solved by the caller with numpy.
    """
    log_q = scipy.stats.multivariate_normal(top_mean, top_cov).logpdf(points)
    log_p = scipy.stats.multivariate_normal(
        np.zeros(len(top_mean)), np.linalg.inv(prior_prec)).logpdf(points)
    scaled = rows / np.exp(log_q - log_p)[:, None]
    expected = (np.asarray(points) - top_mean) @ coef.T
    err = float(np.max(np.abs(scaled - expected)))
    scale = float(np.max(np.abs(expected)))
    if not err <= rel * scale:
        return [f"influence over q/p departs from linear by {err / scale:.3g} "
                f"relative (tol {rel:g})"]
    return []


def queries_match_grid(queries, rows, rel=1e-9):
    """Single-point influence calls agree with the batched grid rows."""
    err = float(np.max(np.abs(np.asarray(queries) - rows)))
    scale = float(np.max(np.abs(rows)))
    if not err <= rel * scale:
        return [f"single-point influence differs from the grid by "
                f"{err / scale:.3g} relative (tol {rel:g})"]
    return []


def influence_oracle(predicted, oracle_values, rel=0.02):
    """Influence grid against quadrature plus Richardson extrapolation."""
    predicted = np.asarray(predicted, dtype=float)
    oracle_values = np.asarray(oracle_values, dtype=float)
    keep = np.abs(oracle_values) > 1e-10
    worst = float(np.max(np.abs(predicted[keep] - oracle_values[keep])
                         / np.abs(oracle_values[keep])))
    if not worst < rel:
        return [f"influence grid vs quadrature oracle worst rel err {worst:.3g} "
                f"(tol {rel:g})"]
    return []


def converged(sol, tol):
    if sol.converged and sol.grad_norm <= tol:
        return []
    return [f"fit not converged: grad_norm {sol.grad_norm:.3g}, tol {tol:g}"]


def symmetric_psd(sigma, rel=1e-10):
    """The corrected covariance is symmetric and positive semidefinite."""
    sigma = np.asarray(sigma, dtype=float)
    problems = []
    if not np.array_equal(sigma, sigma.T):
        problems.append("corrected covariance is not symmetric")
    eig = np.linalg.eigvalsh((sigma + sigma.T) / 2.0)
    if not eig[0] >= -rel * eig[-1]:
        problems.append(f"corrected covariance has eigenvalue {eig[0]:.3g} "
                        f"(largest {eig[-1]:.3g})")
    return problems


def derivative_vs_refits(derivative, difference, rel=0.01):
    """A linear-response derivative against a central refit difference."""
    if not abs(derivative - difference) <= rel * abs(difference):
        return [f"derivative {derivative:.6g} vs refit difference "
                f"{difference:.6g} (tol {rel:g} relative)"]
    return []
