"""Command-line front end.

Subcommands: ``fit``, ``sensitivity``, ``influence-grid``, ``compare``.
JSON is the canonical output (floats serialized at 17 significant
digits, so identical runs produce byte-identical files); CSV is a
flattened projection for plotting.  Field definitions live in
docs/output_schema.json.  Exit codes: 0 success, 2 validation error,
3 numerical failure.
"""

import argparse
import csv
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import linear_response, mfvb, oracle, robustness
from .errors import DomainError, LrvbError
from .models import (DEFAULT_PRIORS, build_microcredit_model,
                     gaussian_target_model, load_microcredit_csv,
                     normal_normal_model)
from .util import canonical_json

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


def _microcredit(args, overrides):
    if not args.data:
        raise UsageError("--data is required for the microcredit model")
    _check_names(DEFAULT_PRIORS, overrides)
    try:
        return build_microcredit_model(load_microcredit_csv(args.data),
                                       DEFAULT_PRIORS.with_updates(**overrides))
    except (ValueError, DomainError) as exc:
        raise UsageError(str(exc)) from exc


def _normal_normal(args, overrides):
    # small built-in fixture: 4 observations, unit noise, N(0,1) prior
    return _with_hyper(normal_normal_model(
        np.array([1.3, 0.7, 1.2, 0.8]), 1.0, ("moment", 0.0, 1.0)), overrides)


def _gaussian3d(args, overrides):
    prec = np.array([[1.0, -0.5, 0.2], [-0.5, 1.5, -0.3], [0.2, -0.3, 2.0]])
    return _with_hyper(gaussian_target_model(prec @ np.array([0.5, -0.2, 0.1]), prec),
                       overrides)


def _with_hyper(model, overrides):
    """The model at its hyperparameters with overrides; an override outside
    the prior's domain is a UsageError, as the microcredit build's check."""
    _check_names(model.hyperparams, overrides)
    hyper = model.hyperparams.with_updates(**overrides)
    try:  # the domain check every prior hook makes first
        model.grad_log_prior(model.default_init(model.hyperparams), hyper)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    return replace(model, hyperparams=hyper)


def _check_names(hyperparams, names):
    """Hyperparams.check_names, its KeyError as a UsageError."""
    try:
        hyperparams.check_names(names)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from exc


# --model name -> builder(args, hyperparameter overrides)
MODELS = {
    "microcredit": _microcredit,
    "normal-normal": _normal_normal,
    "gaussian3d": _gaussian3d,
}


def build_model(args):
    return MODELS[args.model](args, parse_overrides(args.set or []))


def parse_overrides(pairs):
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"override {pair!r} is not of the form key=value")
        key, _, value = pair.partition("=")
        try:
            number = float(value)
        except ValueError as exc:
            raise UsageError(f"override value {value!r} is not a number") from exc
        if not np.isfinite(number):
            raise UsageError(f"override value {value!r} is not finite")
        out[key.strip()] = number
    return out


def fit_and_system(model, args):
    opts = mfvb.FitOptions(tol=args.tol, max_iter=args.max_iter)
    sol = mfvb.fit(model, opts=opts)
    sys_ = linear_response.build_system(model, sol)
    return sol, sys_


def payload_header(args, model):
    return {
        "schema_version": SCHEMA_VERSION,
        "subcommand": args.command,
        "model": args.model,
        "seed": args.seed,
        "hyperparams": {k: v for k, v in model.hyperparams.items()},
    }


def write_output(payload, rows, row_fields, args):
    if args.format == "json":
        text = canonical_json(payload) + "\n"
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(row_fields)
            for row in rows:
                writer.writerow([format(v, ".17g") if isinstance(v, float) else v
                                 for v in row])
    print(f"wrote {args.out}")


def cmd_fit(args):
    model = build_model(args)
    sol, sys_ = fit_and_system(model, args)
    names = model.layout.coord_names()
    sds = np.sqrt(sys_.variances())
    payload = payload_header(args, model)
    payload.update({
        "converged": bool(sol.converged),
        "iterations": int(sol.iterations),
        "elbo": float(sol.elbo),
        "grad_norm": float(sol.grad_norm),
        "means": {n: float(v) for n, v in zip(names, sol.mean)},
        "posterior_sd": {n: float(v) for n, v in zip(names, sds)},
    })
    rows = [(n, float(m), float(s)) for n, m, s in zip(names, sol.mean, sds)]
    write_output(payload, rows, ["quantity", "mean", "posterior_sd"], args)
    return EXIT_OK


def cmd_sensitivity(args):
    model = build_model(args)
    hyper_names = list(args.hyperparams) if args.hyperparams else list(model.hyperparams.names)
    _check_names(model.hyperparams, hyper_names)
    sol, sys_ = fit_and_system(model, args)
    names = model.layout.coord_names()
    quantities = list(args.quantities) if args.quantities else [
        names[i] for i in model.layout.location_indices()]
    bad = set(quantities) - set(names)
    if bad:
        raise UsageError(f"unknown quantities {sorted(bad)}")
    queries = [robustness.SensitivityQuery(quantity=q, target=q,
                                           direction={h: 1.0}, direction_label=h)
               for q in quantities for h in hyper_names]
    report = robustness.make_report(queries, model, sol, sys_)
    payload = payload_header(args, model)
    payload.update({
        "model_hash": report.model_hash,
        "solution_hash": report.solution_hash,
        "entries": [
            {"quantity": e.quantity, "hyperparameter": e.direction,
             "derivative": e.value, "normalized": e.normalized, "error": e.error}
            for e in report.entries],
    })
    rows = [(e.quantity, e.direction,
             float(e.value) if e.value is not None else "",
             float(e.normalized) if e.normalized is not None else "",
             e.error or "") for e in report.entries]
    write_output(payload, rows,
                 ["quantity", "hyperparameter", "derivative", "normalized", "error"],
                 args)
    return EXIT_OK


def cmd_influence_grid(args):
    model = build_model(args)
    layout = model.layout
    block = args.block or _default_influence_block(model)
    try:
        model.factorized_block(block)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    sol, sys_ = fit_and_system(model, args)
    names = layout.coord_names()
    target = args.target or names[layout.location_indices()[0]]
    if target not in names:
        raise UsageError(f"unknown target {target!r}")
    loc = layout.location_indices(block)
    if loc.size == 0:
        raise UsageError(f"block {block!r} has no location coordinates")
    centers = sys_.mean[loc]
    sds = np.sqrt(sys_.variances(loc))
    n = args.grid_points
    axes = [np.linspace(c - args.grid_sds * s, c + args.grid_sds * s, n)
            for c, s in zip(centers, sds)]
    if loc.size == 1:
        points = axes[0].reshape(-1, 1)
    elif loc.size == 2:
        g1, g2 = np.meshgrid(axes[0], axes[1], indexing="ij")
        points = np.column_stack([g1.ravel(), g2.ravel()])
    else:
        raise UsageError("influence grids support 1-D and 2-D blocks")
    grid = robustness.influence_grid(model, sol, sys_, block, points)
    t_idx = names.index(target)
    values = grid[:, t_idx]
    axis_names = [names[i] for i in loc]
    payload = payload_header(args, model)
    payload.update({
        "block": block,
        "target": target,
        "axes": {nm: list(map(float, ax)) for nm, ax in zip(axis_names, axes)},
        "points": [list(map(float, p)) for p in points],
        "influence": list(map(float, values)),
    })
    rows = [tuple(map(float, p)) + (float(v),) for p, v in zip(points, values)]
    write_output(payload, rows, axis_names + [f"dE[{target}]/deps"], args)
    return EXIT_OK


def _default_influence_block(model):
    for b in model.layout.blocks:
        if b.name in model.prior_block_logpdf:
            return b.name
    raise UsageError("model has no block with a factorized prior")


def cmd_compare(args):
    model = build_model(args)
    direction = parse_overrides(args.direction)
    if not direction:
        raise UsageError("--direction needs at least one name=coefficient pair")
    _check_names(model.hyperparams, direction)
    try:
        oracle.check_rerun_inputs(model, args.engine, direction, args.step)
        mcmc_config = oracle.McmcConfig(chain_length=args.chain_length,
                                        burn_in=args.burn_in, seed=args.seed)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
    sol, sys_ = fit_and_system(model, args)
    res = oracle.perturb_and_rerun(
        model, direction, engine=args.engine, step=args.step, sol=sol, sys=sys_,
        mcmc_config=mcmc_config)
    rows = [(n, float(p), float(a), float(s))
            for n, p, a, s in zip(res.names, res.predicted_deltas,
                                  res.actual_deltas, res.mc_standard_errors)]
    payload = payload_header(args, model)
    payload.update({
        "engine": args.engine,
        "direction": direction,
        "step": float(res.step),
        "slope": res.slope if np.isfinite(res.slope) else None,
        "correlation": res.correlation if np.isfinite(res.correlation) else None,
        "entries": [{"quantity": n, "predicted": p, "actual": a, "mc_standard_error": s}
                    for n, p, a, s in rows],
    })
    if res.chains is not None:
        payload["chains"] = res.chains
    write_output(payload, rows,
                 ["quantity", "predicted", "actual", "mc_standard_error"], args)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, like every other failure
        raise UsageError(f"{self.prog}: {message}")


def _checked(convert, ok, what):
    """argparse type: text that ``convert`` turns into a value passing ``ok``."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return parse


COUNT = _checked(int, lambda v: v >= 0, "a non-negative integer")
POSITIVE_INT = _checked(int, lambda v: v > 0, "a positive integer")
POSITIVE_FLOAT = _checked(float, lambda v: 0.0 < v < np.inf, "a positive finite number")


def make_parser():
    parser = _Parser(
        prog="lrvb",
        description="Fit mean-field variational approximations and compute "
                    "local prior-robustness measures.",
        epilog="Output field definitions: docs/output_schema.json. "
               "Input CSV columns: site,treatment,outcome (header required).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", required=True, choices=list(MODELS))
        p.add_argument("--data", help="input CSV (site,treatment,outcome)")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="hyperparameter override (repeatable)")
        p.add_argument("--tol", type=POSITIVE_FLOAT, default=1e-8,
                       help="fit gradient tolerance")
        p.add_argument("--max-iter", type=COUNT, default=10_000, dest="max_iter")

    p_fit = sub.add_parser("fit", help="fit the model and write a summary")
    common(p_fit)

    p_sens = sub.add_parser("sensitivity", help="hyperparameter sensitivity report")
    common(p_sens)
    p_sens.add_argument("--hyperparams", nargs="*", default=None,
                        help="hyperparameters to differentiate (default all)")
    p_sens.add_argument("--quantities", nargs="*", default=None,
                        help="tracked quantities (default location coordinates)")

    p_grid = sub.add_parser("influence-grid",
                            help="influence-function lattice for one block")
    common(p_grid)
    p_grid.add_argument("--block", default=None,
                        help="perturbed block (default: first factorized block)")
    p_grid.add_argument("--target", default=None,
                        help="tracked quantity (default: first location coordinate)")
    p_grid.add_argument("--grid-points", type=POSITIVE_INT, default=41, dest="grid_points")
    p_grid.add_argument("--grid-sds", type=POSITIVE_FLOAT, default=3.0, dest="grid_sds",
                        help="half-width of the lattice in posterior sds")

    p_cmp = sub.add_parser("compare", help="predicted vs rerun mean changes")
    common(p_cmp)
    p_cmp.add_argument("--engine", choices=["vb", "quadrature", "mcmc"],
                       required=True)
    p_cmp.add_argument("--direction", action="append", metavar="KEY=COEFF",
                       required=True, help="perturbation direction (repeatable)")
    p_cmp.add_argument("--step", type=float, default=None,
                       help="rerun step along the direction (default 1%% of the "
                            "largest non-zero hyperparameter it moves); the mcmc "
                            "engine needs an explicit step on the bundled data, "
                            "e.g. --step 1: at the default its coupled chains "
                            "decide differently a few times at most, so a short "
                            "chain exits 3 and a long one reports that noise")
    p_cmp.add_argument("--chain-length", type=int, default=50_000,
                       dest="chain_length")
    p_cmp.add_argument("--burn-in", type=int, default=10_000, dest="burn_in")

    return parser


COMMANDS = {
    "fit": cmd_fit,
    "sensitivity": cmd_sensitivity,
    "influence-grid": cmd_influence_grid,
    "compare": cmd_compare,
}


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code else EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # warnings pass the caller's filters as they are raised and are held
    # back until the exit code is known: an error exit prints one line
    with warnings.catch_warnings(record=True) as caught:
        code, message = run_command(args)
    if code == EXIT_OK:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno,
                                 w.file, w.line)
    else:
        print(message, file=sys.stderr)
    return code


def run_command(args):
    """Exit code and, for a failure, its one-line message."""
    try:
        return COMMANDS[args.command](args), None
    except (UsageError, OSError) as exc:  # OSError: unreadable input, unwritable --out
        return EXIT_USAGE, f"error: {_one_line(exc)}"
    except LrvbError as exc:
        return EXIT_NUMERIC, f"numerical failure [{type(exc).__name__}]: {_one_line(exc)}"


def _one_line(exc):
    # messages may embed a multi-line numpy array repr
    return " ".join(str(exc).split())


if __name__ == "__main__":
    sys.exit(main())
