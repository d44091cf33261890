"""The benchmark's workloads: inputs from a seed, one round of operations,
and the checks on what the round produced.

A workload object is made once per run.  ``setup`` builds the inputs and
whatever the timed operations reuse; it is repeated and timed by the
runner.  ``operations`` returns one round as (label, callable) pairs;
the runner times each call and counts an exception as a failed
operation.  ``prepare`` runs once after setup, ``after_round`` after each
round and ``check`` at the end, all outside the timed calls.
"""

import contextlib
import io
import json
import os

import numpy as np

import lrvb.cli
from lrvb import linear_response, mfvb, oracle, robustness
from lrvb.models import (build_microcredit_model, load_microcredit_csv,
                         normal_normal_model)

import checks

BUNDLED_CSV = os.path.join("data", "microcredit_synthetic.csv")
FIT_TOL = 1e-8  # the CLI's default --tol
DIRECTION = "prior_info_11"


class OperationFailed(Exception):
    pass


def run_cli(argv):
    """One in-process `lrvb` call; a non-zero exit is a failed operation."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = lrvb.cli.main(argv)
    if code != 0:
        raise OperationFailed(f"lrvb {argv[0]} exited {code}")


def location_names(model):
    names = model.layout.coord_names()
    return [names[i] for i in model.layout.location_indices()]


class CliBundled:
    """The README's five commands on the bundled 7-site study.

    The inputs are the bundled CSV, so the seed changes nothing here; the
    MCMC comparison keeps the CLI's default sampler seed, because its
    0.95 correlation bound holds at 3000 sweeps for that seed and not for
    every seed.
    """

    name = "cli-bundled"

    def setup(self, root, workdir, seed):
        data = os.path.join(root, BUNDLED_CSV)
        model = build_microcredit_model(load_microcredit_csv(data))
        base = ["--model", "microcredit", "--data", data]

        def out(stem):
            return ["--out", os.path.join(workdir, stem)]

        commands = {
            "fit": ["fit"] + base + out("fit.json"),
            "sensitivity": ["sensitivity"] + base + out("sens.json"),
            "influence_grid": ["influence-grid"] + base + out("grid.csv")
            + ["--format", "csv", "--target", "tau"],
            "compare_vb": ["compare"] + base + out("cmp_vb.json")
            + ["--engine", "vb", "--direction", f"{DIRECTION}=1"],
            "compare_mcmc": ["compare"] + base + out("cmp_mcmc.json")
            + ["--engine", "mcmc", "--direction", f"{DIRECTION}=1", "--step", "1",
               "--chain-length", "3000", "--burn-in", "500"],
        }
        return {"commands": commands, "effects": location_names(model),
                "first": None, "repeated": False, "problems": []}

    def prepare(self, st, tracer):
        pass

    def operations(self, st):
        return [(label, lambda argv=argv: run_cli(argv))
                for label, argv in st["commands"].items()]

    def _outputs(self, st):
        outs = {}
        for label, argv in st["commands"].items():
            with open(argv[argv.index("--out") + 1], "rb") as fh:
                outs[label] = fh.read()
        return outs

    def after_round(self, st):
        outs = self._outputs(st)
        if st["first"] is None:
            st["first"] = outs
        else:
            st["repeated"] = True
            for label, blob in outs.items():
                st["problems"] += checks.identical(label, st["first"][label], blob)

    def check(self, st):
        problems = list(st["problems"])
        first = st["first"]
        if not st["repeated"]:  # one round: repeat one command, untimed
            run_cli(st["commands"]["fit"])
            problems += checks.identical("fit rerun", first["fit"],
                                         self._outputs(st)["fit"])
        fit = json.loads(first["fit"])
        sens = json.loads(first["sensitivity"])
        cmp_vb = json.loads(first["compare_vb"])
        cmp_mcmc = json.loads(first["compare_mcmc"])
        problems += checks.fit_summary(fit, FIT_TOL)
        problems += checks.refit_slope(cmp_vb, ["mu", "tau"])
        problems += checks.sensitivity_matches_prediction(sens, cmp_vb, DIRECTION)
        problems += checks.sampled_correlation(cmp_mcmc, st["effects"])
        return problems


def influence_lattice(sys_, loc, n, sds=3.0):
    """An n x n lattice over a 2-D block, +-sds posterior sds, as the CLI
    builds it."""
    centers = sys_.mean[loc]
    spread = np.sqrt(np.diag(sys_.sigma_hat)[loc])
    axes = [np.linspace(c - sds * s, c + sds * s, n) for c, s in zip(centers, spread)]
    g1, g2 = np.meshgrid(axes[0], axes[1], indexing="ij")
    return np.column_stack([g1.ravel(), g2.ravel()])


class InfluenceDense:
    """Repeated 201 x 201 influence grids and single-point queries on `top`
    against one 7-site fit made in setup."""

    name = "influence-dense"
    side = 201
    queries = 4000
    checked_points = 64

    def setup(self, root, workdir, seed):
        model = build_microcredit_model(
            load_microcredit_csv(os.path.join(root, BUNDLED_CSV)))
        sol = mfvb.fit(model)
        sys_ = linear_response.build_system(model, sol)
        loc = model.layout.location_indices("top")
        points = influence_lattice(sys_, loc, self.side)
        rng = np.random.default_rng(seed)
        return {"model": model, "sol": sol, "sys": sys_, "loc": loc,
                "points": points,
                "query_idx": rng.choice(points.shape[0], self.queries, replace=False),
                "check_idx": rng.choice(points.shape[0], self.checked_points,
                                        replace=False),
                "grid": None, "first": None, "answers": [], "problems": []}

    def prepare(self, st, tracer):
        if tracer is not None:
            st["model"] = tracer.wrap_model(st["model"])

    def operations(self, st):
        model, sol, sys_ = st["model"], st["sol"], st["sys"]

        def grid():
            st["grid"] = robustness.influence_grid(model, sol, sys_, "top", st["points"])

        def query(point):
            st["answers"].append(
                robustness.influence_function(model, sol, sys_, "top", point))

        return [("grid", grid)] + [
            ("query", lambda p=st["points"][i]: query(p)) for i in st["query_idx"]]

    def after_round(self, st):
        grid, st["grid"] = st["grid"], None
        if st["first"] is None:
            st["first"] = grid
        else:
            st["problems"] += checks.identical("influence grid", st["first"], grid)
        st["problems"] += checks.queries_match_grid(
            np.array(st["answers"]), st["first"][st["query_idx"]])
        st["answers"] = []

    def check(self, st):
        problems = list(st["problems"])
        model, sys_, loc = st["model"], st["sys"], st["loc"]
        top = sys_.mean[model.layout.slice_of("top")]
        top_mean = top[:2]
        second = np.array([[top[2], top[3]], [top[3], top[4]]])
        alpha = model.hyperparams
        prior_prec = np.array([[alpha["prior_info_11"], alpha["prior_info_12"]],
                               [alpha["prior_info_12"], alpha["prior_info_22"]]])
        unit = np.zeros((sys_.dim, loc.size))
        unit[loc, np.arange(loc.size)] = 1.0
        coef = np.linalg.solve(np.eye(sys_.dim) - sys_.v @ sys_.h, unit)
        idx = st["check_idx"]
        problems += checks.influence_linear(
            st["points"][idx], st["first"][idx], top_mean,
            second - np.outer(top_mean, top_mean), prior_prec, coef)
        problems += normal_normal_oracle()
        return problems


def normal_normal_oracle():
    """The conjugate fixture's 21-point grid against quadrature plus
    Richardson extrapolation of contaminated posteriors."""
    model = normal_normal_model(np.array([1.3, 0.7, 1.2, 0.8]), 1.0,
                                ("moment", 0.0, 1.0))
    sol = mfvb.fit(model, opts=mfvb.FitOptions(tol=1e-11))
    sys_ = linear_response.build_system(model, sol)
    sd = np.sqrt(sol.mean[1] - sol.mean[0] ** 2)
    pts = sol.mean[0] + sd * np.linspace(-2.5, 2.5, 21)
    grid = robustness.influence_grid(model, sol, sys_, "theta", pts)
    eps = 1e-4
    expected = []
    for pt in pts:
        def mean_at(e):
            return oracle.contaminated_posterior_mean(model, "theta", ("dirac", pt), e)[0]
        base = mean_at(0.0)
        d1 = (mean_at(eps) - base) / eps
        d2 = (mean_at(eps / 2.0) - base) / (eps / 2.0)
        expected.append(2.0 * d2 - d1)
    return checks.influence_oracle(grid[:, 0], expected)


def write_sites_csv(path, seed, n_sites=30, per_site=200):
    """A seeded multi-site study in the CLI's CSV format.

    Site effects (mu_k, tau_k) ~ N((1, 0.5), [[1, 0.21], [0.21, 0.49]]);
    treatment is a fair coin per row; outcomes are normal around
    mu_k + T tau_k with variance 100 (1 + 0.1 (k mod 7)), the bundled
    study's noise range repeated.
    """
    rng = np.random.default_rng(seed)
    effects = rng.multivariate_normal([1.0, 0.5], [[1.0, 0.21], [0.21, 0.49]],
                                      size=n_sites)
    noise_sd = np.sqrt(100.0 * (1.0 + 0.1 * (np.arange(n_sites) % 7)))
    site = np.repeat(np.arange(n_sites), per_site)
    treat = (rng.random(site.size) < 0.5).astype(int)
    outcome = rng.normal(effects[site, 0] + treat * effects[site, 1], noise_sd[site])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("site,treatment,outcome\n")
        for s, t, y in zip(site, treat, outcome):
            fh.write(f"{s + 1},{t},{float(y)!r}\n")


class Sites30:
    """`lrvb sensitivity` on a generated 30-site, 219-coordinate study."""

    name = "sites-30"
    refit_step = 0.005
    refit_tol = 1e-4

    def setup(self, root, workdir, seed):
        data = os.path.join(workdir, "sites30.csv")
        write_sites_csv(data, seed)
        out = os.path.join(workdir, "sens30.json")
        return {"argv": ["sensitivity", "--model", "microcredit", "--data", data,
                         "--out", out], "out": out, "captured": None}

    def operations(self, st):
        return [("sensitivity", lambda: run_cli(st["argv"]))]

    def prepare(self, st, tracer):
        """Keep the fit and system of the timed command for the checks."""
        inner = lrvb.cli.fit_and_system

        def keep(model, args):
            sol, sys_ = inner(model, args)
            st["captured"] = (model, sol, sys_)
            return sol, sys_

        lrvb.cli.fit_and_system = keep

    def after_round(self, st):
        pass

    def check(self, st):
        model, sol, sys_ = st["captured"]
        problems = checks.converged(sol, FIT_TOL)
        problems += checks.symmetric_psd(sys_.sigma_hat)
        with open(st["out"], encoding="utf-8") as fh:
            sens = json.load(fh)
        derivative = next(e["derivative"] for e in sens["entries"]
                          if e["quantity"] == "mu" and e["hyperparameter"] == DIRECTION)
        opts = mfvb.FitOptions(tol=self.refit_tol)
        i = model.layout.coord_index("mu")
        h = self.refit_step

        def refit(t):
            alpha = model.hyperparams.perturbed({DIRECTION: 1.0}, t)
            return mfvb.fit(model, init=sol.mean, alpha=alpha, opts=opts).mean[i]

        problems += checks.derivative_vs_refits(derivative, (refit(h) - refit(-h)) / (2 * h))
        return problems


WORKLOADS = {w.name: w for w in (CliBundled, InfluenceDense, Sites30)}
