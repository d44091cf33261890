"""Spans around the calls into each lrvb layer, recorded from outside.

``Tracer.install`` replaces module functions, class methods and the
exponential-family objects in ``lrvb.expfam.FAMILIES`` with wrappers
that append one span (name, start, end, parent) per call to flat arrays
held in memory.  ``wrap_model`` does the same for the callables of a
``ModelSpec``.  Nothing inside ``src/`` is edited; ``uninstall`` puts the
originals back.  ``layer_metrics`` turns the spans into the per-layer
figures listed in BENCHMARK.json, each divided by the number of rounds.

``expfam.s`` skips spans whose parent is a family span, so a family
method that calls another family method is not counted twice.  Self time is a span's
duration minus the durations of its direct children.
"""

import dataclasses
import functools
import time
from array import array

import numpy as np

import lrvb.cli
from lrvb import expfam, linear_response, mfvb, oracle, robustness

LAYOUT_MAPS = (
    "check_mean", "natural_vector", "entropy", "suff_stat_cov",
    "unconstrained_from_mean", "mean_from_unconstrained",
    "natural_from_unconstrained", "entropy_from_unconstrained",
    "mean_jacobian", "values_from_sampler", "sampler_from_values",
    "suff_stats_of_values", "representative_values",
    "suff_stats_of_sampler_matrix",
)
SYSTEM_SOLVES = ("solve", "solve_identity_minus_vh", "solve_transpose")
OBJECTIVE = ("expected_log_lik", "grad_log_lik", "expected_log_prior",
             "grad_log_prior")

PER_LAYER = (
    ("mfvb.fit_s", "s"), ("mfvb.fits", "count"), ("mfvb.iterations", "count"),
    ("mfvb.layout_s", "s"),
    ("expfam.calls", "count"), ("expfam.s", "s"),
    ("models.objective_evals", "count"), ("models.gradient_evals", "count"),
    ("models.objective_s", "s"),
    ("models.prior_logpdf_calls", "count"), ("models.prior_logpdf_s", "s"),
    ("models.sampler_lp_calls", "count"), ("models.sampler_lp_s", "s"),
    ("linear_response.build_system_s", "s"), ("linear_response.hessian_s", "s"),
    ("linear_response.hessian_gradient_evals", "count"),
    ("linear_response.factor_s", "s"), ("linear_response.solve_s", "s"),
    ("linear_response.solve_columns", "count"),
    ("robustness.grid_s", "s"), ("robustness.grid_self_s", "s"),
    ("robustness.grid_points", "count"), ("robustness.report_s", "s"),
    ("robustness.report_entries", "count"),
    ("robustness.influence_calls", "count"), ("robustness.influence_s", "s"),
    ("oracle.metropolis_s", "s"), ("oracle.metropolis_sweeps", "count"),
    ("oracle.log_target_calls", "count"), ("oracle.acceptance_rate", "ratio"),
    ("oracle.rerun_s", "s"),
    ("cli.load_s", "s"), ("cli.write_s", "s"),
    ("cli.fit_cmd_s", "s"), ("cli.sensitivity_cmd_s", "s"),
    ("cli.influence_grid_cmd_s", "s"), ("cli.compare_vb_cmd_s", "s"),
    ("cli.compare_mcmc_cmd_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = {}
        self._patched = []

    # --- recording --------------------------------------------------------

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key, value=1.0):
        self.counters[key] = self.counters.get(key, 0.0) + value

    def wrap(self, name, fn, after=None):
        """Return fn recording one span per call; after(result, args) runs
        once the span has closed, to record counts read off the result."""
        nid = self._id(name)
        names, parents, starts, ends = (self.span_name, self.span_parent,
                                        self.start, self.end)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            stack.append(idx)
            starts.append(clock())
            ends.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def _replace(self, owner, attr, new):
        own = attr in vars(owner)
        self._patched.append((owner, attr, own, vars(owner)[attr] if own else None))
        setattr(owner, attr, new)

    def _patch(self, owner, attr, name, after=None):
        self._replace(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def uninstall(self):
        """Put back every original the tracer replaced."""
        for owner, attr, own, original in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    # --- wiring -----------------------------------------------------------

    def install(self):
        """Wrap every layer boundary the workloads cross."""
        self._patch(mfvb, "fit", "mfvb.fit",
                    lambda sol, _: self.count("mfvb.iterations", sol.iterations))
        for meth in LAYOUT_MAPS:
            self._patch(mfvb.Layout, meth, f"mfvb.layout.{meth}")
        for fam in expfam.FAMILIES.values():
            for meth in dir(type(fam)):
                if not meth.startswith("_") and callable(getattr(fam, meth)):
                    self._patch(fam, meth, f"expfam.{type(fam).__name__}.{meth}")

        self._patch(linear_response, "build_system", "linear_response.build_system")
        self._patch(linear_response, "hessian_of_objective", "linear_response.hessian")
        # only build_system calls lu_factor, so wrapping scipy's is safe here
        self._patch(linear_response.scipy.linalg, "lu_factor", "linear_response.factor")
        for meth in SYSTEM_SOLVES:
            self._patch(linear_response.LrvbSystem, meth, "linear_response.solve",
                        self._count_columns)

        self._patch(robustness, "influence_grid", "robustness.grid",
                    lambda grid, _: self.count("robustness.grid_points", grid.shape[0]))
        self._patch(robustness, "influence_function", "robustness.influence")
        self._patch(robustness, "make_report", "robustness.report",
                    lambda rep, _: self.count("robustness.report_entries",
                                              len(rep.entries)))

        self._patch(oracle, "perturb_and_rerun", "oracle.rerun")
        sampler = self.wrap("oracle.metropolis", oracle.metropolis_sample,
                            self._count_acceptance)

        def metropolis(log_target, init, config, adapt_sweeps=500):
            self.count("oracle.metropolis_sweeps", config.chain_length + adapt_sweeps)
            return sampler(self.wrap("oracle.log_target", log_target),
                           init, config, adapt_sweeps)

        self._replace(oracle, "metropolis_sample", metropolis)

        self._patch(lrvb.cli, "load_microcredit_csv", "cli.load")
        self._patch(lrvb.cli, "write_output", "cli.write")
        build = lrvb.cli.build_microcredit_model
        self._replace(lrvb.cli, "build_microcredit_model",
                      lambda *a, **k: self.wrap_model(build(*a, **k)))

    def _count_columns(self, out, _):
        self.count("linear_response.solve_columns",
                   1 if np.ndim(out) == 1 else np.shape(out)[1])

    def _count_acceptance(self, res, _):
        self.count("oracle.acceptance_sum", res.acceptance_rate)
        self.count("oracle.chains")

    def wrap_model(self, model):
        """Copy of a ModelSpec whose callables record spans."""
        fields = {f: self.wrap(f"models.{f}", getattr(model, f)) for f in OBJECTIVE}
        fields["prior_block_logpdf"] = {
            k: self.wrap("models.prior_logpdf", fn)
            for k, fn in model.prior_block_logpdf.items()}
        if model.sampler_log_posterior is not None:
            factory = model.sampler_log_posterior
            fields["sampler_log_posterior"] = lambda alpha: self.wrap(
                "models.sampler_lp", factory(alpha))
        return dataclasses.replace(model, **fields)

    # --- aggregation ------------------------------------------------------

    @staticmethod
    def span_cost(calls=10_000, repeats=5):
        """Seconds one span adds to a call: a traced no-op against a bare
        one, median of a few repeats."""
        def noop():
            return None

        traced = Tracer().wrap("noop", noop)
        clock = time.perf_counter
        costs = []
        for _ in range(repeats):
            start = clock()
            for _ in range(calls):
                noop()
            bare = clock() - start
            start = clock()
            for _ in range(calls):
                traced()
            costs.append((clock() - start - bare) / calls)
        return float(np.median(costs))

    def _per_name(self):
        """Calls, summed duration, summed self time and summed duration of
        spans without a family-method parent, each indexed by name id."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        is_family = np.array([nm.startswith("expfam.") for nm in self.names] + [False])
        under_family = has_parent & is_family[np.where(has_parent, name[parent], -1)]
        n = len(self.names)
        return (np.bincount(name, minlength=n),
                np.bincount(name, weights=dur, minlength=n),
                np.bincount(name, weights=dur - child, minlength=n),
                np.bincount(name, weights=dur * ~under_family, minlength=n),
                name, parent)

    def layer_metrics(self, rounds, op_seconds):
        """Per-layer figures per round.  op_seconds maps an op label to the
        wall time of that op summed over the run."""
        calls, total, self_time, outer_time, name, parent = self._per_name()

        def pick(values, prefix):
            return float(sum(values[i] for i, nm in enumerate(self.names)
                             if nm == prefix or nm.startswith(prefix + ".")))

        ids = {nm: i for i, nm in enumerate(self.names)}
        hess_grads = 0
        if "models.grad_log_lik" in ids and "linear_response.hessian" in ids:
            in_hessian = name[np.maximum(parent, 0)] == ids["linear_response.hessian"]
            hess_grads = int(np.sum((name == ids["models.grad_log_lik"])
                                    & (parent >= 0) & in_hessian))
        counter = self.counters.get
        raw = {
            "mfvb.fit_s": pick(total, "mfvb.fit"),
            "mfvb.fits": pick(calls, "mfvb.fit"),
            "mfvb.iterations": counter("mfvb.iterations", 0.0),
            "mfvb.layout_s": pick(self_time, "mfvb.layout"),
            "expfam.calls": pick(calls, "expfam"),
            "expfam.s": pick(outer_time, "expfam"),
            "models.objective_evals": pick(calls, "models.expected_log_lik"),
            "models.gradient_evals": pick(calls, "models.grad_log_lik"),
            "models.objective_s": sum(pick(total, f"models.{f}") for f in OBJECTIVE),
            "models.prior_logpdf_calls": pick(calls, "models.prior_logpdf"),
            "models.prior_logpdf_s": pick(total, "models.prior_logpdf"),
            "models.sampler_lp_calls": pick(calls, "models.sampler_lp"),
            "models.sampler_lp_s": pick(total, "models.sampler_lp"),
            "linear_response.build_system_s": pick(total, "linear_response.build_system"),
            "linear_response.hessian_s": pick(total, "linear_response.hessian"),
            "linear_response.hessian_gradient_evals": float(hess_grads),
            "linear_response.factor_s": pick(total, "linear_response.factor"),
            "linear_response.solve_s": pick(total, "linear_response.solve"),
            "linear_response.solve_columns": counter("linear_response.solve_columns", 0.0),
            "robustness.grid_s": pick(total, "robustness.grid"),
            "robustness.grid_self_s": pick(self_time, "robustness.grid"),
            "robustness.grid_points": counter("robustness.grid_points", 0.0),
            "robustness.report_s": pick(total, "robustness.report"),
            "robustness.report_entries": counter("robustness.report_entries", 0.0),
            "robustness.influence_calls": pick(calls, "robustness.influence"),
            "robustness.influence_s": pick(total, "robustness.influence"),
            "oracle.metropolis_s": pick(total, "oracle.metropolis"),
            "oracle.metropolis_sweeps": counter("oracle.metropolis_sweeps", 0.0),
            "oracle.log_target_calls": pick(calls, "oracle.log_target"),
            "oracle.rerun_s": pick(total, "oracle.rerun"),
            "cli.load_s": pick(total, "cli.load"),
            "cli.write_s": pick(total, "cli.write"),
            "trace.spans": float(name.size),
            "trace.overhead_s": name.size * self.span_cost(),
        }
        for label in ("fit", "sensitivity", "influence_grid", "compare_vb",
                      "compare_mcmc"):
            raw[f"cli.{label}_cmd_s"] = op_seconds.get(label, 0.0)
        out = {k: v / rounds for k, v in raw.items()}
        chains = counter("oracle.chains", 0.0)
        out["oracle.acceptance_rate"] = (
            counter("oracle.acceptance_sum", 0.0) / chains if chains else 0.0)
        return {k: {"value": out[k], "unit": unit} for k, unit in PER_LAYER}

    def span_summary(self):
        """Calls, summed time and self time per span name, for the record."""
        calls, total, self_time, _, _, _ = self._per_name()
        return {nm: {"calls": int(calls[i]), "s": float(total[i]),
                     "self_s": float(self_time[i])}
                for i, nm in enumerate(self.names)}
