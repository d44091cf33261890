import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from lrvb import cli
from lrvb.models import DEFAULT_PRIORS, save_microcredit_csv, simulate_microcredit
from lrvb.models.microcredit import MicrocreditParams

from conftest import BUNDLED_CSV


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    truth = MicrocreditParams(1.0, 0.5, np.array([[1.0, 0.21], [0.21, 0.49]]),
                              100.0 * (1.0 + 0.1 * np.arange(7)))
    data = simulate_microcredit(truth, 60, seed=7)
    path = tmp_path_factory.mktemp("data") / "synthetic.csv"
    save_microcredit_csv(data, path)
    return str(path)


def run(*argv):
    return cli.main(list(argv))


def fresh_python(code):
    """Standard output of ``code`` run by a new interpreter on this src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


def test_fit_leaves_scipy_optimize_and_integrate_unloaded(tmp_path):
    # the fit's quasi-Newton stage is numpy, and scipy.integrate (which
    # imports scipy.optimize) loads on the first quadrature; this test
    # process has loaded both already
    out = fresh_python(
        "import sys\n"
        "import numpy as np\n"
        "from lrvb import cli, oracle\n"
        f"assert cli.main(['fit', '--model', 'microcredit', '--data', {BUNDLED_CSV!r},\n"
        f"                 '--out', {str(tmp_path / 'fit.json')!r}]) == 0\n"
        "print(sorted({'scipy.optimize', 'scipy.integrate'} & set(sys.modules)))\n"
        "value, _ = oracle.quadrature_expectation(\n"
        "    lambda x: np.exp(-x * x / 2) / np.sqrt(2 * np.pi), lambda x: x * x,\n"
        "    (-np.inf, np.inf))\n"
        "print(abs(value - 1.0) < 1e-9, 'scipy.integrate' in sys.modules)\n")
    assert out.splitlines()[-2:] == ["[]", "True True"], out


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is about half of the package's import time, and only
    # Wishart sampling needs it
    out = fresh_python("import sys, lrvb, lrvb.cli; print('scipy.stats' in sys.modules)")
    assert out.strip() == "False"


class TestFit:
    def test_microcredit_smoke(self, data_csv, tmp_path):
        out = str(tmp_path / "fit.json")
        code = run("fit", "--model", "microcredit", "--data", data_csv, "--out", out)
        assert code == 0
        payload = json.loads(open(out).read())
        assert payload["schema_version"] == 1
        assert payload["converged"] is True
        assert set(payload["means"]) == set(payload["posterior_sd"])
        assert np.isfinite(payload["elbo"])

    def test_byte_identical_reruns(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert run("fit", "--model", "normal-normal", "--out", a) == 0
        assert run("fit", "--model", "normal-normal", "--out", b) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_csv_format(self, tmp_path):
        out = str(tmp_path / "fit.csv")
        assert run("fit", "--model", "gaussian3d", "--out", out,
                   "--format", "csv") == 0
        rows = list(csv.DictReader(open(out)))
        assert rows and set(rows[0]) == {"quantity", "mean", "posterior_sd"}

    def test_missing_data_is_usage_error(self, tmp_path):
        code = run("fit", "--model", "microcredit",
                   "--out", str(tmp_path / "x.json"))
        assert code == 2

    def test_unknown_override_names_valid_keys(self, data_csv, tmp_path, capsys):
        code = run("fit", "--model", "microcredit", "--data", data_csv,
                   "--out", str(tmp_path / "x.json"), "--set", "bogus=1")
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "lkj_shape" in err

    @pytest.mark.parametrize("cells, shown", [(3, "abc"), (2, "missing or non-numeric")])
    def test_non_numeric_cell_is_usage_error(self, data_csv, tmp_path, capsys, cells,
                                             shown):
        # a row with a bad outcome, or one whose outcome is missing
        lines = open(data_csv).read().splitlines()
        site, treat, _ = lines[3].split(",")
        lines[3] = ",".join([site, treat, "abc"][:cells])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = run("fit", "--model", "microcredit", "--data", str(bad),
                   "--out", str(tmp_path / "x.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 4" in err and shown in err

    @pytest.mark.parametrize("case", [
        "missing_column", "single_site", "nan_outcome", "inf_outcome",
        "negative_noise_shape", "indefinite_prior_info", "header_only"])
    def test_bad_microcredit_input_is_usage_error(self, data_csv, tmp_path,
                                                  capsys, case):
        lines = open(data_csv).read().splitlines()
        extra = []
        if case == "missing_column":
            lines[0] = "site,treatment,y"
        elif case == "header_only":
            lines = lines[:1]
        elif case == "single_site":
            lines = [lines[0]] + [ln for ln in lines[1:] if ln.split(",")[0] == "1"]
        elif case in ("nan_outcome", "inf_outcome"):
            site, treat, _ = lines[3].split(",")
            lines[3] = f"{site},{treat},{case[:3]}"
        else:
            extra = ["--set", {"negative_noise_shape": "noise_shape=-1",
                               "indefinite_prior_info": "prior_info_12=5"}[case]]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = run("fit", "--model", "microcredit", "--data", str(bad),
                   "--out", str(tmp_path / "x.json"), *extra)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert ("no data rows" in err) == (case == "header_only")

    def test_overflowing_override_prints_only_the_error(self, tmp_path, capsys):
        code = run("fit", "--model", "normal-normal",
                   "--out", str(tmp_path / "x.json"), "--set", "prior_nat_1=1e200")
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("numerical failure")

    @pytest.mark.parametrize("argv", [
        # each of these once left a traceback (exit 1) or exited 3
        ["influence-grid", "--model", "normal-normal", "--grid-points", "0"],
        ["influence-grid", "--model", "normal-normal", "--grid-points", "-3"],
        ["influence-grid", "--model", "normal-normal", "--grid-sds", "nan"],
        ["influence-grid", "--model", "normal-normal", "--grid-sds", "inf"],
        ["compare", "--model", "normal-normal", "--engine", "mcmc", "--seed", "-1",
         "--direction", "prior_nat_1=1", "--chain-length", "100", "--burn-in", "50"],
        ["compare", "--model", "normal-normal", "--engine", "mcmc", "--direction",
         "prior_nat_1=1", "--step", "1", "--chain-length", "5", "--burn-in", "0"],
        ["fit", "--model", "normal-normal", "--tol", "nan"],
        ["fit", "--model", "normal-normal", "--tol", "-1"],
        ["fit", "--model", "normal-normal", "--max-iter", "-5"],
        ["fit", "--model", "microcredit", "--data", BUNDLED_CSV,
         "--set", "prior_info_11=nan"],
        ["fit", "--model", "normal-normal", "--set", "prior_nat_1=nan"],
        ["fit", "--model", "gaussian3d", "--set", "info_11=nan"],
        ["fit", "--model", "normal-normal", "--max-iter", "abc"],
    ])
    def test_bad_option_is_one_usage_line(self, tmp_path, capsys, argv):
        assert run(*argv, "--out", str(tmp_path / "x.json")) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err

    def test_out_directory_is_one_usage_line(self, tmp_path, capsys):
        assert run("fit", "--model", "normal-normal", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err

    def test_array_in_a_failure_message_prints_on_one_line(self, tmp_path, capsys):
        # an indefinite precision is a usage error, found before the fit
        # (it exited 3 as a numerical failure)
        code = run("fit", "--model", "gaussian3d", "--out", str(tmp_path / "x.json"),
                   "--set", "info_11=-5")
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err

    @pytest.mark.parametrize("sets", [
        ["--model", "gaussian3d", "--set", "info_11=-1", "--set", "info_22=-1.5"],
        ["--model", "normal-normal", "--set", "prior_nat_2=1"],
    ])
    def test_override_outside_the_prior_domain_is_usage_error(self, tmp_path, capsys,
                                                              sets):
        # the conjugate models' overrides, checked as the microcredit build
        # checks its priors; each exited 3 with a numerical failure
        out = tmp_path / "x.json"
        assert run("fit", *sets, "--out", str(out)) == 2 and not out.exists()
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err

    def test_no_quasi_newton_iterations_is_non_convergence(self, tmp_path, capsys):
        # the polish once let the Hessian's DomainError out of the fit
        code = run("fit", "--model", "microcredit", "--data", BUNDLED_CSV,
                   "--out", str(tmp_path / "x.json"), "--max-iter", "0")
        assert code == 3
        assert "[NonConvergence]" in capsys.readouterr().err

    @pytest.mark.parametrize("failure", [None, cli.UsageError("bad input")])
    def test_warnings_held_until_exit_code(self, tmp_path, capsys, monkeypatch,
                                           failure):
        def command(args):
            warnings.warn("held back", RuntimeWarning)
            if failure:
                raise failure
            return cli.EXIT_OK

        shown = []
        monkeypatch.setitem(cli.COMMANDS, "fit", command)
        monkeypatch.setattr(warnings, "showwarning",
                            lambda message, category, *rest: shown.append(
                                (str(message), category)))
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            code = run("fit", "--model", "normal-normal",
                       "--out", str(tmp_path / "x.json"))
        err = capsys.readouterr().err
        if failure:
            assert (code, err, shown) == (2, "error: bad input\n", [])
        else:
            assert (code, err, shown) == (0, "", [("held back", RuntimeWarning)])

    def test_saddle_point_is_numerical_failure(self, tmp_path):
        # a random study on which the fit once stopped at a saddle point of
        # the objective, reported it converged, and printed the clipped sd
        # of effect_prec[1,0], a variance of -76.3, as 0
        rng = np.random.default_rng(0)
        path = tmp_path / "saddle.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["site", "treatment", "outcome"])
            writer.writerows(zip(np.repeat([0, 1], [26, 1]).tolist(),
                                 rng.integers(0, 2, 27).tolist(),
                                 rng.normal(1.0, 3.0, 27).tolist()))
        priors = {"prior_info_11": 1, "prior_info_22": 1,
                  "prior_info_12": -0.5388542584121077, "lkj_shape": 1,
                  "scale_shape": 1, "scale_rate": 0.28916501064662836,
                  "noise_shape": 0.6016637435616929, "noise_rate": 0.9577516371756841}
        sets = [arg for k, v in priors.items() for arg in ("--set", f"{k}={v!r}")]
        out = tmp_path / "x.json"
        code = run("fit", "--model", "microcredit", "--data", str(path),
                   "--out", str(out), *sets)
        assert code == 3 and not out.exists()

    def test_numerical_failure_exit_code(self, tmp_path):
        # a prior inside its domain whose second moments overflow -> exit 3
        code = run("fit", "--model", "gaussian3d",
                   "--out", str(tmp_path / "x.json"), "--set", "nat_loc_1=1e200")
        assert code == 3


class TestSensitivity:
    def test_conjugate_passthrough(self, tmp_path):
        out = str(tmp_path / "sens.json")
        assert run("sensitivity", "--model", "normal-normal", "--out", out) == 0
        payload = json.loads(open(out).read())
        values = {(e["quantity"], e["hyperparameter"]): e for e in payload["entries"]}
        entry = values[("theta", "prior_nat_1")]
        assert abs(entry["derivative"] - 0.2) < 1e-7
        assert entry["error"] is None
        assert payload["model_hash"] and payload["solution_hash"]

    def test_unknown_hyperparameter_names_valid_keys(self, tmp_path, capsys):
        code = run("sensitivity", "--model", "normal-normal",
                   "--out", str(tmp_path / "x.json"), "--hyperparams", "nope")
        assert code == 2
        err = capsys.readouterr().err
        assert "'nope'" in err and "valid keys" in err

    def test_unknown_quantity(self, tmp_path):
        code = run("sensitivity", "--model", "normal-normal",
                   "--out", str(tmp_path / "x.json"), "--quantities", "nope")
        assert code == 2


class TestInfluenceGrid:
    def test_default_grid_shape(self, tmp_path):
        out = str(tmp_path / "grid.json")
        assert run("influence-grid", "--model", "normal-normal", "--out", out,
                   "--grid-points", "21") == 0
        payload = json.loads(open(out).read())
        assert len(payload["influence"]) == 21
        assert payload["block"] == "theta"
        # influence vanishes at the fitted mean: the lattice is centered there
        mid = len(payload["influence"]) // 2
        assert abs(payload["influence"][mid]) < 1e-12

    def test_two_dim_block(self, data_csv, tmp_path):
        out = str(tmp_path / "grid.csv")
        assert run("influence-grid", "--model", "microcredit", "--data", data_csv,
                   "--out", out, "--format", "csv", "--grid-points", "5",
                   "--target", "tau") == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["mu", "tau", "dE[tau]/deps"]
        assert len(rows) == 1 + 25

    @pytest.mark.parametrize("argv,message", [
        (["--model", "microcredit", "--data", BUNDLED_CSV, "--block", "effects_1"],
         "prior does not factor across block"),
        (["--model", "gaussian3d", "--block", "theta_1"],
         "prior does not factor across block"),
        (["--model", "normal-normal", "--block", "nope"],
         "unknown block 'nope'; blocks: ['theta']"),
    ], ids=["microcredit", "gaussian3d", "unknown"])
    def test_block_without_factorized_prior_is_one_usage_line(self, tmp_path, capsys,
                                                              argv, message):
        out = tmp_path / "g.json"
        assert run("influence-grid", *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message)
        assert err.count("\n") == 1
        assert not out.exists()

    def test_large_two_dim_grid_reruns_byte_identical(self, data_csv, tmp_path,
                                                      monkeypatch):
        # 81 points: above the size at which grids were once split across
        # worker threads; the knob that enabled that must have no effect
        monkeypatch.setenv("LRVB_THREADS", "4")
        outs = [str(tmp_path / f"grid{i}.json") for i in range(2)]
        for out in outs:
            assert run("influence-grid", "--model", "microcredit", "--data",
                       data_csv, "--out", out, "--grid-points", "9") == 0
        a, b = (open(out, "rb").read() for out in outs)
        assert len(json.loads(a)["influence"]) == 81
        assert a == b

    def test_thread_variable_is_ignored(self, data_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("LRVB_THREADS", "x")
        assert run("influence-grid", "--model", "microcredit", "--data", data_csv,
                   "--out", str(tmp_path / "grid.json"), "--grid-points", "9") == 0


class TestCompare:
    def test_quadrature_engine(self, tmp_path):
        out = str(tmp_path / "cmp.json")
        assert run("compare", "--model", "normal-normal", "--engine", "quadrature",
                   "--direction", "prior_nat_1=1", "--out", out) == 0
        payload = json.loads(open(out).read())
        assert abs(payload["slope"] - 1.0) < 1e-3
        assert payload["entries"][0]["quantity"] == "theta"
        assert "chains" not in payload

    def test_quadrature_engine_fits_once(self, tmp_path, monkeypatch):
        # the three reruns integrate over one box placed around the
        # command's own fit
        fit, fits = cli.mfvb.fit, []

        def counted(*args, **kwargs):
            fits.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(cli.mfvb, "fit", counted)
        assert run("compare", "--model", "normal-normal", "--engine", "quadrature",
                   "--direction", "prior_nat_1=1", "--out",
                   str(tmp_path / "cmp.json")) == 0
        assert len(fits) == 1

    def test_mcmc_engine(self, tmp_path):
        outs = [str(tmp_path / f"cmp{i}.json") for i in range(2)]
        for out in outs:
            assert run("compare", "--model", "normal-normal", "--engine", "mcmc",
                       "--direction", "prior_nat_1=1", "--step", "0.3",
                       "--chain-length", "8000", "--burn-in", "1000",
                       "--seed", "3", "--out", out) == 0
        text = open(outs[0], "rb").read()
        assert open(outs[1], "rb").read() == text
        payload = json.loads(text)
        assert payload["correlation"] > 0.9
        assert all(e["mc_standard_error"] > 0 for e in payload["entries"])
        # each chain's diagnostics: acceptance near the adapted ~44%, and a
        # minimum ESS between 1 and the 7000 kept draws
        assert set(payload["chains"]) == {"base", "perturbed"}
        for chain in payload["chains"].values():
            assert 0.3 < chain["acceptance_rate"] < 0.6
            assert 1.0 < chain["min_ess"] <= 7000.0

    def test_quadrature_on_model_it_cannot_integrate_exits_before_fit(
            self, data_csv, tmp_path, capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("the model was fitted")

        monkeypatch.setattr(cli.mfvb, "fit", no_fit)
        out = tmp_path / "cmp.json"
        code = run("compare", "--model", "microcredit", "--data", data_csv,
                   "--engine", "quadrature", "--direction", "prior_info_11=1",
                   "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error: ")
        assert "at most 2 scalar variables" in err
        assert not out.exists()

    def test_mcmc_identical_chains_exit_numeric(self, data_csv, tmp_path, capsys):
        # at the default step (1% of prior_info_11) the coupled chains of a
        # 300-sweep run never decide differently: no sampled difference to
        # report.  The default 50,000 sweeps part a few times and exit 0.
        out = tmp_path / "cmp.json"
        code = run("compare", "--model", "microcredit", "--data", data_csv,
                   "--engine", "mcmc", "--direction", "prior_info_11=1",
                   "--chain-length", "300", "--burn-in", "50", "--out", str(out))
        assert code == 3
        assert "DegenerateChain" in capsys.readouterr().err
        assert not out.exists()

    def test_direction_validation(self, tmp_path):
        code = run("compare", "--model", "normal-normal", "--engine", "vb",
                   "--direction", "nope=1", "--out", str(tmp_path / "x.json"))
        assert code == 2

    @pytest.mark.parametrize("extra", [
        ["--direction", "prior_nat_1=0"],
        ["--direction", "prior_nat_1=1", "--step", "0"],
        ["--direction", "prior_nat_1=1", "--step", "nan"],
        ["--direction", "prior_nat_1=1", "--step=-inf"],
        ["--direction", "prior_nat_1=1", "--chain-length", "100", "--burn-in", "100"]])
    def test_degenerate_rerun_inputs_are_usage_errors(self, tmp_path, capsys, extra):
        out = tmp_path / "x.json"
        code = run("compare", "--model", "normal-normal", "--engine", "vb", *extra,
                   "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_undefined_slope_is_null(self, tmp_path):
        # a huge coefficient overflows predicted . predicted
        out = str(tmp_path / "cmp.json")
        assert run("compare", "--model", "normal-normal", "--engine", "vb",
                   "--direction", "prior_nat_1=1e300", "--out", out) == 0
        payload = json.loads(open(out).read())
        assert payload["slope"] is None and payload["correlation"] is None


# --- exit-code fuzzing -------------------------------------------------------

# cell values that parse, fail to parse, or parse to something out of domain
BAD_CELLS = ["", " ", "abc", "nan", "inf", "-inf", "1e400", "-1e400", "1e308",
             "-1", "0", "2", "1.5", "-0.0", "1e-320", "0x10", "1_000", '"7"']
NUMBER_TEXT = st.one_of(
    st.floats(-100.0, 100.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(BAD_CELLS))
# compare --direction coefficients and --step values: zero, tiny, huge and
# non-finite included
COEFFICIENTS = st.one_of(st.just(0.0), st.floats(-10.0, 10.0),
                         st.floats(allow_nan=True, allow_infinity=True))
STEPS = st.one_of(st.none(), st.floats(-2.0, 2.0),
                  st.sampled_from([0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300,
                                   -1e300, float("inf"), float("nan")]))
OVERRIDE_KEYS = {
    "microcredit": list(DEFAULT_PRIORS.names) + ["bogus"],
    "normal-normal": ["prior_nat_1", "prior_nat_2", "bogus"],
    "gaussian3d": ["nat_loc_1", "nat_loc_2", "nat_loc_3", "info_11", "info_21",
                   "info_22", "info_31", "info_32", "info_33", "bogus"],
}
# numeric options as text: in and out of range, non-finite and not numbers
OPTION_TEXT = {
    "--grid-points": st.one_of(st.integers(-5, 60).map(str), st.sampled_from(BAD_CELLS)),
    "--grid-sds": NUMBER_TEXT,
    "--tol": NUMBER_TEXT,
    "--max-iter": st.one_of(st.integers(-10, 200).map(str), st.sampled_from(BAD_CELLS)),
    "--seed": NUMBER_TEXT,
}


def _fuzz_csv_lines():
    truth = MicrocreditParams(1.0, 0.5, np.array([[1.0, 0.21], [0.21, 0.49]]),
                              100.0 * (1.0 + 0.1 * np.arange(3)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "base.csv")
        save_microcredit_csv(simulate_microcredit(truth, 8, seed=5), path)
        return open(path).read().splitlines()


FUZZ_CSV = _fuzz_csv_lines()


@st.composite
def corrupted_csv(draw):
    """The 3-site fuzz CSV with a few rows corrupted, dropped or repeated."""
    lines = list(FUZZ_CSV)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["cell", "drop", "repeat", "extra", "short",
                                       "text"]))
        cells = lines[i].split(",")
        if action == "cell":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(NUMBER_TEXT)
            lines[i] = ",".join(cells)
        elif action == "drop":
            del lines[i]
        elif action == "repeat":
            lines.insert(i, lines[i])
        elif action == "extra":
            lines[i] = lines[i] + "," + draw(NUMBER_TEXT)
        elif action == "short":
            lines[i] = ",".join(cells[:-1])
        else:
            lines[i] = draw(st.text(max_size=12))
        if not lines:
            break
    return "\n".join(lines) + "\n"


@st.composite
def numeric_options(draw):
    """A normal-normal command line with some numeric options as text."""
    command = draw(st.sampled_from(["fit", "influence-grid", "compare"]))
    names = ["--tol", "--max-iter"] + {"influence-grid": ["--grid-points", "--grid-sds"],
                                       "compare": ["--seed"]}.get(command, [])
    options = draw(st.fixed_dictionaries({}, optional={n: OPTION_TEXT[n] for n in names}))
    argv = [command, "--model", "normal-normal"]
    if command == "compare":
        argv += ["--engine", "mcmc", "--direction", "prior_nat_1=1", "--step", "0.1",
                 "--chain-length", "100", "--burn-in", "50"]
    # --name=value, so that a value such as -inf is not read as an option
    return argv + [f"{name}={value}" for name, value in options.items()]


@st.composite
def overrides(draw, model):
    pairs = draw(st.lists(st.tuples(st.sampled_from(OVERRIDE_KEYS[model]),
                                    NUMBER_TEXT), max_size=2))
    return [arg for key, value in pairs for arg in ("--set", f"{key}={value}")]


def check_exit(argv, csv_text=None):
    """One in-process CLI run exits 0, 2 or 3 with no traceback, a
    successful run writes JSON that parses, and a failed run writes exactly
    one stderr line.  An exception that escapes ``main``, a RuntimeWarning
    raised as an error included, fails the test with its traceback."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        # --max-iter keeps a pathological fit from taking the default budget;
        # it goes first, so that an option of argv overrides it
        argv = (argv[:1] + ["--out", os.path.join(tmp, "out.json"), "--max-iter", "200"]
                + argv[1:])
        if csv_text is not None:
            argv += ["--data", os.path.join(tmp, "in.csv")]
            with open(argv[-1], "w", encoding="utf-8") as fh:
                fh.write(csv_text)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception:
                pytest.fail(f"lrvb {' '.join(argv)} raised:\n{traceback.format_exc()}")
        if code == 0:
            # strict JSON: a bare nan or inf in the output fails to parse
            json.loads(open(argv[argv.index("--out") + 1], encoding="utf-8").read())
    event(f"exit {code}")
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


class TestExitCodeFuzz:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(corrupted_csv(), overrides("microcredit"),
           st.sampled_from(["fit", "sensitivity"]))
    # found by this test: the inverse-gamma initializer overflowed
    @example("\n".join(FUZZ_CSV) + "\n",
             ["--set", "noise_shape=1.1942354774624016e-215"], "fit")
    # a NaN information matrix passed the prior check and exited 3
    @example("\n".join(FUZZ_CSV) + "\n", ["--set", "prior_info_11=nan"], "fit")
    def test_microcredit_csv_and_overrides(self, text, sets, command):
        check_exit([command, "--model", "microcredit", *sets], csv_text=text)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(overrides("normal-normal"),
           st.sampled_from(["fit", "sensitivity", "influence-grid"]))
    # found by this test: a non-finite polish Hessian and a singular
    # variational covariance escaped the fit as ValueError and LinAlgError
    @example(["--set", "prior_nat_2=-9.480751908109073e+153"], "fit")
    @example(["--set", "prior_nat_2=-3.181212452095129e+161"], "fit")
    @example(["--set", "prior_nat_1=nan"], "fit")  # exited 3
    def test_normal_normal_overrides(self, sets, command):
        check_exit([command, "--model", "normal-normal", *sets])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(overrides("gaussian3d"), st.sampled_from(["fit", "sensitivity"]))
    @example(["--set", "info_11=nan"], "fit")  # exited 3 with a three-line message
    # found by this test: the initial second moment overflowed with a warning
    @example(["--set", "nat_loc_1=1e308"], "fit")
    def test_gaussian3d_overrides(self, sets, command):
        check_exit([command, "--model", "gaussian3d", *sets])

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(numeric_options())
    # each exited 1 with a traceback, or 3
    @example(["influence-grid", "--model", "normal-normal", "--grid-points=0"])
    @example(["influence-grid", "--model", "normal-normal", "--grid-points=-3"])
    @example(["influence-grid", "--model", "normal-normal", "--grid-sds=nan"])
    @example(["influence-grid", "--model", "normal-normal", "--grid-sds=inf"])
    @example(["compare", "--model", "normal-normal", "--engine", "mcmc", "--direction",
              "prior_nat_1=1", "--chain-length", "100", "--burn-in", "50", "--seed=-1"])
    @example(["fit", "--model", "normal-normal", "--tol=nan"])
    @example(["fit", "--model", "normal-normal", "--tol=-1"])
    @example(["fit", "--model", "normal-normal", "--max-iter=-5"])
    def test_numeric_options(self, argv):
        check_exit(argv)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.dictionaries(st.sampled_from(["prior_nat_1", "prior_nat_2"]),
                           COEFFICIENTS, min_size=1),
           STEPS, st.sampled_from([[], ["--chain-length", "100", "--burn-in", "50"]]))
    # usage errors now; before, a ZeroDivisionError (exit 1), exit 0 with
    # "slope": nan, and exit 3 as a numerical failure
    @example({"prior_nat_1": 0.0}, None, [])
    @example({"prior_nat_1": 1.0}, 0.0, [])
    @example({"prior_nat_1": 1.0}, 1.0, ["--chain-length", "100", "--burn-in", "100"])
    # a gradient of ~1e300, whose norm overflows if formed as sqrt(g'g)
    @example({"prior_nat_1": 0.0, "prior_nat_2": 1.0}, -1e300, [])
    def test_normal_normal_compare_vb(self, direction, step, chain):
        argv = ["compare", "--model", "normal-normal", "--engine", "vb", *chain]
        for key, coef in direction.items():
            argv += ["--direction", f"{key}={coef!r}"]
        if step is not None:
            argv.append(f"--step={step!r}")
        check_exit(argv)


class TestSchema:
    def test_schema_file_parses_and_covers_subcommands(self):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        schema = json.loads(open(os.path.join(here, "docs", "output_schema.json")).read())
        titles = {entry["title"] for entry in schema["oneOf"]}
        assert titles == {"fit", "sensitivity", "influence-grid", "compare"}
        assert "input_csv" in schema

    def test_fit_payload_matches_schema_fields(self, tmp_path):
        out = str(tmp_path / "fit.json")
        run("fit", "--model", "normal-normal", "--out", out)
        payload = json.loads(open(out).read())
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        schema = json.loads(open(os.path.join(here, "docs", "output_schema.json")).read())
        fit_schema = next(s for s in schema["oneOf"] if s["title"] == "fit")
        for field in fit_schema["required"]:
            assert field in payload
        for field in schema["$defs"]["header"]["required"]:
            assert field in payload
