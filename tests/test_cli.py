import contextlib
import csv
import io
import json
import os
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

    def test_non_numeric_cell_is_usage_error(self, data_csv, tmp_path, capsys):
        lines = open(data_csv).read().splitlines()
        site, treat, _ = lines[3].split(",")
        lines[3] = f"{site},{treat},abc"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = run("fit", "--model", "microcredit", "--data", str(bad),
                   "--out", str(tmp_path / "x.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 4" in err and "abc" in err

    @pytest.mark.parametrize("case", [
        "missing_column", "single_site", "nan_outcome", "inf_outcome",
        "negative_noise_shape", "indefinite_prior_info"])
    def test_bad_microcredit_input_is_usage_error(self, data_csv, tmp_path,
                                                  capsys, case):
        lines = open(data_csv).read().splitlines()
        extra = []
        if case == "missing_column":
            lines[0] = "site,treatment,y"
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
        assert capsys.readouterr().err.startswith("error:")

    def test_overflowing_override_prints_only_the_error(self, tmp_path, capsys):
        code = run("fit", "--model", "normal-normal",
                   "--out", str(tmp_path / "x.json"), "--set", "prior_nat_1=1e200")
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("numerical failure")

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

    def test_numerical_failure_exit_code(self, tmp_path):
        # indefinite precision override -> domain failure -> exit 3
        code = run("fit", "--model", "gaussian3d",
                   "--out", str(tmp_path / "x.json"), "--set", "info_11=-1")
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

    def test_mcmc_engine(self, tmp_path):
        out = str(tmp_path / "cmp.json")
        assert run("compare", "--model", "normal-normal", "--engine", "mcmc",
                   "--direction", "prior_nat_1=1", "--step", "0.3",
                   "--chain-length", "8000", "--burn-in", "1000",
                   "--seed", "3", "--out", out) == 0
        payload = json.loads(open(out).read())
        assert payload["correlation"] > 0.9
        assert all(e["mc_standard_error"] > 0 for e in payload["entries"])

    def test_mcmc_identical_chains_exit_numeric(self, data_csv, tmp_path, capsys):
        # the default step (1% of prior_info_11) is too small for the coupled
        # chains to ever decide differently: no sampled difference to report
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


# --- exit-code fuzzing -------------------------------------------------------

# cell values that parse, fail to parse, or parse to something out of domain
BAD_CELLS = ["", " ", "abc", "nan", "inf", "-inf", "1e400", "-1e400", "1e308",
             "-1", "0", "2", "1.5", "-0.0", "1e-320", "0x10", "1_000", '"7"']
NUMBER_TEXT = st.one_of(
    st.floats(-100.0, 100.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(BAD_CELLS))
OVERRIDE_KEYS = {
    "microcredit": list(DEFAULT_PRIORS.names) + ["bogus"],
    "normal-normal": ["prior_nat_1", "prior_nat_2", "bogus"],
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
def overrides(draw, model):
    pairs = draw(st.lists(st.tuples(st.sampled_from(OVERRIDE_KEYS[model]),
                                    NUMBER_TEXT), max_size=2))
    return [arg for key, value in pairs for arg in ("--set", f"{key}={value}")]


def check_exit(argv, csv_text=None):
    """One in-process CLI run exits 0, 2 or 3 with no traceback, and a
    failed run writes exactly one stderr line.  An exception that escapes
    ``main``, a RuntimeWarning raised as an error included, fails the test
    with its traceback."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        # --max-iter keeps a pathological fit from taking the default budget
        argv = argv + ["--out", os.path.join(tmp, "out.json"), "--max-iter", "200"]
        if csv_text is not None:
            argv += ["--data", os.path.join(tmp, "in.csv")]
            with open(argv[-1], "w", encoding="utf-8") as fh:
                fh.write(csv_text)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception:
                pytest.fail(f"lrvb {' '.join(argv)} raised:\n{traceback.format_exc()}")
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
    def test_microcredit_csv_and_overrides(self, text, sets, command):
        check_exit([command, "--model", "microcredit", *sets], csv_text=text)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(overrides("normal-normal"),
           st.sampled_from(["fit", "sensitivity", "influence-grid"]))
    # found by this test: a non-finite polish Hessian and a singular
    # variational covariance escaped the fit as ValueError and LinAlgError
    @example(["--set", "prior_nat_2=-9.480751908109073e+153"], "fit")
    @example(["--set", "prior_nat_2=-3.181212452095129e+161"], "fit")
    def test_normal_normal_overrides(self, sets, command):
        check_exit([command, "--model", "normal-normal", *sets])


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
