"""The tracer's counts on a small fit, and the seeded 30-site inputs.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from lrvb import linear_response, mfvb, robustness  # noqa: E402
from lrvb.models import load_microcredit_csv, normal_normal_model  # noqa: E402

from spans import PER_LAYER, Tracer  # noqa: E402
from workloads import write_sites_csv  # noqa: E402


def test_tracer_counts_layers_and_uninstalls():
    originals = (mfvb.fit, linear_response.build_system, robustness.influence_grid,
                 linear_response.scipy.linalg.lu_factor)
    tracer = Tracer()
    tracer.install()
    try:
        model = tracer.wrap_model(normal_normal_model(
            np.array([1.3, 0.7, 1.2, 0.8]), 1.0, ("moment", 0.0, 1.0)))
        sol = mfvb.fit(model)
        sys_ = linear_response.build_system(model, sol)
        robustness.influence_grid(model, sol, sys_, "theta", np.linspace(-1, 1, 7))
        metrics = tracer.layer_metrics(1, {"fit": 0.5})
    finally:
        tracer.uninstall()
    assert (mfvb.fit, linear_response.build_system, robustness.influence_grid,
            linear_response.scipy.linalg.lu_factor) == originals
    assert "natural_from_mean" not in vars(mfvb.FAMILIES[mfvb.Family.GAUSSIAN_UNIVARIATE])
    assert list(metrics) == [name for name, _ in PER_LAYER]
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["mfvb.fits"] == 1
    assert value["mfvb.iterations"] == sol.iterations
    assert value["linear_response.hessian_gradient_evals"] == 2 * sys_.dim
    assert value["robustness.grid_points"] == 7
    assert value["linear_response.solve_columns"] == 7
    assert value["models.prior_logpdf_calls"] == 7
    assert value["cli.fit_cmd_s"] == 0.5
    assert 0 < value["linear_response.hessian_s"] < value["linear_response.build_system_s"]
    assert 0 < value["robustness.grid_self_s"] < value["robustness.grid_s"]
    assert value["expfam.calls"] > 0 and value["expfam.s"] > 0
    assert value["oracle.metropolis_s"] == 0 and value["oracle.acceptance_rate"] == 0


def test_sites_csv_is_seeded(tmp_path):
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for path, seed in zip(paths, (3, 3, 4)):
        write_sites_csv(path, seed)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    data = load_microcredit_csv(paths[0])
    assert data.n_sites == 30 and data.outcome.size == 30 * 200
