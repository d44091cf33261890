import os
import sys

import numpy as np
import pytest

from lrvb import linear_response, mfvb
from lrvb.models import (build_microcredit_model, gaussian_target_model,
                         load_microcredit_csv, normal_invgamma_model,
                         normal_normal_model, simulate_microcredit)
from lrvb.models.microcredit import MicrocreditParams

# spec'd conjugate fixture: prior N(0,1), four unit-variance obs, xbar = 1
NN_DATA = np.array([1.3, 0.7, 1.2, 0.8])

# synthetic multi-site fixture: noisy outcomes so the priors genuinely
# matter, mirroring the application the hierarchical model targets
TRUTH = MicrocreditParams(
    mu=1.0, tau=0.5,
    effect_cov=np.array([[1.0, 0.21], [0.21, 0.49]]),
    noise_vars=100.0 * (1.0 + 0.1 * np.arange(7)))

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
BUNDLED_CSV = os.path.join(ROOT, "data", "microcredit_synthetic.csv")


def sites_model(tmp_path, n_sites):
    """The microcredit model on the benchmark's seeded study of n_sites."""
    # workloads imports its sibling modules by name
    sys.path.insert(0, PERFBENCH)
    try:
        from workloads import write_sites_csv
    finally:
        sys.path.remove(PERFBENCH)
    path = tmp_path / f"sites_{n_sites}.csv"
    write_sites_csv(path, 1, n_sites=n_sites)
    return build_microcredit_model(load_microcredit_csv(path))


@pytest.fixture(scope="session")
def nn_model():
    return normal_normal_model(NN_DATA, 1.0, ("moment", 0.0, 1.0))


@pytest.fixture(scope="session")
def nn_fit(nn_model):
    sol = mfvb.fit(nn_model, opts=mfvb.FitOptions(tol=1e-11))
    return sol, linear_response.build_system(nn_model, sol)


@pytest.fixture(scope="session")
def nig_model():
    rng = np.random.default_rng(3)
    return normal_invgamma_model(rng.normal(1.5, 1.2, size=20), 0.0, 1.0, 2.5, 2.0)


@pytest.fixture(scope="session")
def nig_fit(nig_model):
    sol = mfvb.fit(nig_model, opts=mfvb.FitOptions(tol=1e-10))
    return sol, linear_response.build_system(nig_model, sol)


@pytest.fixture(scope="session")
def gauss2_model():
    return gaussian_target_model(np.zeros(2), np.array([[1.0, -0.5], [-0.5, 1.0]]))


@pytest.fixture(scope="session")
def gauss2_fit(gauss2_model):
    sol = mfvb.fit(gauss2_model)
    return sol, linear_response.build_system(gauss2_model, sol)


@pytest.fixture(scope="session")
def micro_data():
    return simulate_microcredit(TRUTH, 200, seed=42)


@pytest.fixture(scope="session")
def micro_model(micro_data):
    return build_microcredit_model(micro_data)


@pytest.fixture(scope="session")
def micro_fit(micro_model):
    sol = mfvb.fit(micro_model)
    return sol, linear_response.build_system(micro_model, sol)
