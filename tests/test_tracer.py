"""The benchmark's tracer still wires onto every name it patches.

``perfbench/spans.py`` wraps module functions, ``Layout`` maps, family
methods and ``ModelSpec`` hooks by name, so a name deleted or renamed in
``src/`` breaks ``perfbench/run.py --trace 1``.  Installing the tracer here
catches that in the main suite.
"""

import sys

import numpy as np
import pytest

import lrvb.cli
from lrvb import expfam, linear_response, mfvb, oracle, robustness

from conftest import PERFBENCH


@pytest.fixture(scope="module")
def spans():
    # imported from its directory, as the benchmark's scripts import it
    sys.path.insert(0, PERFBENCH)
    try:
        import spans
    finally:
        sys.path.remove(PERFBENCH)
    return spans


def _owners():
    """Every object whose attributes the tracer replaces."""
    return ([mfvb, mfvb.Layout, linear_response, linear_response.scipy.linalg,
             linear_response.LrvbSystem, robustness, oracle, lrvb.cli]
            + list(expfam.FAMILIES.values()))


def test_install_patches_and_uninstall_restores(spans):
    before = {id(owner): dict(vars(owner)) for owner in _owners()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = [(owner, attr) for owner, attr, _, _ in tracer._patched]
        assert all(getattr(owner, attr) is not before[id(owner)].get(attr)
                   for owner, attr in patched)
        assert {attr for _, attr in patched} >= {"fit", "build_system", "metropolis_sample",
                                                  "values_from_sampler", "natural_from_mean"}
    finally:
        tracer.uninstall()
    for owner in _owners():
        now, saved = vars(owner), before[id(owner)]
        assert now.keys() == saved.keys(), owner
        assert all(now[k] is saved[k] for k in saved), owner


@pytest.mark.parametrize("fixture", ["nn_model", "nig_model", "gauss2_model"])
def test_wrapped_model_has_the_same_log_target(spans, fixture, request):
    model = request.getfixturevalue(fixture)
    tracer = spans.Tracer()
    wrapped = tracer.wrap_model(model)
    bare = oracle.sampler_log_target(model)
    traced = oracle.sampler_log_target(wrapped)
    points = np.random.default_rng(5).normal(0.0, 1.5, size=(10, model.layout.value_dim()))
    assert [traced(z) for z in points] == [bare(z) for z in points]
    assert tracer.span_summary()["models.sampler_lp"]["calls"] == len(points)
