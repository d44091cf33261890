"""The one-pass fit terms against the separate maps they replace in the fit.

``Layout.fit_terms`` makes one ``fit_terms`` call per family group and
``Layout.jacobian_transpose_times`` forms J' g block by block; the fit's
objective and gradient use both.  Here they are checked at random fit
coordinates of every family group of the conjugate fixtures and of the
microcredit model at 7 and 30 sites.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrvb.errors import DomainError
from lrvb.models import build_microcredit_model, load_microcredit_csv

from conftest import BUNDLED_CSV, sites_model

REL_TOL = 1e-13


@pytest.fixture(scope="module")
def layouts(nn_model, nig_model, gauss2_model, tmp_path_factory):
    """(layout, fit coordinates of the default start) per model."""
    models = [nn_model, nig_model, gauss2_model,
              build_microcredit_model(load_microcredit_csv(BUNDLED_CSV)),
              sites_model(tmp_path_factory.mktemp("sites"), 30)]
    return [(model.layout,
             model.layout.unconstrained_from_mean(model.default_init(model.hyperparams)))
            for model in models]


def _points(layouts, which, seed, scale):
    layout, z0 = layouts[which]
    rng = np.random.default_rng(seed)
    return layout, z0 + rng.normal(scale=scale, size=z0.size), rng


def _rel(got, ref):
    return float(np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300))


def _first_error(maps, z):
    """(type, message) of the first map that raises at z, or None; the fit
    reads DomainError and LinAlgError as points outside the domain."""
    for func in maps:
        try:
            func(z)
        except (DomainError, np.linalg.LinAlgError) as exc:
            return type(exc), str(exc)
    return None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 4), st.integers(0, 2 ** 32 - 1), st.floats(0.01, 2.0))
def test_terms_equal_the_separate_maps(layouts, which, seed, scale):
    layout, z, rng = _points(layouts, which, seed, scale)
    mean, natural, entropy, jacobians = layout.fit_terms(z)
    assert _rel(mean, layout.mean_from_unconstrained(z)) <= REL_TOL
    assert _rel(natural, layout.natural_from_unconstrained(z)) <= REL_TOL
    assert abs(entropy - layout.entropy_from_unconstrained(z)) <= REL_TOL * abs(entropy)
    # the closed-form entropy against A(eta) - eta.m of the separate maps,
    # which rounds like |A| + |eta.m|
    for fam, _, idx in layout.groups:
        eta = layout.natural_from_unconstrained(z)[idx]
        ref = fam.log_partition(eta) - np.sum(eta * mean[idx], axis=-1)
        bound = 1e-10 * (np.abs(fam.log_partition(eta))
                         + np.abs(np.sum(eta * mean[idx], axis=-1)) + 1.0)
        assert np.all(np.abs(fam.fit_terms(z[idx]).entropy - ref) <= bound)
    g = rng.normal(size=z.size)
    dense = layout.mean_jacobian(z).T @ g
    assert _rel(layout.jacobian_transpose_times(jacobians, g), dense) <= REL_TOL


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 4), st.integers(0, 2 ** 32 - 1), st.floats(0.01, 2.0))
def test_block_terms_do_not_depend_on_the_other_blocks(layouts, which, seed, scale):
    layout, z, rng = _points(layouts, which, seed, scale)
    g = rng.normal(size=z.size)
    _, _, _, jacobians = layout.fit_terms(z)
    whole_jtg = layout.jacobian_transpose_times(jacobians, g)
    for (fam, _, idx), jac in zip(layout.groups, jacobians):
        whole = fam.fit_terms(z[idx])
        # one block alone, and a random subset of the group's blocks
        subset = np.flatnonzero(rng.random(idx.shape[0]) < 0.5)
        for rows in [np.array([i]) for i in range(idx.shape[0])] + [subset]:
            if rows.size == 0:
                continue
            part = fam.fit_terms(z[idx[rows]])
            for w, p in zip(whole, part):
                assert np.array_equal(w[rows], p)
            jtg = np.sum(part.jacobian * g[idx[rows]][..., :, None], axis=-2)
            assert np.array_equal(jtg, whole_jtg[idx[rows]])
        assert np.array_equal(jac, whole.jacobian)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 4), st.integers(0, 2 ** 32 - 1), st.floats(1.0, 6.0),
       st.sampled_from([-1.0, 1.0]))
def test_outside_the_domain_raises_as_the_separate_maps(layouts, which, seed,
                                                        log10_size, sign):
    # one coordinate pushed far enough that exp under- or overflows, or a
    # second moment leaves the float range
    layout, z, rng = _points(layouts, which, seed, 0.3)
    z[rng.integers(z.size)] = sign * 10.0 ** log10_size
    with np.errstate(all="ignore"):
        expected = _first_error((layout.mean_from_unconstrained,
                                 layout.natural_from_unconstrained), z)
        if expected is None:
            layout.fit_terms(z)
        else:
            with pytest.raises(expected[0]) as info:
                layout.fit_terms(z)
            assert (type(info.value), str(info.value)) == expected


def test_outside_the_domain_cases_are_reached(layouts):
    # points that fail each family's check: a covariance, inverse-gamma
    # shape or Wishart dof - K - 1 that underflows to 0, and a second
    # moment that overflows
    layout, z0 = layouts[3]
    cases = {"top": (2, -800.0), "effect_prec": (3, -800.0), "noise_1": (1, -800.0)}
    for name, (offset, value) in cases.items():
        z = z0.copy()
        z[layout.slice_of(name).start + offset] = value
        with np.errstate(all="ignore"), pytest.raises(DomainError):
            layout.fit_terms(z)
    layout, z0 = layouts[0]
    with pytest.raises(DomainError, match="second moment"):
        layout.fit_terms(z0 + [1e200, 0.0])
