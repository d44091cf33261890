import numpy as np
import pytest
import scipy.linalg

from lrvb import linear_response as lr
from lrvb import mfvb
from lrvb.errors import DimensionMismatch, NonConvergence, SingularSystem
from lrvb.expfam import Family
from lrvb.mfvb import BlockDef, Hyperparams, Layout, ModelSpec, VbSolution
from lrvb.models import build_microcredit_model, load_microcredit_csv
from lrvb.util import fd_hessian

from conftest import BUNDLED_CSV, sites_model


def toy_model(hess_coeffs):
    """One scalar Gaussian block with a quadratic objective in the means."""
    layout = Layout([BlockDef("theta", Family.GAUSSIAN_UNIVARIATE)])
    coeffs = np.asarray(hess_coeffs, dtype=float)

    def lik(m):
        return 0.5 * float(m @ coeffs @ m)

    def grad(m):
        return coeffs @ m

    zero = lambda m, a=None: 0.0
    zgrad = lambda m, a=None: np.zeros(2)
    return ModelSpec(name="toy", layout=layout, hyperparams=Hyperparams({}),
                     expected_log_lik=lik, grad_log_lik=grad,
                     expected_log_prior=zero, grad_log_prior=zgrad,
                     default_init=lambda a: np.array([0.0, 1.0]))


class TestBuildSystem:
    def test_no_coupling_reduces_to_v(self, nn_model, nn_fit):
        # likelihood and prior are linear in the means here, so H = 0
        sol, sys = nn_fit
        assert np.max(np.abs(sys.h)) < 1e-9
        assert np.max(np.abs(sys.sigma_hat - sys.v)) < 1e-10

    def test_two_dim_gaussian_recovers_inverse_precision(self, gauss2_model, gauss2_fit):
        sol, sys = gauss2_fit
        loc = gauss2_model.layout.location_indices()
        exact = np.linalg.inv(np.array([[1.0, -0.5], [-0.5, 1.0]]))
        block = sys.sigma_hat[np.ix_(loc, loc)]
        assert np.max(np.abs(block - exact)) / np.max(np.abs(exact)) < 1e-8

    def test_singular_system_detected(self):
        # V = diag(1, 2) at the standard normal; choose the quadratic
        # coupling so VH has a unit eigenvalue
        model = toy_model(np.diag([1.0, 0.0]))
        sol = VbSolution(mean=np.array([0.0, 1.0]), elbo=0.0, iterations=0,
                         converged=True, grad_norm=0.0)
        with pytest.raises(SingularSystem):
            lr.build_system(model, sol)

    def test_v_without_cholesky_factor_detected(self, nn_model):
        # at variance 1e-170 the block's V = diag(var, 2 var^2) has a
        # second entry that underflows to 0, so V has no Cholesky factor;
        # at 1e-160 it is subnormal and the system builds
        sol = VbSolution(mean=np.array([0.0, 1e-170]), elbo=0.0, iterations=0,
                         converged=True, grad_norm=0.0)
        with pytest.raises(SingularSystem, match="no Cholesky factor"):
            lr.build_system(nn_model, sol)

    def test_saddle_point_detected(self):
        # H = diag(2, 0) makes I - VH = diag(-1, 1): condition 1, and
        # (I - VH)^-1 V = diag(-1, 2) would be a covariance with a negative
        # variance.  B = I - L'HL = diag(-1, 1) has no Cholesky factor
        model = toy_model(np.diag([2.0, 0.0]))
        sol = VbSolution(mean=np.array([0.0, 1.0]), elbo=0.0, iterations=0,
                         converged=True, grad_norm=0.0)
        with pytest.raises(SingularSystem, match="not positive definite"):
            lr.build_system(model, sol)

    def test_requires_converged_solution(self, nn_model):
        bad = VbSolution(mean=np.array([0.0, 1.0]), elbo=0.0, iterations=0,
                         converged=False, grad_norm=1.0)
        with pytest.raises(NonConvergence):
            lr.build_system(nn_model, bad)

    @pytest.mark.parametrize("fixture", ["nn_fit", "nig_fit", "gauss2_fit", "micro_fit"])
    def test_sigma_symmetric_psd(self, fixture, request):
        _, sys = request.getfixturevalue(fixture)
        sigma = sys.sigma_hat
        assert np.array_equal(sigma, sigma.T)
        eigs = np.linalg.eigvalsh(sigma)
        assert eigs.min() >= -1e-8 * np.max(np.abs(sigma))
        assert np.all(np.diag(sigma) >= -1e-12)

    @pytest.mark.parametrize("fixture,model_fixture", [
        ("nn_fit", "nn_model"), ("nig_fit", "nig_model"),
        ("gauss2_fit", "gauss2_model"), ("micro_fit", "micro_model")])
    def test_hessian_matches_scalar_fd(self, fixture, model_fixture, request):
        sol, sys = request.getfixturevalue(fixture)
        model = request.getfixturevalue(model_fixture)
        alpha = model.hyperparams

        def objective(m):
            return model.expected_log_lik(m) + model.expected_log_prior(m, alpha)

        fd = fd_hessian(objective, sol.mean, rel_step=2e-4)
        scale = max(np.max(np.abs(fd)), 1.0)
        assert np.max(np.abs(sys.h - fd)) / scale < 1e-5

    def test_solver_matches_dense_solve(self, micro_fit):
        _, sys = micro_fit
        rng = np.random.default_rng(0)
        v = rng.normal(size=sys.dim)
        direct = np.linalg.solve(np.eye(sys.dim) - sys.v @ sys.h, sys.v @ v)
        assert np.max(np.abs(sys.solve(v) - direct)) < 1e-10 * max(1, np.max(np.abs(direct)))


    @pytest.mark.parametrize("n_sites", [7, 30])
    def test_sigma_matches_extended_precision_solve(self, n_sites, tmp_path):
        # the reference solves (I - VH) sigma = V with residuals taken in
        # long double, so its own error is far below the bound
        model = (build_microcredit_model(load_microcredit_csv(BUNDLED_CSV)) if n_sites == 7
                 else sites_model(tmp_path, n_sites))
        sys = lr.build_system(model, mfvb.fit(model))
        v, h = sys.v.astype(np.longdouble), sys.h.astype(np.longdouble)
        system = np.eye(sys.dim, dtype=np.longdouble) - v @ h
        lu = scipy.linalg.lu_factor(system.astype(float))
        ref = scipy.linalg.lu_solve(lu, sys.v).astype(np.longdouble)
        for _ in range(3):
            ref += scipy.linalg.lu_solve(lu, (v - system @ ref).astype(float))
        err = np.max(np.abs(sys.sigma_hat - ref)) / np.max(np.abs(ref))
        assert err <= 1e-14, err

    @pytest.mark.parametrize("fixture", ["nn_fit", "micro_fit"])
    def test_variances_are_the_diagonal(self, fixture, request):
        _, sys = request.getfixturevalue(fixture)
        diag = np.diag(sys.sigma_hat)
        idx = np.array([sys.dim - 1, 0])
        assert np.array_equal(sys.variances(), diag)
        assert np.array_equal(sys.variances(idx), diag[idx])


class TestFunctionSensitivity:
    def test_basis_vectors_select_entries(self, nig_fit):
        _, sys = nig_fit
        for i in range(sys.dim):
            for j in range(sys.dim):
                e_i, e_j = np.eye(sys.dim)[i], np.eye(sys.dim)[j]
                assert lr.function_sensitivity(sys, e_i, e_j) == sys.sigma_hat[i, j]

    def test_stacked_identity_recovers_sigma(self, nig_fit):
        _, sys = nig_fit
        eye = np.eye(sys.dim)
        recovered = np.array([[lr.function_sensitivity(sys, eye[i], eye[j])
                               for j in range(sys.dim)] for i in range(sys.dim)])
        assert np.array_equal(recovered, sys.sigma_hat)

    def test_symmetry_in_arguments(self, micro_fit):
        _, sys = micro_fit
        rng = np.random.default_rng(9)
        gh, gf = rng.normal(size=sys.dim), rng.normal(size=sys.dim)
        a = lr.function_sensitivity(sys, gh, gf)
        b = lr.function_sensitivity(sys, gf, gh)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)

    def test_analytic_value_on_gaussian(self, gauss2_fit):
        _, sys = gauss2_fit
        e1, e3 = np.eye(4)[0], np.eye(4)[2]
        assert abs(lr.function_sensitivity(sys, e1, e3) - 2.0 / 3.0) < 1e-9

    def test_dimension_mismatch(self, nn_fit):
        _, sys = nn_fit
        with pytest.raises(DimensionMismatch):
            lr.function_sensitivity(sys, np.ones(3), np.ones(2))
