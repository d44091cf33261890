"""Mean-field variational Bayes with linear-response covariances and fast
local prior-robustness measures, verifiable against built-in brute-force
oracles."""

from . import expfam, linear_response, mfvb, models, oracle, robustness
from .errors import (DegenerateChain, DimensionMismatch, DomainError,
                     DomainViolation, LrvbError, NonConvergence,
                     NonDifferentiablePrior, NormalizationFailure,
                     NotConjugate, QuadratureFailure, SingularSystem,
                     ZeroPriorDensity)
from .expfam import (Family, WishartExpectations, entropy,
                     invgamma_sqrt_expectation, wishart_expectations)
from .linear_response import LrvbSystem, build_system, function_sensitivity
from .mfvb import (BlockDef, FitOptions, Hyperparams, Layout, ModelSpec,
                   VbSolution, elbo, elbo_grad_mean, fit)
from .oracle import (ComparisonResult, ConjugatePosterior, McmcConfig,
                     McmcResult, exact_conjugate_posterior, metropolis_sample,
                     perturb_and_rerun, quadrature_expectation)
from .robustness import (ContaminationSpec, SensitivityQuery,
                         SensitivityReport, WorstCaseResult,
                         contamination_sensitivity, hyperparam_sensitivity,
                         influence_function, influence_grid, make_report,
                         worst_case_perturbation)

__version__ = "0.1.0"
