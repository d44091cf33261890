"""Exponential-family building blocks.

Every variational factor lives in one of five families and can be
addressed through three equivalent coordinate systems: natural
parameters, mean parameters (expected sufficient statistics), and the
familiar standard parameters.  Each family is one object in
``lrvb.expfam.FAMILIES`` whose methods map between them, so this script
walks through the conversions, the statistic covariances, the entropy
A(eta) - eta.m and the closed-form moments used by the
covariance-decomposition prior with those methods, checking each against
a Monte Carlo estimate as it goes.
"""

import numpy as np

from lrvb import expfam as ef
from lrvb.expfam import FAMILIES, Family

rng = np.random.default_rng(0)

print("=" * 70)
print("Dual coordinates of a scalar Gaussian block")
print("=" * 70)
gauss = FAMILIES[Family.GAUSSIAN_UNIVARIATE]
eta = np.array([0.5, -0.125])
mean = gauss.mean_from_natural(eta)
# the scalar Gaussian is the d = 1 case of the multivariate family, so its
# standard parameters are mu (1,) and Sigma (1, 1)
mu, sigma = gauss.standard_from_natural(eta)
print(f"natural parameters : {eta}")
print(f"standard (mu, var) : ({mu[0]:g}, {sigma[0, 0]:g})")
print(f"mean parameters    : {mean}   <- (E[x], E[x^2])")
print(f"round trip natural : {gauss.natural_from_mean(mean)}")

print()
print("Statistic covariance = Jacobian of the mean map:")
cov = gauss.suff_stat_cov(eta)
print(cov)
draws = gauss.sample(eta, 200_000, rng)
stats = gauss.suff_stats(draws)
print("Monte Carlo covariance of (x, x^2):")
print(np.cov(stats.T))

print()
print("=" * 70)
print("Entropies against sampled log densities")
print("=" * 70)
for family, params in [
    (Family.GAUSSIAN_UNIVARIATE, ([0.0], [[4.0]])),
    (Family.GAMMA, (1.0, 1.0)),
    (Family.INVERSE_GAMMA, (2.5, 2.0)),
]:
    fam = FAMILIES[family]
    eta = fam.natural_from_standard(*params)
    d = fam.sample(eta, 50_000, rng)
    mc = -np.mean([fam.log_density(d[i], eta) for i in range(2_000)])
    print(f"{family.value:22s} entropy {ef.entropy(family, eta):+.6f}   MC ~ {mc:+.4f}")

print()
print("=" * 70)
print("Wishart block: closed-form moments of the precision and its inverse")
print("=" * 70)
dof, scale = 7.0, np.array([[0.4, 0.1], [0.1, 0.3]])
w = ef.wishart_expectations(dof, scale)
wishart = FAMILIES[Family.WISHART]
draws = wishart.sample(wishart.natural_from_standard(dof, scale), 100_000, rng)
inv = np.linalg.inv(draws)
diag = inv[:, [0, 1], [0, 1]]
print("E[precision]       :", w.mean_precision.ravel(),
      " MC:", draws.mean(axis=0).ravel().round(4))
print("E[log|precision|]  :", round(w.logdet, 6),
      " MC:", round(np.linalg.slogdet(draws)[1].mean(), 4))
print("E[log S_kk]        :", w.log_sigma_diag.round(6),
      " MC:", np.log(diag).mean(axis=0).round(4))
print("E[sqrt S_kk]       :", w.sqrt_sigma_diag.round(6),
      " MC:", np.sqrt(diag).mean(axis=0).round(4))
print("E[1/S_kk]          :", w.inv_sigma_diag.round(6),
      " MC:", (1.0 / diag).mean(axis=0).round(4))

print()
print("Square-root moment of an inverse-gamma variable:")
print("  shape 1.5, scale 1 ->", ef.invgamma_sqrt_expectation(1.5, 1.0),
      "(= 2/sqrt(pi))")
