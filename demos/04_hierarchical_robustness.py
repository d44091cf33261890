"""End-to-end robustness audit of the hierarchical multi-site model.

Simulates a noisy multi-site study, fits the factorized approximation,
and then asks the robustness questions that motivate the library: which
prior choices move the headline effects, where would added prior mass be
influential, and do the predicted derivatives match brute-force reruns?

Runs in about 15 seconds; the sampling comparison uses a short chain here
(the full-scale version lives in the acceptance suite).
"""

import numpy as np

from lrvb import linear_response as lr
from lrvb import mfvb, oracle
from lrvb import robustness as rb
from lrvb.models import build_microcredit_model, simulate_microcredit
from lrvb.models.microcredit import MicrocreditParams

truth = MicrocreditParams(
    mu=1.0, tau=0.5,
    effect_cov=np.array([[1.0, 0.21], [0.21, 0.49]]),
    noise_vars=100.0 * (1.0 + 0.1 * np.arange(7)))
data = simulate_microcredit(truth, 200, seed=42)
model = build_microcredit_model(data)

print(f"{data.site.size} observations across {data.n_sites} sites; "
      f"fitting {model.layout.dim} mean coordinates...")
sol = mfvb.fit(model)
sys = lr.build_system(model, sol)
names = model.layout.coord_names()
i_mu, i_tau = names.index("mu"), names.index("tau")
sd_mu, sd_tau = np.sqrt(sys.variances([i_mu, i_tau]))
print(f"pooled average outcome  mu  = {sol.mean[i_mu]:+.4f} +- {sd_mu:.4f}")
print(f"pooled treatment effect tau = {sol.mean[i_tau]:+.4f} +- {sd_tau:.4f}")

print()
print("Sensitivity of the headline effects, per posterior sd:")
queries = [rb.SensitivityQuery(quantity=q, target=q, direction={h: 1.0},
                               direction_label=h)
           for q in ("mu", "tau")
           for h in ("prior_info_11", "prior_info_22", "lkj_shape",
                     "scale_rate", "noise_rate")]
report = rb.make_report(queries, model, sol, sys)
print(f"  {'quantity':>8s} {'hyperparameter':>15s} {'derivative':>12s} {'per sd':>10s}")
for e in report.entries:
    print(f"  {e.quantity:>8s} {e.direction:>15s} {e.value:12.5f} {e.normalized:10.5f}")
print("  the effects respond to the top-level precision prior; the")
print("  correlation-concentration direction barely registers.")

print()
print("Influence of prior mass for (mu, tau) on the treatment effect:")
offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
centers = sol.mean[[i_mu, i_tau]]
pts = np.array([[centers[0] + a * sd_mu, centers[1] + b * sd_tau]
                for a in offsets for b in offsets])
grid = rb.influence_grid(model, sol, sys, "top", pts)
vals = grid[:, i_tau].reshape(5, 5)
print("rows: mu offset (-2..+2 sd); cols: tau offset (-2..+2 sd)")
for a, row in zip(offsets, vals):
    print("  " + " ".join(f"{v:9.3f}" for v in row))
print("  mass added off-center along tau is what moves E[tau];")
print("  the fitted mean itself is a null direction.")

print()
print("Predicted vs actual changes under a prior-precision increase:")
res_vb = oracle.perturb_and_rerun(model, {"prior_info_11": 1.0}, engine="vb",
                                  sol=sol, sys=sys,
                                  fit_opts=mfvb.FitOptions(tol=1e-10))
top = res_vb.restricted(["mu", "tau"])
print(f"  refit engine: slope {top.slope:.6f} over (mu, tau) "
      f"-- the derivative of the fixed point is exact")

cfg = oracle.McmcConfig(chain_length=30_000, burn_in=6_000, seed=11)
res_mc = oracle.perturb_and_rerun(model, {"prior_info_11": 1.0}, engine="mcmc",
                                  step=1.0, sol=sol, sys=sys, mcmc_config=cfg,
                                  mcmc_adapt=600)
sel = ["mu", "tau"] + [f"mu_site{j+1}" for j in range(7)]
sub = res_mc.restricted(sel)
print(f"  sampling engine (short chain): correlation {sub.correlation:.3f}")
print(f"  {'quantity':>10s} {'predicted':>10s} {'actual':>10s} {'mc se':>8s}")
for n, p, a, s in zip(sub.names, sub.predicted_deltas, sub.actual_deltas,
                      sub.mc_standard_errors):
    print(f"  {n:>10s} {p:10.4f} {a:10.4f} {s:8.4f}")
