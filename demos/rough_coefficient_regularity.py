"""Regularity diagnostics for the model operator with rough coefficients.

A checkerboard diffusion coefficient jumping between lam and 1/lam is about
as hostile as a bounded measurable coefficient gets; the density ratio,
weak Poincare functional, and oscillation decay should still behave."""

from crocco_prandtl import (density_ratio, model_scenarios, oscillation_table,
                            solve_model)
from crocco_prandtl.kolmogorov import DENSITY_FLOOR
from crocco_prandtl.scenarios import pinched_poincare, poincare_cutoff

LAM = 2.0

coef = model_scenarios("checkerboard", lam=LAM)
hist = solve_model(coef, nx=48, ny=192, nt=300)

print("density of positivity, checkerboard coefficient, lam = %g" % LAM)
den = density_ratio(hist, h=0.01, normalize=True)
print("hypothesis fraction %.3f, verdict %s" % (den.hypothesis_fraction,
                                                den.ratio >= DENSITY_FLOOR))
for level, ratio in den.h_certificate.items():
    print("  level h = %-8g slab ratio %.3f (floor 1/11 = %.4f)" %
          (level, ratio, DENSITY_FLOOR))

print()
print("oscillation decay over past boxes r = 0.4, 0.2, 0.1 and 0.3 r inside:")
osc = oscillation_table(hist)
for row in osc.rows:
    print("  r = %-4g osc %-10.4e -> %-10.4e ratio %.3f" %
          (row.r, row.osc_big, row.osc_small, row.ratio))
print("beta_bar = %.3f, fitted Holder exponent %.2f" % (osc.beta_bar, osc.alpha_holder))

# a pinched initial state makes the log transform nonvacuous: the field
# touches zero, so V = log(1/(h^{9/8} + u)) has genuine positive excursions
print()
rep = pinched_poincare(coef, (48, 192, 300), 0.01, poincare_cutoff(0.01))
print("weak Poincare on the log transform of a pinched run:")
print("  mean-value sup I0 = %.3f, lhs %.3e, rhs %.3e" % (rep.i0, rep.lhs, rep.rhs))
print("  ratio %.3e, hard violation: %s" % (rep.ratio, rep.ratio == float("inf")))
