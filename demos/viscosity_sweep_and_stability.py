"""Vanishing-regularization sweep plus the L1 continuous-dependence check.

Two claims are exercised: successive solutions form a Cauchy sequence in
L1 as eps decreases, and perturbing one data channel moves the solution
by no more than a modest multiple of the data distance."""

import numpy as np

from crocco_prandtl import (GridSpec, SolveStore, l1_stability, solve,
                            viscosity_sweep)
from crocco_prandtl.solver import grid_refinement_proxy
from crocco_prandtl.scenarios import (ACCEL_T, favorable_accel_problem,
                                      perturbed_problems)

# one store: the sweep's runs are reused by the proxy and the base run below
store = SolveStore()
grid = GridSpec(64, 64, 64, L=1.0, T=ACCEL_T)
problem = store.build(favorable_accel_problem, grid)

table = viscosity_sweep(problem, (0.1, 0.03, 0.01, 0.003, 0.001), store)
print("eps sweep, L1 gaps between consecutive runs:")
for row in table.rows:
    print("  %g -> %g : %.4e" % (row.eps_hi, row.eps_lo, row.l1_diff))
print("strictly decreasing:", table.largest_step < 0)

proxy = grid_refinement_proxy(favorable_accel_problem, grid, 0.001, store=store)
print("grid refinement proxy at eps = 0.001: %.4e" % proxy)
print("final sweep gap / proxy = %.2f (below 10 means the eps error is"
      " subordinate to the grid error)" % (table.rows[-1].l1_diff / proxy))

print()
print("L1 continuous dependence, perturbation size 1e-3 per data channel:")
base = store.solve(problem, 1e-3)
for name, pert in perturbed_problems(grid, 1e-3).items():
    hist = store.solve(pert, 1e-3)
    stab = l1_stability(base, hist, problem, pert)
    print("  %-8s c6_hat = %.3f  final lhs = %.3e" %
          (name, stab.c6_hat, stab.lhs[-1]))

# identical data must produce the identically zero distance; the second
# march bypasses the store on purpose
again = solve(problem, grid, 1e-3)
silent = l1_stability(base, again, problem, problem)
print("identical-data max lhs: %.2e (exact zero expected)" % np.max(silent.lhs))
