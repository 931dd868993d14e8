"""The linear shear profile 1 - y is an exact steady state of the
regularized equation under a uniform outer flow with unit suction.
The marching scheme should hold it to round-off for every eps."""

import numpy as np

from crocco_prandtl import GridSpec, solve, trace_residual
from crocco_prandtl.scenarios import EXACT_T, exact_profile_problem

grid = GridSpec(64, 64, 64, L=1.0, T=EXACT_T)
problem = exact_profile_problem(grid)
exact = 1.0 - grid.y[None, None, :]

print("exact stationary profile, grid 64x64x64, T = %.2f" % EXACT_T)
print("%-10s %-12s %s" % ("eps", "sup error", "wall residual"))
for eps in (1e-1, 1e-2, 1e-3, 1e-4):
    hist = solve(problem, grid, eps)
    err = np.max(np.abs(hist.values - exact))
    tr = trace_residual(hist, problem)
    print("%-10g %-12.3e %.3e" % (eps, err, tr.wall_sup))

# the same profile under a refined grid: error stays at round-off, which
# separates scheme consistency from the exactness of the fixed point
fine = GridSpec(128, 128, 128, L=1.0, T=EXACT_T)
hist = solve(exact_profile_problem(fine), fine, 1e-3)
print("refined 128^3 sup error: %.3e" % np.max(np.abs(hist.values - (1.0 - fine.y))))
