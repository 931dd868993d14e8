"""Closed-form identities of the kinetic-transport kernel and the anisotropic
cutoff geometry used by the regularity machinery.

Everything here is analytic: no PDE solves, just quadrature and sampled
lattice checks, so defects sit at round-off or at the quadrature scale."""

import numpy as np

from crocco_prandtl import (CutoffSpec, dilation_defect, gamma0, l0_residual,
                            normalization, verify_lemma)

# kernel value at the reference point and the unit-mass property
print("kernel at ((0,0,1), origin): %.17g" % gamma0((0.0, 0.0, 1.0)))
for s in (0.1, 1.0):
    print("mass defect at time gap %g: %.2e" % (s, abs(normalization(s) - 1.0)))

# invariance under the anisotropic dilation group, 100 random pairs
rng = np.random.default_rng(7)
worst = 0.0
for _ in range(100):
    z = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.2, 1.5))
    worst = max(worst, dilation_defect(z, rng.uniform(0.5, 2.0)))
print("worst dilation defect over 100 seeded pairs: %.2e" % worst)

# the kernel annihilates the operator away from the pole; the discrete
# residual decays at second order in the stencil width
r1 = abs(l0_residual((0.1, 0.2, 1.0), h=1e-3))
r2 = abs(l0_residual((0.1, 0.2, 1.0), h=5e-4))
print("operator residual %.3e -> %.3e, order %.2f" % (r1, r2, np.log2(r1 / r2)))

print()
print("cutoff certification at theta = 0.01, r = 1:")
checks = verify_lemma(CutoffSpec(r=1.0, theta=0.01))
for name, chk in checks.items():
    print("  %-16s %-6s margin %.3g" % (name, "pass" if chk.passed else "FAIL", chk.value))
print("plateau, support, transport sign and band properties all certified"
      if all(chk.passed for chk in checks.values()) else "cutoff certification FAILED")
