"""The model solver run from a narrow Gaussian should reproduce the
closed-form kernel after a short time: a cross-validation between the
finite-difference machinery and the analytic formula.

First-order upwinding smears the streamwise direction, so the relative
sup error sits at the few-percent scale and halves slowly under
refinement; that is the expected signature, not a defect."""

from crocco_prandtl import kernel_reproduction

base = kernel_reproduction(nx=128, nt=128)
print("base grid 128^3: peak %.4f, sup error %.4f, relative %.3f" %
      (base["peak"], base["sup_error"], base["rel_error"]))

fine = kernel_reproduction(nx=192, nt=192)
print("fine grid 192 x 128 x 192: relative error %.3f" % fine["rel_error"])
print("refinement improves the reproduction: %s" %
      (fine["rel_error"] < base["rel_error"]))
