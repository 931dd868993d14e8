"""Closed-form outer flows U(x, t) with their first derivatives.

A flow enters the interior problem only through U, dxU and dtU, which
`crocco.make_problem` samples once on the grid's (t, x) nodes; the pressure
gradient dxP = -(dtU + U dxU) is read from those samples.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ExternalFlow:
    """Tangential outer flow and its first derivatives, callables of (x, t)."""

    U: Callable
    dxU: Callable
    dtU: Callable


def uniform_flow() -> ExternalFlow:
    """U identically 1; the pressure gradient vanishes."""
    return ExternalFlow(
        U=lambda x, t: np.ones_like(x * t),
        dxU=lambda x, t: np.zeros_like(x * t),
        dtU=lambda x, t: np.zeros_like(x * t),
    )


def accelerating_flow() -> ExternalFlow:
    """U = 1 + t; favorable since dxP = -1."""
    return ExternalFlow(
        U=lambda x, t: 1.0 + t + 0.0 * x,
        dxU=lambda x, t: np.zeros_like(x * t),
        dtU=lambda x, t: np.ones_like(x * t),
    )


def decelerating_flow() -> ExternalFlow:
    """U = 1 - x/4; adverse, dxP = (1 - x/4)/4 > 0."""
    return ExternalFlow(
        U=lambda x, t: 1.0 - x / 4.0 + 0.0 * t,
        dxU=lambda x, t: -0.25 * np.ones_like(x * t),
        dtU=lambda x, t: np.zeros_like(x * t),
    )
