"""Outer tangential flow U(x, t) and the induced pressure gradient.

The flow enters the interior problem only through U and its first
derivatives; the pressure gradient is eliminated with the Bernoulli relation

    dxP = -(dtU + U dxU).

A flow is "favorable" when dxP <= 0 everywhere on the sampled domain.
Flows are named built-ins with closed-form derivatives.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class ExternalFlow:
    """Tangential outer flow on [0, L] x [0, T] with first derivatives."""

    U: Callable
    dxU: Callable
    dtU: Callable
    L: float = 1.0
    T: float = 1.0
    name: str = "custom"


@dataclass(frozen=True)
class PressureGradient:
    """Favorability of the Bernoulli pressure gradient and its largest value.

    favorable is decided on a sample lattice; it is a property of the flow,
    not of the lattice density (verified by the test-suite on nested
    lattices).
    """

    favorable: bool
    worst_value: float
    worst_location: tuple


def _as_field(fn: Callable) -> Callable:
    def wrapped(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        out = np.asarray(fn(x, t), dtype=float)
        return np.broadcast_to(out, np.broadcast(x, t).shape)

    return wrapped


def uniform_flow(L: float = 1.0, T: float = 1.0) -> ExternalFlow:
    """U identically 1; the pressure gradient vanishes."""
    return ExternalFlow(
        U=_as_field(lambda x, t: np.ones_like(x * t)),
        dxU=_as_field(lambda x, t: np.zeros_like(x * t)),
        dtU=_as_field(lambda x, t: np.zeros_like(x * t)),
        L=L,
        T=T,
        name="uniform",
    )


def accelerating_flow(L: float = 1.0, T: float = 1.0) -> ExternalFlow:
    """U = 1 + t; favorable since dxP = -1."""
    return ExternalFlow(
        U=_as_field(lambda x, t: 1.0 + t + 0.0 * x),
        dxU=_as_field(lambda x, t: np.zeros_like(x * t)),
        dtU=_as_field(lambda x, t: np.ones_like(x * t)),
        L=L,
        T=T,
        name="accelerating",
    )


def decelerating_flow(L: float = 1.0, T: float = 1.0) -> ExternalFlow:
    """U = 1 - x/4; adverse, dxP = (1 - x/4)/4 > 0."""
    return ExternalFlow(
        U=_as_field(lambda x, t: 1.0 - x / 4.0 + 0.0 * t),
        dxU=_as_field(lambda x, t: -0.25 * np.ones_like(x * t)),
        dtU=_as_field(lambda x, t: np.zeros_like(x * t)),
        L=L,
        T=T,
        name="decelerating",
    )


BUILTIN_FLOWS = {
    "uniform": uniform_flow,
    "accelerating": accelerating_flow,
    "decelerating": decelerating_flow,
}


def make_flow(name: str, L: float = 1.0, T: float = 1.0) -> ExternalFlow:
    try:
        builder = BUILTIN_FLOWS[name]
    except KeyError:
        raise ConfigError(f"unknown flow {name!r}; choose from "
                          f"{sorted(BUILTIN_FLOWS)}") from None
    return builder(L=L, T=T)


def pressure_gradient(flow: ExternalFlow, nx: int = 65, nt: int = 65) -> PressureGradient:
    """Build dxP = -(dtU + U dxU) and classify favorability on a lattice.

    A non-positive U sample is a data error; the offending (x, t) is named.
    """
    xx, tt = np.meshgrid(np.linspace(0.0, flow.L, nx), np.linspace(0.0, flow.T, nt),
                         indexing="ij")
    Uv = flow.U(xx, tt)
    if np.any(Uv <= 0.0):
        i, j = np.unravel_index(int(np.argmin(Uv)), Uv.shape)
        raise DataError(
            f"flow U must be positive; U={Uv[i, j]:.6g} at (x={xx[i, j]:.6g}, t={tt[i, j]:.6g})"
        )

    vals = -(flow.dtU(xx, tt) + Uv * flow.dxU(xx, tt))
    k = int(np.argmax(vals))
    i, j = np.unravel_index(k, vals.shape)
    worst = float(vals[i, j])
    return PressureGradient(
        favorable=bool(worst <= 1e-12),
        worst_value=worst,
        worst_location=(float(xx[i, j]), float(tt[i, j])),
    )
