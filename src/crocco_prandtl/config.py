"""Flat key = value configuration files for laboratory runs.

One key per line, '#' starts a comment, blank lines are skipped.  The keys
are the fields of RunConfig, each parsed by its field's type, and every
float must be finite; unknown or duplicated keys are rejected with the
offending line number so configs stay honest.  A RunConfig checks its
values when it is made, parsed or built (dataclasses.replace too): their
ranges, the estimates' interior margin, and a grid whose run would hold
more than HISTORY_BYTES_BUDGET in history- and level-sized arrays at its
peak, refused before anything is allocated.
"""

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .estimates import INTERIOR_MARGIN, check_margin

SCENARIOS = (
    "exact_profile",
    "favorable_accel",
    "viscosity_sweep",
    "stability_perturb",
    "kolmogorov_checks",
    "oscillation_lab",
)

THETA_MAX = 2.0**-6

# bytes the history-sized and level-sized arrays a run holds at its peak may
# take: a strip history is (nt + 1) x (nx + 1) x (ny + 1) floats, and so is
# a model history, whose column nx repeats column 0; a level is one time
# level of a history
HISTORY_BYTES_BUDGET = 2**30


@dataclass(frozen=True)
class RunConfig:
    """One run's inputs, refused with ConfigError when made out of range."""

    scenario: str
    nx: int = 64
    ny: int = 64
    nt: int = 64
    eps: float = 1e-3
    L: float = 1.0
    eps_list: tuple = (0.1, 0.03, 0.01, 0.003, 0.001)
    perturb: float = 1e-3
    lam: float = 2.0
    seed: int = 0
    h_level: float = 0.01
    theta: float = 0.01
    r: float = 1.0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario '{self.scenario}'; choose one of {', '.join(SCENARIOS)}")
        for key in ("nx", "ny", "nt"):
            if getattr(self, key) < 4:
                raise ConfigError(f"{key} must be at least 4, got {getattr(self, key)}")
        if self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps:g}")
        if self.L <= 0:
            raise ConfigError(f"L must be positive, got {self.L:g}")
        if len(self.eps_list) < 2:
            raise ConfigError("eps_list needs at least two values")
        if any(e <= 0 for e in self.eps_list):
            raise ConfigError("eps_list values must be positive")
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ConfigError("eps_list must be strictly decreasing")
        if self.perturb <= 0:
            raise ConfigError(f"perturb must be positive, got {self.perturb:g}")
        if self.lam <= 1:
            raise ConfigError(f"lam must exceed 1, got {self.lam:g}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not 0 < self.h_level < 0.5:
            raise ConfigError(f"h_level must lie in (0, 1/2), got {self.h_level:g}")
        if not 0 < self.theta < THETA_MAX:
            raise ConfigError(f"theta must lie in (0, {THETA_MAX:g}), got {self.theta:g}")
        if self.r <= 0:
            raise ConfigError(f"r must be positive, got {self.r:g}")
        if self.scenario in ("exact_profile", "favorable_accel"):
            # the interior variants of standard_estimates
            check_margin(INTERIOR_MARGIN, self.nx, self.ny)
        if self.scenario == "kolmogorov_checks":
            return
        # history-sized and level-sized ((nx + 1) x (ny + 1) floats) arrays a
        # run holds at its peak, from peak-RSS growth: each count also covers
        # the problems' (t, x) data, 5/(ny + 1) of a history per problem
        count, levels = {
            # the history and the estimate battery's full-volume temporaries;
            # the weak quadrature's slab arrays and the march's per-step arrays
            "exact_profile": (5, 144), "favorable_accel": (5, 144),
            # one history per eps, the refinement proxy's doubled grid (8
            # histories' worth) and the proxy's difference and its modulus; the
            # per-step arrays of the doubled grid's march
            "viscosity_sweep": (len(self.eps_list) + 11, 64),
            # the base run, three perturbation families, and the L1 distance's
            # difference and its modulus; the march's per-step arrays
            "stability_perturb": (7, 16),
            # the kept checkerboard run, a pinched rerun and its log transform
            # (the current run is dropped before the rerun); the model march's
            # per-step arrays and factored diagonals
            "oscillation_lab": (3, 64),
        }[self.scenario]
        held = 8 * (self.nx + 1) * (self.ny + 1) * (count * (self.nt + 1) + levels)
        if held > HISTORY_BYTES_BUDGET:
            raise ConfigError(f"{self.scenario} grid {self.grid_label} needs {held:,} bytes for "
                              f"{count} history-sized and {levels} level-sized arrays, over the "
                              f"budget of {HISTORY_BYTES_BUDGET:,}")

    @property
    def grid_label(self) -> str:
        return f"{self.nx}x{self.ny}x{self.nt}"


def _parse_float(text: str) -> float:
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"{val} is not a valid value")
    return val


def _parse_float_list(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(_parse_float(p) for p in parts)


_PARSERS = {f.name: {int: int, float: _parse_float, tuple: _parse_float_list, str: str}[f.type]
            for f in fields(RunConfig)}


def parse_config(text: str) -> RunConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        try:
            values[key] = _PARSERS[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: cannot parse {key} = '{val}' ({exc})") from None
    if "scenario" not in values:
        raise ConfigError("missing required key 'scenario'")
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text())
