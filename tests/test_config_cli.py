import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crocco_prandtl
from crocco_prandtl import scenarios
from crocco_prandtl._version import __version__
from crocco_prandtl.cli import main
from crocco_prandtl.config import (SCENARIOS, THETA_MAX, RunConfig, load_config,
                                   parse_config)
from crocco_prandtl.errors import ConfigError, NumericalError
from crocco_prandtl.reporting import fmt

TINY_EXACT = """
# smallest stable exact-profile run
scenario = exact_profile
nx = 16
ny = 16
nt = 24
eps = 1e-2
"""


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_happy_path():
    cfg = parse_config(TINY_EXACT)
    assert cfg.scenario == "exact_profile"
    assert (cfg.nx, cfg.ny, cfg.nt) == (16, 16, 24)
    assert cfg.eps == 1e-2
    assert cfg.grid_label == "16x16x24"
    # untouched keys keep their defaults
    assert cfg.eps_list == (0.1, 0.03, 0.01, 0.003, 0.001)


def test_parse_config_lists_and_comments():
    cfg = parse_config(
        "scenario = viscosity_sweep  # trailing comment\n"
        "eps_list = 0.1, 0.01, 0.001\n")
    assert cfg.eps_list == (0.1, 0.01, 0.001)


@pytest.mark.parametrize("text,fragment", [
    ("scenario = exact_profile\nwidgets = 3\n", "line 2: unknown key"),
    ("scenario = exact_profile\nscenario = exact_profile\n", "line 2: duplicate"),
    ("scenario exact_profile\n", "line 1: expected"),
    ("scenario = exact_profile\nnx = soon\n", "line 2: cannot parse nx"),
    ("scenario = exact_profile\neps = nan\n", "line 2: cannot parse eps"),
    ("nx = 16\n", "missing required key"),
    ("scenario = warp_drive\n", "unknown scenario"),
])
def test_parse_config_rejects(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


@pytest.mark.parametrize("line", [
    "nx = 3",
    "eps = 0",
    "L = -1",
    "eps_list = 0.1",
    "eps_list = 0.1, 0.2",
    "eps_list = 0.1, -0.01",
    "perturb = 0",
    "lam = 1.0",
    "seed = -1",
    "h_level = 0.6",
    "theta = 0.1",
    "r = 0",
])
def test_parse_config_value_ranges(line):
    with pytest.raises(ConfigError):
        parse_config(f"scenario = exact_profile\n{line}\n")


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def at_or_below(bound):
    """Finite floats <= bound, with the bound itself drawn often."""
    return st.one_of(st.just(bound), st.floats(max_value=bound, allow_infinity=False))


def at_or_above(bound):
    return st.one_of(st.just(bound), st.floats(min_value=bound, allow_infinity=False))


VALID_CONFIGS = st.builds(
    RunConfig,
    scenario=st.sampled_from(SCENARIOS),
    nx=st.integers(4, 10**6),
    ny=st.integers(4, 10**6),
    nt=st.integers(4, 10**6),
    eps=POSITIVE,
    L=POSITIVE,
    eps_list=st.lists(POSITIVE, min_size=2, max_size=6, unique=True).map(
        lambda v: tuple(sorted(v, reverse=True))),
    perturb=POSITIVE,
    lam=st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
    seed=st.integers(0, 2**63),
    h_level=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    theta=st.floats(0.0, THETA_MAX, exclude_min=True, exclude_max=True),
    r=POSITIVE,
)


def _valid_eps_list(values) -> bool:
    return (len(values) >= 2 and all(v > 0 for v in values)
            and all(b < a for a, b in zip(values, values[1:])))


# one key set outside its admissible range
OUT_OF_RANGE = st.one_of(
    st.tuples(st.sampled_from(["nx", "ny", "nt"]), st.integers(max_value=3)),
    st.tuples(st.sampled_from(["eps", "L", "perturb", "r"]), at_or_below(0.0)),
    st.tuples(st.just("lam"), at_or_below(1.0)),
    st.tuples(st.just("seed"), st.integers(max_value=-1)),
    st.tuples(st.just("h_level"), st.one_of(at_or_below(0.0), at_or_above(0.5))),
    st.tuples(st.just("theta"), st.one_of(at_or_below(0.0), at_or_above(THETA_MAX))),
    st.tuples(st.just("eps_list"), st.lists(FINITE, min_size=1, max_size=4).filter(
        lambda v: not _valid_eps_list(v)).map(tuple)),
)


def config_text(cfg: RunConfig, **override) -> str:
    """cfg written as `key = value` lines, floats through repr."""
    lines = []
    for f in fields(RunConfig):
        value = override.get(f.name, getattr(cfg, f.name))
        if isinstance(value, tuple):
            text = ", ".join(repr(v) for v in value)
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(VALID_CONFIGS)
def test_config_text_round_trips(cfg):
    assert parse_config(config_text(cfg)) == cfg


@settings(max_examples=200, deadline=None)
@given(VALID_CONFIGS, OUT_OF_RANGE)
def test_config_out_of_range_value_is_refused(cfg, bad):
    key, value = bad
    with pytest.raises(ConfigError):
        parse_config(config_text(cfg, **{key: value}))


def test_import_leaves_sympy_and_scipy_integrate_unloaded():
    # sympy is loaded by criterion 2 alone; nothing imported at start-up
    # needs scipy.integrate or scipy.interpolate
    code = ("import sys, crocco_prandtl, crocco_prandtl.cli; "
            "print(sorted(m for m in ('sympy', 'scipy.integrate', 'scipy.interpolate')"
            " if m in sys.modules))")
    src = str(Path(crocco_prandtl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.cfg")


def test_runner_registry_covers_every_scenario():
    assert set(scenarios.RUNNERS) == set(SCENARIOS)


def test_shipped_configs_match_acceptance_bundle():
    from pathlib import Path

    from crocco_prandtl.acceptance import artifact_bundle

    cfg_dir = Path(__file__).resolve().parent.parent / "configs"
    for cfg in artifact_bundle():
        parsed = load_config(cfg_dir / f"{cfg.scenario}.cfg")
        assert parsed == cfg, cfg.scenario


def test_fmt_roundtrips_floats():
    for v in (1.0 / 3.0, 1e-17, 0.1, np.pi, 2.0**-52):
        assert float(fmt(v)) == v
    assert fmt(True) == "1"
    assert fmt(7) == "7"
    assert fmt("label") == "label"


# ---------------------------------------------------------------------------
# CLI verbs and exit codes


def write_cfg(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


def test_cli_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_cli_run_writes_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_EXACT)
    out = tmp_path / "artifacts"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "overall = PASSED" in stdout
    report = (out / "report.txt").read_text()
    header = f"# crocco-prandtl {__version__} exact_profile 16x16x24"
    assert report.splitlines()[0].startswith(header)
    assert report.rstrip().endswith("overall = PASSED")
    fields = (out / "fields.csv").read_text().splitlines()
    assert fields[1] == "t,x,y,value"
    assert len(fields) == 2 + 25 * 17 * 17


def test_cli_run_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, TINY_EXACT)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in ("report.txt", "report.csv", "fields.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_validate_passes_clean_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_EXACT)
    assert main(["validate", "--config", cfg]) == 0
    assert "validation = PASSED" in capsys.readouterr().out


def test_cli_validate_fails_unstable_model_grid(tmp_path, capsys):
    # model time step dt = 0.75/nt exceeds 0.9 dx = 1.8/nx for this pairing
    cfg = write_cfg(tmp_path, "scenario = oscillation_lab\nnx = 64\nny = 64\nnt = 16\n")
    assert main(["validate", "--config", cfg]) == 1
    out = capsys.readouterr().out
    # a refused parameter prints its message alone, with no location or value
    assert out.splitlines() == [
        "transport stability needs dt <= 0.9 dx: dt=0.046875, dx=0.03125",
        "validation = FAILED",
    ]
    assert "nan" not in out


def test_cli_validate_fails_unstable_strip_grid(tmp_path, capsys):
    # dt = 0.75/4 is far above the transport bound 0.9 dx / (1 + eps); run exits 2
    cfg = write_cfg(tmp_path, "scenario = exact_profile\nnx = 64\nny = 16\nnt = 4\n")
    assert main(["validate", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "time step violates the transport stability bound: cfl_x=12.012, cfl_y=0.000 "
        "(limit 0.9)",
        "validation = FAILED",
    ]
    assert "nan" not in out
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("name", ["kolmogorov_checks", "oscillation_lab"])
def test_cli_validate_model_config_states_no_envelope(name, capsys):
    # the model scenarios measure no linear envelope, so no C0 is printed
    cfg = Path(__file__).resolve().parent.parent / "configs" / f"{name}.cfg"
    assert main(["validate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines() == ["all hypotheses hold",
                                                    "validation = PASSED"]


def test_cli_config_error_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scenario = warp_drive\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["validate", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_numerical_error_exits_3(tmp_path, capsys, monkeypatch):
    def boom(cfg):
        raise NumericalError("synthetic blow-up")

    monkeypatch.setattr(scenarios, "run_scenario", boom)
    cfg = write_cfg(tmp_path, TINY_EXACT)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_internal_error_exits_4(tmp_path, capsys, monkeypatch):
    real_run = scenarios.run_scenario

    def failed_verdict(cfg):
        result = real_run(cfg)
        result.report.verdict("forced_failure", False)
        return result

    cfg = write_cfg(tmp_path, TINY_EXACT)
    monkeypatch.setattr(scenarios, "run_scenario", failed_verdict)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "f")]) == 1
    capsys.readouterr()

    def crash(cfg):
        raise RuntimeError("synthetic defect")

    monkeypatch.setattr(scenarios, "run_scenario", crash)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "Traceback" in err and "RuntimeError: synthetic defect" in err


def test_cli_acceptance_subset(tmp_path, capsys):
    out = tmp_path / "acc"
    assert main(["acceptance", "--suite", "7,8", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "criterion  7 [PASS]" in stdout
    assert "criterion  8 [PASS]" in stdout
    assert "acceptance = PASSED" in stdout
    assert (out / "acceptance.txt").is_file()
    assert (out / "acceptance.csv").is_file()


def test_cli_acceptance_rejects_bad_suite(capsys):
    assert main(["acceptance", "--suite", "0,99"]) == 2
    assert "configuration error" in capsys.readouterr().err
