import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from importlib.metadata import version
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crocco_prandtl
from crocco_prandtl import scenarios
from crocco_prandtl._version import __version__
from crocco_prandtl.cli import main
from crocco_prandtl.config import (HISTORY_BYTES_BUDGET, SCENARIOS, RunConfig, load_config,
                                   parse_config)
from crocco_prandtl.errors import ConfigError, NumericalError
from crocco_prandtl.grids import Check
from crocco_prandtl.kolmogorov import MODEL_T0, SLAB_BETA, THETA_MAX, model_axes
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
    ("scenario = exact_profile\nL = inf\n", "line 2: cannot parse L"),
    ("scenario = viscosity_sweep\neps_list = 0.1, nan\n", "line 2: cannot parse eps_list"),
    ("scenario = oscillation_lab\nlam = inf\n", "line 2: cannot parse lam"),
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
    "eps_list = 0.1, 0.01",
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


def held_bytes(c):
    """Bytes of the history- and level-sized arrays a run of c holds at its peak."""
    count, levels = {"exact_profile": (5, 144), "favorable_accel": (5, 144),
                     "viscosity_sweep": (len(c.eps_list) + 11, 64),
                     "stability_perturb": (7, 16),
                     "oscillation_lab": (3, 64)}.get(c.scenario, (0, 0))
    return 8 * (c.nx + 1) * (c.ny + 1) * (count * (c.nt + 1) + levels)


def interior_fits(c):
    """Whether the 2-cell interior margin of the estimate battery leaves at
    least 1 x 2 cells of the grid of c, for the scenarios that publish it."""
    return c.scenario not in ("exact_profile", "favorable_accel") or (
        c.nx - 4 >= 1 and c.ny - 4 >= 2)


def model_grid_stable(c):
    """Whether model_axes admits the model grid of c, for the scenario that
    marches one."""
    if c.scenario != "oscillation_lab":
        return True
    try:
        model_axes(c.nx, c.nt, MODEL_T0)
    except ConfigError:
        return False
    return True


# the largest r whose cutoff slab Box(SLAB_BETA r) fits the unit box, and
# the next float up
R_MAX = 1 / SLAB_BETA
R_OVER = math.nextafter(R_MAX, math.inf)
assert SLAB_BETA * R_MAX <= 1 < SLAB_BETA * R_OVER


def largest_nt(scenario, nx, ny):
    """The largest nt whose run of scenario on nx x ny, with the default
    eps_list, fits the budget."""
    def held(nt):
        return held_bytes(SimpleNamespace(scenario=scenario, nx=nx, ny=ny, nt=nt,
                                          eps_list=RunConfig.eps_list))
    return (HISTORY_BYTES_BUDGET - held(0)) // (held(1) - held(0))


# plain values first: a RunConfig is only made from values that fit
VALID_CONFIGS = st.builds(
    SimpleNamespace,
    scenario=st.sampled_from(SCENARIOS),
    nx=st.integers(4, 10**6),
    ny=st.integers(4, 10**6),
    nt=st.integers(4, 10**6),
    eps=POSITIVE,
    L=POSITIVE,
    eps_list=st.lists(POSITIVE, min_size=3, max_size=6, unique=True).map(
        lambda v: tuple(sorted(v, reverse=True))),
    perturb=POSITIVE,
    lam=st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
    seed=st.integers(0, 2**63),
    h_level=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    theta=st.floats(0.0, THETA_MAX, exclude_min=True, exclude_max=True),
    r=st.one_of(st.just(R_MAX), st.floats(0.0, R_MAX, exclude_min=True)),
).filter(lambda c: held_bytes(c) <= HISTORY_BYTES_BUDGET and interior_fits(c)
         and model_grid_stable(c)).map(lambda c: RunConfig(**vars(c)))


def _valid_eps_list(values) -> bool:
    return (len(values) >= 3 and all(v > 0 for v in values)
            and all(b < a for a, b in zip(values, values[1:])))


# one key set outside its admissible range
OUT_OF_RANGE = st.one_of(
    st.tuples(st.sampled_from(["nx", "ny", "nt"]), st.integers(max_value=3)),
    st.tuples(st.sampled_from(["eps", "L", "perturb", "r"]), at_or_below(0.0)),
    st.tuples(st.just("lam"), at_or_below(1.0)),
    st.tuples(st.just("seed"), st.integers(max_value=-1)),
    st.tuples(st.just("h_level"), st.one_of(at_or_below(0.0), at_or_above(0.5))),
    st.tuples(st.just("theta"), st.one_of(at_or_below(0.0), at_or_above(THETA_MAX))),
    st.tuples(st.just("r"), at_or_above(R_OVER)),
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
    # parsed or built in code, the value is refused with the same message
    key, value = bad
    with pytest.raises(ConfigError) as parsed:
        parse_config(config_text(cfg, **{key: value}))
    with pytest.raises(ConfigError) as built:
        replace(cfg, **{key: value})
    assert str(built.value) == str(parsed.value)


def _fresh_python(code: str, check: bool = True) -> subprocess.CompletedProcess:
    """code run by a fresh interpreter that imports the package from these sources."""
    src = str(Path(crocco_prandtl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=check)


def test_import_leaves_sympy_and_scipy_integrate_unloaded():
    # the package never imports sympy; nothing imported at start-up
    # needs scipy.integrate or scipy.interpolate, and the LAPACK routines
    # come from their extension without scipy.linalg's package import and
    # the array-API shim it loads (numpy.f2py, numpy.testing, numpy.ma)
    names = ("sympy", "scipy.integrate", "scipy.interpolate", "scipy.linalg",
             "scipy._lib.array_api_compat", "numpy.f2py", "numpy.testing", "numpy.ma")
    code = ("import sys, crocco_prandtl, crocco_prandtl.cli; "
            f"print(sorted(m for m in {names!r} if m in sys.modules))")
    assert _fresh_python(code).stdout.strip() == "[]"


@pytest.mark.parametrize("first", ["crocco_prandtl", "scipy.linalg.lapack"])
def test_lapack_routines_are_scipy_linalg_lapacks_in_either_import_order(first):
    # a scipy that moves or wraps the routines fails here, not in a run
    second = "scipy.linalg.lapack" if first == "crocco_prandtl" else "crocco_prandtl"
    code = (f"import sys, {first}, {second}; "
            "from crocco_prandtl import _lapack; from scipy.linalg import lapack; "
            "print([getattr(lapack, n) is getattr(_lapack, n) "
            "for n in ('dgtsv', 'dgttrf', 'dgttrs')], "
            "sys.modules['scipy.linalg._flapack'] is _lapack._module)")
    assert _fresh_python(code).stdout.strip() == "[True, True, True] True"


def test_missing_lapack_extension_names_the_scipy_version_and_folder():
    code = ("import importlib.machinery; importlib.machinery.EXTENSION_SUFFIXES.clear(); "
            "import crocco_prandtl")
    out = _fresh_python(code, check=False)
    assert out.returncode != 0
    last = out.stderr.strip().splitlines()[-1]
    assert last.startswith(f"ImportError: scipy {version('scipy')} has no _flapack "
                           "extension in ")
    assert last.endswith(os.path.join("scipy", "linalg"))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.cfg")


def test_runner_registry_covers_every_scenario():
    # the scenario names are listed once, as the runners' keys
    assert SCENARIOS == tuple(scenarios.RUNNERS)


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


def _refused_alike(tmp_path, capsys, text, message):
    """Both verbs refuse the config text with exit 2 and the one stderr line
    'configuration error: message', and neither prints a report."""
    cfg = write_cfg(tmp_path, text)
    for argv in (["validate", "--config", cfg],
                 ["run", "--config", cfg, "--out", str(tmp_path / "o")]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == f"configuration error: {message}\n", argv
    assert not (tmp_path / "o").exists()


def test_cli_refuses_a_two_value_sweep(tmp_path, capsys):
    # one gap step needs three values; with two, the sweep's check read NaN
    # and the run failed after its marches
    _refused_alike(tmp_path, capsys, _strip("viscosity_sweep", 16, 16, 24) + "eps_list = 0.1, 0.01\n",
                   "eps_list needs at least three values, so its gaps have a step")


@pytest.mark.parametrize("verb", ["run", "acceptance"])
def test_cli_refuses_an_out_path_under_a_file(tmp_path, capsys, verb):
    # refused before the run or the suite, not by the writer after it
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    cfg = write_cfg(tmp_path, "scenario = kolmogorov_checks\n")
    for out in (afile, afile / "sub"):
        argv = (["run", "--config", cfg] if verb == "run" else ["acceptance", "--suite", "7"])
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: --out {out}: {afile} is not a directory\n"
    assert afile.read_text() == "kept\n"


def test_cli_validate_fails_unstable_model_grid(tmp_path, capsys):
    # model time step dt = 0.75/nt exceeds 0.9 dx = 1.8/nx for this pairing,
    # refused when the config is made
    _refused_alike(tmp_path, capsys, _lab(64, 64, 16),
                   "transport stability needs dt <= 0.9 dx: dt=0.046875, dx=0.03125")


def test_cli_validate_fails_unstable_strip_grid(tmp_path, capsys):
    # dt = 0.75/4 is far above the transport bound 0.9 dx / (1 + eps), refused
    # by the solver's guard on the built problem
    _refused_alike(tmp_path, capsys, _strip("exact_profile", 64, 16, 4),
                   "time step violates the transport stability bound: cfl_x=12.012, "
                   "cfl_y=0.000 (limit 0.9)")


@pytest.mark.parametrize("name", ["kolmogorov_checks", "oscillation_lab"])
def test_cli_validate_model_config_states_no_envelope(name, capsys):
    # the model scenarios measure no linear envelope, so no C0 is printed;
    # oscillation_lab has no hypothesis to check and says so
    cfg = Path(__file__).resolve().parent.parent / "configs" / f"{name}.cfg"
    assert main(["validate", "--config", str(cfg)]) == 0
    first = "all hypotheses hold" if name == "kolmogorov_checks" else "no hypotheses to check"
    assert capsys.readouterr().out.splitlines() == [first, "validation = PASSED"]


def test_cli_config_error_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scenario = warp_drive\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["validate", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_non_finite_value_exits_2(tmp_path, capsys):
    # a non-finite value is refused at parse time, before anything is allocated
    for text in ("scenario = exact_profile\nnx = 8\nny = 8\nnt = 8\nL = inf\n",
                 "scenario = viscosity_sweep\nnx = 8\nny = 8\nnt = 16\neps_list = 0.1, nan\n",
                 "scenario = oscillation_lab\nnx = 8\nny = 16\nnt = 12\nlam = inf\n"):
        cfg = write_cfg(tmp_path, text)
        assert main(["validate", "--config", cfg]) == 2, text
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2, text
        assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _lab(nx, ny, nt):
    return f"scenario = oscillation_lab\nnx = {nx}\nny = {ny}\nnt = {nt}\n"


def test_parse_config_refuses_a_model_grid_over_the_memory_budget(tmp_path, capsys):
    # parse_config alone: a refused grid is never allocated.  This one's
    # history would take about 7.7 TB
    with pytest.raises(ConfigError, match="over the budget"):
        parse_config(_lab(2000, 8000, 60000))
    # the largest nt that fits at nx = 48, ny = 192, and the next
    nt = largest_nt("oscillation_lab", 48, 192)
    assert parse_config(_lab(48, 192, nt)).nt == nt
    with pytest.raises(ConfigError, match="over the budget"):
        parse_config(_lab(48, 192, nt + 1))
    cfg = write_cfg(tmp_path, _lab(2000, 8000, 60000))
    assert main(["validate", "--config", cfg]) == 2
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "over the budget" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_the_model_lab_budget_counts_three_histories(tmp_path, capsys):
    # the kept run, a pinched rerun and its log transform, plus 64 levels,
    # fit the budget at 48 x 192 up to nt = 4708
    nt, level = 4708, 8 * 49 * 193
    assert level * (3 * (nt + 1) + 64) <= HISTORY_BYTES_BUDGET < level * (3 * (nt + 2) + 64)
    assert parse_config(_lab(48, 192, nt)).nt == nt
    assert main(["validate", "--config", write_cfg(tmp_path, _lab(48, 192, nt))]) == 0
    refused = write_cfg(tmp_path, _lab(48, 192, nt + 1))
    assert main(["validate", "--config", refused]) == 2
    assert main(["run", "--config", refused, "--out", str(tmp_path / "o")]) == 2
    assert "over the budget" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _strip(scenario, nx, ny, nt):
    return f"scenario = {scenario}\nnx = {nx}\nny = {ny}\nnt = {nt}\n"


@pytest.mark.parametrize("scenario", list(scenarios.STRIP_PROBLEMS))
def test_parse_config_refuses_a_strip_grid_over_the_memory_budget(tmp_path, capsys, scenario):
    # parse_config alone: a refused grid is never allocated.  One history of
    # this grid would take about 7.7 TB
    with pytest.raises(ConfigError, match="over the budget"):
        parse_config(_strip(scenario, 2000, 8000, 60000))
    # the largest nt that fits at nx = ny = 64, and the next
    nt = largest_nt(scenario, 64, 64)
    assert parse_config(_strip(scenario, 64, 64, nt)).nt == nt
    with pytest.raises(ConfigError, match="over the budget"):
        parse_config(_strip(scenario, 64, 64, nt + 1))
    cfg = write_cfg(tmp_path, _strip(scenario, 2000, 8000, 60000))
    assert main(["validate", "--config", cfg]) == 2
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "over the budget" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_config_built_in_code_is_refused_before_anything_is_allocated():
    # a RunConfig made in code passes the guard a parsed one does; one
    # history of this grid would take about 7.7 TB
    tracemalloc.start()
    try:
        for scenario in SCENARIOS:
            if scenario != "kolmogorov_checks":
                with pytest.raises(ConfigError, match="over the budget"):
                    RunConfig(scenario, 2000, 8000, 60000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_parse_config_budgets_the_level_sized_arrays():
    # at nt = 8 the weak quadrature's slab arrays outweigh the histories: the
    # largest exact_profile grid admitted at nx = 8 is just under the budget
    # and the next is refused, while its five histories alone would admit
    # three times the ny
    row = 8 * 9 * (5 * 9 + 144)  # bytes per y node
    ny = HISTORY_BYTES_BUDGET // row - 1
    cfg = parse_config(_strip("exact_profile", 8, ny, 8))
    assert 0 <= HISTORY_BYTES_BUDGET - held_bytes(cfg) < row
    with pytest.raises(ConfigError, match="over the budget"):
        parse_config(_strip("exact_profile", 8, ny + 1, 8))
    assert 5 * 8 * 9 * 9 * (3 * ny + 1) <= HISTORY_BYTES_BUDGET


def test_shipped_and_benchmark_configs_fit_the_memory_budget(monkeypatch):
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", root / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    texts = [p.read_text() for p in sorted((root / "configs").glob("*.cfg"))]
    texts += list(bench.STRIP_CONFIGS.values()) + [bench.OSCILLATION_CONFIG.format(seed=7)]
    assert len(texts) == 11
    for text in texts:
        assert held_bytes(parse_config(text)) <= HISTORY_BYTES_BUDGET


# configs at and just inside each refusal boundary: the grid minimum, the
# estimates' interior margin, the memory budget, the strip and model CFL
# guards, and the cutoff's theta range and slab radius
BOUNDARY_CONFIGS = [
    _strip("exact_profile", 5, 6, 8), _strip("exact_profile", 4, 6, 8),
    _strip("exact_profile", 5, 5, 8), _strip("exact_profile", 64, 8, 53),
    _strip("exact_profile", 64, 8, 54),
    _strip("exact_profile", 64, 64, largest_nt("exact_profile", 64, 64) + 1),
    _strip("favorable_accel", 5, 6, 8), _strip("favorable_accel", 4, 8, 8),
    _strip("favorable_accel", 8, 5, 8),
    _strip("viscosity_sweep", 4, 4, 8), _strip("viscosity_sweep", 3, 4, 8),
    _strip("stability_perturb", 4, 4, 8), _strip("stability_perturb", 4, 3, 8),
    "scenario = kolmogorov_checks\n", "scenario = kolmogorov_checks\nr = 1.2\n",
    f"scenario = kolmogorov_checks\nr = {R_MAX!r}\n",
    f"scenario = kolmogorov_checks\nr = {R_OVER!r}\n",
    f"scenario = kolmogorov_checks\ntheta = {THETA_MAX!r}\n",
    _lab(12, 8, 6), _lab(12, 8, 5), _lab(4, 4, 3),
]


def test_validate_agrees_with_run(tmp_path, capsys, monkeypatch):
    # a config validate passes is one run accepts; the two verbs refuse
    # (exit 2) the same configs with the same stderr line, before any march,
    # and validate's exit 1 is left to a failed hypothesis
    from crocco_prandtl import kolmogorov, solver

    marches = []
    for module, name in ((solver, "_advance"), (kolmogorov, "_factor_columns")):
        step = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, step=step: marches.append(1) or step(*a))
    refused = []
    for i, text in enumerate(BOUNDARY_CONFIGS):
        cfg = write_cfg(tmp_path, text)
        marches.clear()
        validated = main(["validate", "--config", cfg])
        validate_err = capsys.readouterr().err
        ran = main(["run", "--config", cfg, "--out", str(tmp_path / f"o{i}")])
        run_err = capsys.readouterr().err
        assert 4 not in (validated, ran), text
        assert (validated == 2) == (ran == 2), text
        if validated == 0:
            assert ran in (0, 1), text
        if ran == 2:
            assert validate_err == run_err, text
            assert validate_err.startswith("configuration error:"), text
            assert validate_err.count("\n") == 1, text
            assert not marches, text
            refused.append(text)
    assert {_strip("exact_profile", 64, 8, 53), _lab(12, 8, 5), _lab(4, 4, 3),
            "scenario = kolmogorov_checks\nr = 1.2\n",
            f"scenario = kolmogorov_checks\nr = {R_OVER!r}\n"} <= set(refused)


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
        result.verdicts["forced_failure"] = Check(1.0, 0.0, "<")
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
