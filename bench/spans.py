"""Span recorder for the traced benchmark run, and the per-layer metrics
computed from the recorded spans.

`install` replaces the public functions of each package module with a
wrapper that records one span per call: name, layer, group, start, end,
parent span and counters.  The wrapper is bound wherever the original is
bound, so `solve` imported into `scenarios`, `acceptance` and `mms`, the
`RUNNERS` table and methods on classes are all traced.  Spans stay in
memory and are written out when the run ends.

`layer_metrics` is pure Python and runs in `run.py`, not in the
traced process.  A span's self time is its duration minus the durations of
its direct children; spans nest strictly because the package is single
threaded.  A layer's busy time counts only spans with no ancestor in the
same layer (or group), so nested calls are not counted twice.
"""

import functools
import inspect
import os
import statistics
import sys
import time

STRIP_SCENARIOS = ("exact_profile", "favorable_accel", "viscosity_sweep",
                   "stability_perturb")
SCENARIOS = STRIP_SCENARIOS + ("oscillation_lab",)
CRITERIA = (1, 2, 3, 4, 5, 6, 7, 8, 9, 11)
LAYERS = ("crocco", "solver", "estimates", "mms", "kolmogorov", "grids",
          "scenarios", "reporting", "acceptance")
KOLMOGOROV_GROUPS = {
    "solve_model": "model",
    "mean_value": "mean_value",
    "weak_poincare_ratio": "poincare",
    "density_ratio": "density",
    "oscillation_table": "oscillation",
    "log_field": "log",
    "gamma0": "analytic",
    "normalization": "analytic",
    "dilation_defect": "analytic",
    "l0_residual": "analytic",
    "verify_lemma": "analytic",
    "kernel_reproduction": "analytic",
}
ESTIMATES = ("comparison_constant", "bv_seminorm", "weighted_grad_norms",
             "weighted_dyy_measure", "weak_residual", "trace_residual",
             "l1_stability", "physical_stability", "uniformity_spread")


def _per_layer_names():
    names = [
        ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"), ("trace.self_sum_s", "s"),
        ("trace.unattributed_s", "s"), ("trace.spans", "count"),
        ("setup.import_s", "s"), ("setup.config_s", "s"),
    ]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names += [
        ("solver.calls", "count"), ("solver.busy_s", "s"),
        ("solver.step_ms.64", "ms"), ("solver.step_ms.128", "ms"),
        ("solver.newton_iters", "count"), ("solver.unique_ratio", "ratio"),
        ("crocco.calls", "count"), ("crocco.busy_s", "s"),
        ("crocco.problem_mb", "MB"),
        ("estimates.busy_s", "s"), ("estimates.weak_residual_s", "s"),
        ("kolmogorov.model.calls", "count"), ("kolmogorov.model.busy_s", "s"),
        ("kolmogorov.model.step_ms.48x192", "ms"),
        ("kolmogorov.mean_value.busy_s", "s"),
        ("kolmogorov.mean_value.s_per_point", "s/point"),
        ("kolmogorov.poincare.self_s", "s"),
        ("kolmogorov.density.busy_s", "s"),
        ("kolmogorov.oscillation.busy_s", "s"),
        ("kolmogorov.analytic.busy_s", "s"),
        ("grids.sample.calls", "count"), ("grids.sample.points", "count"),
        ("grids.sample.busy_s", "s"), ("grids.sample.points_per_s", "points/s"),
        ("reporting.fields.busy_s", "s"), ("reporting.fields.mb", "MB"),
        ("reporting.fields.mb_per_s", "MB/s"), ("reporting.other.busy_s", "s"),
        ("reporting.artifact_mb", "MB"),
    ]
    names += [(f"reporting.{s}.write_s", "s") for s in SCENARIOS]
    names += [(f"scenarios.{s}.run_s", "s") for s in SCENARIOS]
    names += [(f"acceptance.criterion_{n}_s", "s") for n in CRITERIA]
    return names


# Every per-layer metric, in report order, with its unit.  A metric whose
# layer does not run on a workload reads 0.
PER_LAYER = _per_layer_names()


class Tracer:
    """In-memory span store; `wrap` makes the recording wrapper."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, fn, layer, group, count=None):
        spans, stack = self.spans, self._open
        name = f"{layer}.{fn.__name__}"
        group = f"{layer}.{group}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "layer": layer,
                    "group": group, "parent": stack[-1] if stack else None,
                    "counters": {}}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if count is not None:
                span["counters"] = count(args, kwargs, result)
            return result

        return traced


def _rebind(original, wrapper):
    """Bind wrapper wherever a loaded package module binds original."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("crocco_prandtl"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments
    return bind


def _owned_bytes(obj) -> int:
    """Bytes of the distinct buffers behind the arrays held by obj."""
    owners = {}
    for value in vars(obj).values():
        if hasattr(value, "nbytes") and hasattr(value, "base"):
            while value.base is not None and hasattr(value.base, "nbytes"):
                value = value.base
            owners[id(value)] = value.nbytes
    return sum(owners.values())


def install() -> Tracer:
    """Wrap the public functions of every traced package module."""
    from crocco_prandtl import (acceptance, crocco, estimates, grids,
                                kolmogorov, mms, reporting, scenarios, solver)

    tracer = Tracer()

    def wrap_function(module, fn_name, layer, group, count=None):
        original = getattr(module, fn_name)
        _rebind(original, tracer.wrap(original, layer, group, count))

    def wrap_method(cls, fn_name, layer, group, count=None):
        setattr(cls, fn_name, tracer.wrap(getattr(cls, fn_name), layer, group, count))

    forcings = {}
    solve_args = _bound(solver.solve)

    def count_solve(args, kwargs, hist):
        a = solve_args(args, kwargs)
        grid, forcing = a["grid"], a["forcing"]
        if forcing is not None:
            forcings.setdefault(id(forcing), (len(forcings), forcing))
            forcing = forcings[id(forcing)][0]
        key = (a["label"] or a["problem"].label, grid.nx, grid.ny, grid.nt,
               grid.L, grid.T, a["eps"], forcing)
        return {"grid": [grid.nx, grid.ny, grid.nt], "key": repr(key),
                "newton": int(sum(hist.diagnostics.get("newton_iterations", ())))}

    wrap_function(solver, "solve", "solver", "solve", count_solve)
    wrap_function(solver, "viscosity_sweep", "solver", "sweep")
    wrap_function(solver, "grid_refinement_proxy", "solver", "sweep")

    wrap_function(crocco, "make_problem", "crocco", "problem",
                  lambda a, k, prob: {"bytes": _owned_bytes(prob)})
    wrap_function(crocco, "validate", "crocco", "validate")

    for fn_name in ESTIMATES:
        wrap_function(estimates, fn_name, "estimates",
                      "weak_residual" if fn_name == "weak_residual" else "other")

    for fn_name in ("build_case", "refinement_study", "one_step_error"):
        wrap_function(mms, fn_name, "mms", "study")

    model_args = _bound(kolmogorov.solve_model)
    counters = {
        "solve_model": lambda a, k, hist: dict(
            (key, model_args(a, k)[key]) for key in ("nx", "ny", "nt")),
        "mean_value": lambda a, k, rep: {"points": int(len(rep.values))},
    }
    for fn_name, group in KOLMOGOROV_GROUPS.items():
        wrap_function(kolmogorov, fn_name, "kolmogorov", group, counters.get(fn_name))

    def count_points(a, k, values):
        return {"points": int(values.size)}
    wrap_method(grids.FieldHistory, "sample", "grids", "sample", count_points)
    wrap_method(grids.FieldHistory, "sample_dy", "grids", "sample", count_points)

    wrap_function(scenarios, "run_scenario", "scenarios", "run",
                  lambda a, k, res: {"scenario": a[0].scenario})

    wrap_function(reporting, "write_artifacts", "reporting", "write",
                  lambda a, k, paths: {"scenario": a[0].scenario})
    wrap_function(reporting, "write_fields_csv", "reporting", "fields",
                  lambda a, k, path: {"bytes": os.path.getsize(path)})
    for fn_name in ("write_report_text", "write_report_csv", "write_table_csv"):
        wrap_function(reporting, fn_name, "reporting", "other")

    engine = acceptance.AcceptanceEngine
    wrap_method(engine, "run", "acceptance", "run")
    for n in range(1, 13):
        wrap_method(engine, f"criterion_{n}", "acceptance", "criterion")
    return tracer


# ---------------------------------------------------------------------------
# reduction, run in run.py


def _duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> list:
    """Self time per span: duration minus its direct children's durations."""
    own = [_duration(s) for s in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= _duration(span)
    return own


def _outermost(spans, key, value):
    """Spans whose key matches value and which no matching span encloses."""
    out = []
    for span in spans:
        if span[key] != value:
            continue
        parent = span["parent"]
        while parent is not None and spans[parent][key] != value:
            parent = spans[parent]["parent"]
        if parent is None:
            out.append(span)
    return out


def _busy(spans, key, value) -> float:
    return sum(_duration(s) for s in _outermost(spans, key, value))


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans, traced_wall_s, untraced, artifact_bytes) -> dict:
    """Every PER_LAYER metric from one traced repetition.

    untraced holds wall_s, import_s, config_s and criterion_s of the
    untraced repetition made in the same invocation.
    """
    own = self_times(spans)
    by_name = lambda name: [s for s in spans if s["name"] == name]

    m = {
        "trace.wall_s": traced_wall_s,
        "trace.untraced_wall_s": untraced["wall_s"],
        "trace.overhead_s": traced_wall_s - untraced["wall_s"],
        "trace.self_sum_s": sum(own),
        "trace.unattributed_s": traced_wall_s - sum(own),
        "trace.spans": len(spans),
        "setup.import_s": untraced["import_s"],
        "setup.config_s": untraced["config_s"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own) if s["layer"] == layer)

    solves = by_name("solver.solve")
    m["solver.calls"] = len(solves)
    m["solver.busy_s"] = _busy(spans, "layer", "solver")
    for n in (64, 128):
        m[f"solver.step_ms.{n}"] = 1e3 * _median(
            _duration(s) / n for s in solves if s["counters"]["grid"] == [n, n, n])
    m["solver.newton_iters"] = sum(s["counters"]["newton"] for s in solves)
    m["solver.unique_ratio"] = _ratio(len({s["counters"]["key"] for s in solves}), len(solves))

    problems = by_name("crocco.make_problem")
    m["crocco.calls"] = len(problems)
    m["crocco.busy_s"] = _busy(spans, "layer", "crocco")
    m["crocco.problem_mb"] = sum(s["counters"]["bytes"] for s in problems) / 1e6

    m["estimates.busy_s"] = _busy(spans, "layer", "estimates")
    m["estimates.weak_residual_s"] = _busy(spans, "group", "estimates.weak_residual")

    models = by_name("kolmogorov.solve_model")
    m["kolmogorov.model.calls"] = len(models)
    m["kolmogorov.model.busy_s"] = _busy(spans, "group", "kolmogorov.model")
    m["kolmogorov.model.step_ms.48x192"] = 1e3 * _median(
        _duration(s) / s["counters"]["nt"] for s in models
        if (s["counters"]["nx"], s["counters"]["ny"]) == (48, 192))
    mean_busy = _busy(spans, "group", "kolmogorov.mean_value")
    m["kolmogorov.mean_value.busy_s"] = mean_busy
    m["kolmogorov.mean_value.s_per_point"] = _ratio(
        mean_busy, sum(s["counters"]["points"] for s in by_name("kolmogorov.mean_value")))
    m["kolmogorov.poincare.self_s"] = sum(
        t for s, t in zip(spans, own) if s["group"] == "kolmogorov.poincare")
    for group in ("density", "oscillation", "analytic"):
        m[f"kolmogorov.{group}.busy_s"] = _busy(spans, "group", f"kolmogorov.{group}")

    samples = [s for s in spans if s["layer"] == "grids"]
    points = sum(s["counters"]["points"] for s in samples)
    sample_busy = _busy(spans, "layer", "grids")
    m["grids.sample.calls"] = len(samples)
    m["grids.sample.points"] = points
    m["grids.sample.busy_s"] = sample_busy
    m["grids.sample.points_per_s"] = _ratio(points, sample_busy)

    fields = by_name("reporting.write_fields_csv")
    fields_busy = _busy(spans, "group", "reporting.fields")
    fields_mb = sum(s["counters"]["bytes"] for s in fields) / 1e6
    m["reporting.fields.busy_s"] = fields_busy
    m["reporting.fields.mb"] = fields_mb
    m["reporting.fields.mb_per_s"] = _ratio(fields_mb, fields_busy)
    m["reporting.other.busy_s"] = _busy(spans, "group", "reporting.other")
    m["reporting.artifact_mb"] = artifact_bytes / 1e6

    writes = by_name("reporting.write_artifacts")
    runs = by_name("scenarios.run_scenario")
    for scen in SCENARIOS:
        m[f"reporting.{scen}.write_s"] = sum(
            _duration(s) for s in writes if s["counters"]["scenario"] == scen)
        m[f"scenarios.{scen}.run_s"] = sum(
            _duration(s) for s in runs if s["counters"]["scenario"] == scen)
    for n in CRITERIA:
        m[f"acceptance.criterion_{n}_s"] = untraced["criterion_s"].get(str(n), 0.0)
    return {name: {"value": float(m[name]), "unit": unit} for name, unit in PER_LAYER}
