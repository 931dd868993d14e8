"""One repetition of a benchmark workload, run in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

The spec names the package root, the workload's inputs (config files or an
acceptance suite), the artifact directory, where to write the result, and
whether to record spans or only time set-up.  Clock readings are
`time.perf_counter` values, which `run.py` compares with its own because
both read the same monotonic clock.

Exit code: 0 when every operation passed, 1 when one failed.
"""

import hashlib
import json
import sys
import time
from pathlib import Path


def _artifacts(out_dir: Path) -> dict:
    """Relative path -> [size, sha256] for every file under out_dir."""
    found = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        found[path.relative_to(out_dir).as_posix()] = [path.stat().st_size,
                                                       digest.hexdigest()]
    return found


def _environment() -> dict:
    import numpy
    import scipy
    import sympy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__, "blas": blas}


def run(spec: dict) -> dict:
    t_start = time.perf_counter()
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from crocco_prandtl import acceptance, config, reporting, scenarios
    t_import = time.perf_counter()

    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.install()

    if "suite" in spec:
        numbers = acceptance.parse_suite(spec["suite"])
        engine = acceptance.AcceptanceEngine()
    else:
        cfgs = [config.load_config(p) for p in spec["configs"]]
    t_setup = time.perf_counter()
    out = {"t_start": t_start, "t_import": t_import, "t_setup": t_setup, "ops": []}
    if spec["probe"]:
        return out

    ops = out["ops"]
    out_dir = Path(spec["out_dir"])
    if "suite" in spec:
        try:
            report = engine.run(numbers)
            ops += [{"name": f"criterion_{r.number}", "ok": bool(r.passed),
                     "seconds": r.seconds} for r in report.results]
        except Exception as exc:  # a crash fails every criterion of the run
            ops += [{"name": f"criterion_{n}", "ok": False, "error": repr(exc)}
                    for n in numbers]
    else:
        for cfg in cfgs:
            try:
                result = scenarios.run_scenario(cfg)
                reporting.write_artifacts(result, out_dir / cfg.scenario)
                ops.append({"name": cfg.scenario, "ok": bool(result.ok)})
            except Exception as exc:  # a crash fails this scenario only
                ops.append({"name": cfg.scenario, "ok": False, "error": repr(exc)})
    out["t_done"] = time.perf_counter()

    out["artifacts"] = _artifacts(out_dir) if out_dir.is_dir() else {}
    out["env"] = _environment()
    if tracer is not None:
        Path(spec["spans_path"]).write_text(json.dumps(tracer.spans))
    return out


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    out = run(spec)
    Path(spec["result_path"]).write_text(json.dumps(out))
    return 0 if all(op["ok"] for op in out["ops"]) else 1


if __name__ == "__main__":
    sys.exit(main())
