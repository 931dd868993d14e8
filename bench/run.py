"""Benchmark harness for the crocco-prandtl laboratory.

Usage, from the root of a checkout:

    python3 bench/run.py --workload strip_runs --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Each repetition of a workload runs in a fresh interpreter (`child.py`)
against the package sources under `src/`, so set-up (interpreter start,
import, config load) is paid and measured every time, as a user of
`crocco-prandtl run` pays it.  Workloads run one at a time; library thread
pools are capped at the core count.

With --trace 0 it makes SETUP_PROBES set-up-only repetitions,
then repeats the workload until the next repetition would end after
--seconds (at least once), and reports the end-to-end metrics.  With
--trace 1 it makes one untraced and one traced repetition and reports the
per-layer metrics of `spans.PER_LAYER`.

Every repetition is checked: exit code 0, every scenario verdict PASSED or
every criterion PASS, and every artifact byte-identical (sha256) to the
same workload's first repetition in this invocation.  A miss counts as a
failed operation and makes the exit code 1.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  The
full record, with the environment, goes to .bench_out/results/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # the whole invocation must end within 180 s
POLL_S = 0.02

# The shipped desk-scale configs, written out fresh for every invocation so
# only generated configs reach the program.
STRIP_CONFIGS = {
    "exact_profile": "scenario = exact_profile\nnx = 64\nny = 64\nnt = 64\neps = 1e-3\n",
    "favorable_accel": "scenario = favorable_accel\nnx = 64\nny = 64\nnt = 64\neps = 1e-3\n",
    "viscosity_sweep": ("scenario = viscosity_sweep\nnx = 64\nny = 64\nnt = 64\n"
                        "eps_list = 0.1, 0.03, 0.01, 0.003, 0.001\n"),
    "stability_perturb": ("scenario = stability_perturb\nnx = 64\nny = 64\nnt = 64\n"
                          "eps = 1e-3\nperturb = 1e-3\n"),
}
OSCILLATION_CONFIG = ("scenario = oscillation_lab\nnx = 48\nny = 192\nnt = 300\n"
                      "lam = 2.0\nseed = {seed}\nh_level = 0.01\ntheta = 0.01\n")
GATE_SUITE = ",".join(str(n) for n in spans.CRITERIA)

# strip_runs: the everyday `run` path over the four strip scenarios; solver,
#   estimates and the fields writer, with the runners' repeated solves.
# model_lab: the kinetic-model scenario; thousands of small mean-value
#   sampling calls and the largest fields.csv.  The seed drives its
#   random coefficient.
# gate_core: acceptance criteria 1-9 and 11 in one engine; strip solves up
#   to 128^3 reused through the engine cache, few large sampling calls, no
#   artifacts.  Criterion 12 reruns the other workloads; criterion 10 uses
#   model_lab's layers on a 4x grid.
# smoke: a 16^3 exact_profile run for the harness self-test only.
WORKLOADS = ("strip_runs", "model_lab", "gate_core")


def workload_inputs(name: str, seed: int) -> dict:
    if name == "strip_runs":
        return {"configs": dict(STRIP_CONFIGS)}
    if name == "model_lab":
        return {"configs": {"oscillation_lab": OSCILLATION_CONFIG.format(seed=seed)}}
    if name == "gate_core":
        return {"suite": GATE_SUITE}
    if name == "smoke":
        return {"configs": {"exact_profile": STRIP_CONFIGS["exact_profile"].replace("64", "16")}}
    raise ValueError(f"unknown workload '{name}'")


def environment(seed: int) -> dict:
    env = {"nproc": len(os.sched_getaffinity(0)),
           "python": sys.version.split()[0], "seed": seed}
    for lib in ("numpy", "scipy", "sympy"):
        try:
            env[lib] = metadata.version(lib)
        except metadata.PackageNotFoundError:
            env[lib] = "missing"
    env["blas_threads"] = env["nproc"]
    try:
        env["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        env["commit"] = "unknown"
    return env


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


class Runner:
    """Spawns repetitions of one workload and keeps their records."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.inputs = workload_inputs(workload, seed)
        self.env = child_env(len(os.sched_getaffinity(0)))
        self.reference = None  # artifacts of the first repetition
        self.count = 0
        work.mkdir(parents=True)
        if "configs" in self.inputs:
            cfg_dir = work / "configs"
            cfg_dir.mkdir()
            self.config_paths = []
            for name, text in self.inputs["configs"].items():
                path = cfg_dir / f"{name}.cfg"
                path.write_text(text)
                self.config_paths.append(str(path))

    def spawn(self, probe: bool = False, trace: bool = False) -> dict:
        """Run one repetition; return its record with the checks applied."""
        self.count += 1
        tag = f"rep{self.count}"
        spec = {"root": str(ROOT), "probe": probe, "trace": trace,
                "out_dir": str(self.work / tag / "artifacts"),
                "result_path": str(self.work / tag / "result.json"),
                "spans_path": str(self.work / tag / "spans.json")}
        if "suite" in self.inputs:
            spec["suite"] = self.inputs["suite"]
        else:
            spec["configs"] = self.config_paths
        (self.work / tag).mkdir()
        spec_path = self.work / tag / "spec.json"
        spec_path.write_text(json.dumps(spec))

        with open(self.work / tag / "stderr.txt", "wb") as err:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                    stdout=subprocess.DEVNULL, stderr=err, env=self.env)
            code, rusage = self._wait(proc)
        t_exit = time.perf_counter()

        rec = {"probe": probe, "trace": trace, "exit_code": code,
               "peak_rss_mb": rusage.ru_maxrss * 1024 / 1e6 if rusage else 0.0,
               "cpu_s": rusage.ru_utime + rusage.ru_stime if rusage else 0.0,
               "lifetime_s": t_exit - t_spawn}
        try:
            res = json.loads(Path(spec["result_path"]).read_text())
        except (OSError, ValueError):
            res = None
        if res is None:
            rec["error"] = (self.work / tag / "stderr.txt").read_text(errors="replace")[-2000:]
            rec["ops"] = [{"name": "setup" if probe else self.workload, "ok": False}]
            return rec
        rec["setup_s"] = res["t_setup"] - t_spawn
        rec["import_s"] = res["t_import"] - res["t_start"]
        rec["config_s"] = res["t_setup"] - res["t_import"]
        if probe:
            rec["ops"] = [] if code == 0 else [{"name": "setup", "ok": False}]
            return rec
        rec["wall_s"] = res["t_done"] - res["t_setup"]
        rec["env"] = res["env"]
        rec["ops"] = res["ops"]
        rec["criterion_s"] = {op["name"].split("_")[1]: op["seconds"]
                              for op in res["ops"] if "seconds" in op}
        arts = res["artifacts"]
        rec["artifact_mb"] = sum(size for size, _ in arts.values()) / 1e6
        rec["artifact_files"] = len(arts)
        if self.reference is None:
            self.reference = arts
        else:
            self._check_identical(rec, arts)
        if code != 0:
            for op in rec["ops"]:
                op["ok"] = False
        if trace:
            rec["spans"] = json.loads(Path(spec["spans_path"]).read_text())
        shutil.rmtree(spec["out_dir"], ignore_errors=True)
        return rec

    def _wait(self, proc):
        """Reap proc with os.wait4 for its rusage; kill it at the deadline."""
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid == proc.pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, rusage
            if time.perf_counter() > self.deadline:
                proc.kill()
                pid, status, _ = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, None
            time.sleep(POLL_S)

    def _check_identical(self, rec, arts):
        """Fail each operation whose artifacts differ from the first repetition."""
        changed = {rel.split("/")[0] for rel in set(arts) ^ set(self.reference)}
        changed |= {rel.split("/")[0] for rel in arts
                    if rel in self.reference and arts[rel][1] != self.reference[rel][1]}
        for op in rec["ops"]:
            if op["name"] in changed:
                op["ok"] = False
                op["error"] = "artifacts differ from the first repetition"


def timed_reps(runner: Runner, seconds: float, t0: float) -> list:
    """Set-up probes first, while no workload I/O is in flight, then
    repetitions until the next one would end after `seconds`."""
    reps = [runner.spawn(probe=True) for _ in range(SETUP_PROBES)]
    reps.append(runner.spawn())
    while True:
        elapsed = time.perf_counter() - t0
        next_s = statistics.median(r["lifetime_s"] for r in reps if not r["probe"])
        if elapsed + next_s > min(seconds, RUN_LIMIT_S - 10):
            return reps
        reps.append(runner.spawn())


def _untraced(reps: list) -> list:
    return [r for r in reps if not r["probe"] and not r["trace"] and "wall_s" in r]


def end_to_end(reps: list) -> dict:
    """Medians over the untraced repetitions (and probes, for set-up)."""
    work = _untraced(reps)
    setups = [r["setup_s"] for r in reps if not r["trace"] and "setup_s" in r]
    if not work or not setups:
        return {}
    return {
        "wall_s": {"value": statistics.median(r["wall_s"] for r in work), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in work),
                        "unit": "MB"},
    }


def summary_lines(workload: str, reps: list, attempted: int, failed: int) -> list:
    work = _untraced(reps)
    lines = []
    e2e = end_to_end(reps)
    if e2e:
        walls = [r["wall_s"] for r in work]
        setups = sum(1 for r in reps if not r["trace"] and "setup_s" in r)
        lines += [
            f"{workload} wall_s = {e2e['wall_s']['value']:.4f} s "
            f"(median of {len(walls)}, max {max(walls):.4f} s)",
            f"{workload} setup_s = {e2e['setup_s']['value']:.4f} s (median of {setups})",
            f"{workload} peak_rss_mb = {e2e['peak_rss_mb']['value']:.1f} MB",
            f"{workload} artifact_mb = "
            f"{statistics.median(r['artifact_mb'] for r in work):.6f} MB",
        ]
    lines.append(f"{workload} failed_frac = {failed / max(attempted, 1):.4f} ratio "
                 f"({failed} of {attempted} operations)")
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 t0: float) -> tuple:
    """Returns (record, metrics) for one workload."""
    work = OUT / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(workload, seed, work, t0 + RUN_LIMIT_S)
    if trace:
        reps = [runner.spawn(), runner.spawn(trace=True)]
    else:
        reps = timed_reps(runner, seconds, time.perf_counter())
    shutil.rmtree(work, ignore_errors=True)

    ops = [op for r in reps for op in r["ops"]]
    attempted = len(ops)
    failed = sum(1 for op in ops if not op["ok"])
    if trace:
        untraced, traced = reps
        metrics = {}
        if failed == 0:
            metrics = spans.layer_metrics(traced["spans"], traced["wall_s"],
                                          untraced, traced["artifact_mb"] * 1e6)
            traced["spans_file"] = str(write_spans(workload, seed, traced["spans"]))
        traced.pop("spans", None)
    else:
        metrics = end_to_end(reps)
    for line in summary_lines(workload, reps, attempted, failed):
        print(line)
    if trace and metrics:
        for name, _ in spans.PER_LAYER:
            print(f"{workload} {name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    for r in reps:
        for op in r["ops"]:
            if not op["ok"]:
                print(f"{workload} FAILED {op['name']}: {op.get('error', 'verdict failed')}")
        if "error" in r:
            print(f"{workload} FAILED repetition: {r['error']}")
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "samples": sum(1 for r in reps if not r["probe"]),
              "setup_samples": sum(1 for r in reps if not r["trace"] and "setup_s" in r),
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / max(attempted, 1),
              "metrics": metrics, "reps": reps}
    return record, metrics


def write_spans(workload: str, seed: int, span_list: list) -> Path:
    path = OUT / "results" / f"{workload}-seed{seed}.spans.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(span_list))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all", "smoke"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crocco_prandtl" / "__init__.py").is_file():
        print(f"no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    t0 = time.perf_counter()
    env = environment(args.seed)
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    records, metrics = [], {}
    for name in names:
        record, wl_metrics = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace), time.perf_counter())
        records.append(record)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in wl_metrics.items()})

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and attempted > 0 and bool(metrics)
    result_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps({"environment": env, "workloads": records},
                                      indent=1))
    print(f"record written to {result_path.relative_to(ROOT)}; "
          f"elapsed {time.perf_counter() - t0:.1f} s")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
