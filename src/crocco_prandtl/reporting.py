"""Rendering of every run report and artifact.

Every artifact is plain text, starts with the provenance comment line

    # crocco-prandtl <version> <scenario> <grid> <eps>

and renders every float with the %.17g round-trip format so reruns can be
compared byte for byte.  report_text renders the entry and verdict lines
that report.txt holds and `run` prints; a failed verdict leaves a FAILED
marker in report.txt.  report.csv holds one row per entry, with the run's
grid label in its grid column.

fields.csv is streamed one time level at a time, with no copy of the whole
history; its bytes equal numpy.savetxt(fh, rows, fmt="%.17g", delimiter=",")
over the (t, x, y, value) rows in t-major, then x, then y order.  Its time
levels are formatted by up to one process per usable core, each writing a
contiguous run of levels, and the parts are joined in order, so the bytes do
not depend on the core count.
"""

import os
import pickle
import shutil
import signal
import tempfile
from pathlib import Path
from typing import List

import numpy as np

from ._version import __version__
from .scenarios import RunResult, Table


def artifact_header(result: RunResult) -> str:
    return f"# crocco-prandtl {__version__} {result.scenario} {result.grid_label} {result.eps_label}"


def fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def report_text(result: RunResult) -> str:
    """One `key = value` line per entry, then one line per verdict."""
    lines = [f"{key} = {fmt(value)}" for key, value, _, _ in result.entries]
    lines += [f"verdict = {'pass' if ok else 'fail'} [{name}]"
              for name, ok in result.verdicts.items()]
    return "\n".join(lines) + "\n"


def write_report_text(path: Path, result: RunResult) -> Path:
    overall = f"overall = {'PASSED' if result.ok else 'FAILED'}"
    path.write_text(f"{artifact_header(result)}\n{report_text(result)}{overall}\n")
    return path


def write_report_csv(path: Path, result: RunResult) -> Path:
    lines = [artifact_header(result), "key,value,grid,eps,domain"]
    lines.extend(f"{key},{fmt(value)},{result.grid_label},{eps},{domain}"
                 for key, value, eps, domain in result.entries)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_table_csv(path: Path, result: RunResult, table: Table) -> Path:
    lines = [artifact_header(result), ",".join(table.columns)]
    lines.extend(",".join(fmt(v) for v in row) for row in table.rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def _usable_cores() -> int:
    """Cores this process may run on; 1 where it cannot fork (Windows)."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_levels(fh, hist, nodes, start: int, stop: int) -> None:
    """Write time levels start..stop-1, one %.17g template per level."""
    for t, level in zip(hist.t[start:stop].tolist(), hist.values[start:stop]):
        stamp = "%.17g" % t
        template = stamp + (",%.17g\n" + stamp).join(nodes) + ",%.17g\n"
        fh.write(template % tuple(level.ravel().tolist()))


def write_fields_csv(path: Path, result: RunResult) -> Path:
    """One `t,x,y,value` row per node, streamed one time level at a time.

    The `,x,y` part of every row is formatted once; each level joins it into
    a template with one %.17g slot per node and fills that with one `%`.

    The levels are cut into one contiguous chunk per usable core.  This
    process writes the header and the first chunk into `path`; each further
    chunk is written by a forked worker into a sibling part file, which is
    appended in order.  A worker only formats and writes: it calls no BLAS,
    whose threads fork does not copy, and it leaves through os._exit, so
    inherited stdio buffers and exit handlers never run twice.  Its exception
    comes back pickled over a pipe and is raised here.  No worker or part
    file outlives the call.
    """
    hist = result.history
    nodes = [",%.17g,%.17g" % (x, y) for x in hist.x.tolist() for y in hist.y.tolist()]
    n = len(hist.t)
    k = min(_usable_cores(), n)
    bounds = [n * i // k for i in range(k + 1)]
    parts, workers = [], {}
    try:
        for i in range(1, k):
            fd, part = tempfile.mkstemp(prefix=path.name + ".", suffix=".part", dir=path.parent)
            os.close(fd)
            parts.append(part)
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    with open(part, "w") as fh:
                        _write_levels(fh, hist, nodes, bounds[i], bounds[i + 1])
                    status = 0
                except BaseException as exc:
                    os.write(w, pickle.dumps(exc))
                finally:
                    os._exit(status)
            os.close(w)
            workers[pid] = os.fdopen(r, "rb")
        with open(path, "w") as fh:
            fh.write(artifact_header(result) + "\n")
            fh.write("t,x,y,value\n")
            _write_levels(fh, hist, nodes, bounds[0], bounds[1])
        for pid in list(workers):
            error = workers[pid].read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop(pid).close()
            if error:
                raise pickle.loads(error)
            if code:
                raise RuntimeError(f"fields.csv worker exited with code {code}")
        with open(path, "ab") as out:
            for part in parts:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, out)
    finally:
        for pid, pipe in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in parts:
            os.unlink(part)
    return path


def write_artifacts(result: RunResult, out_dir) -> List[Path]:
    """Write the full artifact set for one run into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [
        write_report_text(out / "report.txt", result),
        write_report_csv(out / "report.csv", result),
    ]
    if result.history is not None:
        written.append(write_fields_csv(out / "fields.csv", result))
    for table in result.tables:
        written.append(write_table_csv(out / f"{table.name}.csv", result, table))
    return written
