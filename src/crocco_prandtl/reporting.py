"""Rendering of every run report and artifact.

Every artifact is plain text, starts with the provenance comment line

    # crocco-prandtl <version> <scenario> <grid> <eps>

and renders every float with the %.17g round-trip format so reruns can be
compared byte for byte.  report_text renders the entry and verdict lines
that report.txt holds and `run` prints, each entry off the full domain
tagged with its domain; a failed verdict leaves a FAILED marker in
report.txt.  report.csv holds one row per entry, with the run's grid label
in its grid column.

fields.csv is streamed one time level at a time, with no copy of the whole
history; its bytes equal numpy.savetxt(fh, rows, fmt="%.17g", delimiter=",")
over the (t, x, y, value) rows in t-major, then x, then y order.  Its time
levels are split across the usable cores by parallel.fork_each, one thunk
per level, and joined in order, so the bytes do not depend on the core
count.
"""

import os
import shutil
import tempfile
from functools import partial
from pathlib import Path
from typing import List

import numpy as np

from ._version import __version__
from .parallel import fork_each
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
    """One line per entry, `key = value` on the full domain and `key [domain]
    = value` off it, then one line per verdict."""
    lines = [f"{key} = {fmt(value)}" if domain == "full" else f"{key} [{domain}] = {fmt(value)}"
             for key, value, _, domain in result.entries]
    lines += [f"verdict = {'pass' if chk.passed else 'fail'} [{name}]"
              for name, chk in result.verdicts.items()]
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


def _write_level(fh, hist, nodes, i: int) -> None:
    """Write time level i through one %.17g template."""
    stamp = "%.17g" % hist.t[i]
    template = stamp + (",%.17g\n" + stamp).join(nodes) + ",%.17g\n"
    fh.write(template % tuple(hist.values[i].ravel().tolist()))


def write_fields_csv(path: Path, result: RunResult) -> Path:
    """One `t,x,y,value` row per node, streamed one time level at a time.

    The `,x,y` part of every row is formatted once; each level joins it into
    a template with one %.17g slot per node and fills that with one `%`.
    Each level is a thunk of fork_each that appends it to its process's
    file, `path` here and `<pid>.part` in a temporary sibling directory in
    a worker, and returns only that path.  Each process runs a contiguous
    run of levels, so the parts, appended in the order first seen, are in
    level order.  No part file outlives the call.
    """
    hist = result.history
    nodes = [",%.17g,%.17g" % (x, y) for x in hist.x.tolist() for y in hist.y.tolist()]
    path.write_text(artifact_header(result) + "\nt,x,y,value\n")
    caller = os.getpid()
    with tempfile.TemporaryDirectory(prefix=path.name + ".", dir=path.parent) as tmp:
        def write(i: int) -> Path:
            pid = os.getpid()
            part = path if pid == caller else Path(tmp, f"{pid}.part")
            with open(part, "a") as fh:
                _write_level(fh, hist, nodes, i)
            return part

        parts = dict.fromkeys(fork_each([partial(write, i) for i in range(len(hist.t))]))
        with open(path, "ab") as out:
            for part in list(parts)[1:]:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, out)
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
