"""Run one configured scenario end to end through the library API, print
the artifact set, and demonstrate bit-identical reruns.

The CLI wraps exactly this sequence:
    crocco-prandtl run --config configs/exact_profile.cfg --out OUT"""

import tempfile
from pathlib import Path

from crocco_prandtl import RunConfig, run_scenario, write_artifacts

cfg = RunConfig(scenario="exact_profile", nx=32, ny=32, nt=32, eps=1e-3)
result = run_scenario(cfg)
print("scenario %s on %s, overall %s" %
      (result.scenario, result.grid_label, "PASSED" if result.ok else "FAILED"))
for key, value, _, _ in result.entries[:6]:
    print("  %-24s %.6g" % (key, value))
print("  ...")

with tempfile.TemporaryDirectory() as tmp:
    a = Path(tmp) / "run_a"
    b = Path(tmp) / "run_b"
    paths = write_artifacts(result, a)
    print("artifacts:", ", ".join(p.name for p in paths))
    print("header:", (a / "report.txt").read_text().splitlines()[0])

    # a fresh run of the same config must reproduce every byte
    write_artifacts(run_scenario(cfg), b)
    same = all((a / p.name).read_bytes() == (b / p.name).read_bytes() for p in paths)
    print("rerun byte-identical:", same)
