"""The benchmark in perfbench/ reaches into mvsc by name: its tracer wraps
the public functions of TRACED_MODULES and the solver's SOLVER_KERNELS,
and its launcher patches pipeline.normalize_views. These names must stay
until the benchmark changes with them; for the same reason the solver
keeps its unused svt and solve_spd imports. The package must not load
mvsc.cli, or `python -m mvsc.cli` warns that it is already loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# spans.py imports nothing from mvsc at import time, so a fresh process
# sees exactly what `import mvsc` loads
SCRIPT = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
before = sorted(m for m in sys.modules if m.split(".")[0] == "mvsc")
import mvsc
solver = sys.modules["mvsc.solver"]
print(json.dumps({
    "before": before,
    "untraced": [m for m in spans.TRACED_MODULES if "mvsc." + m not in sys.modules],
    "kernels": [k for k in spans.SOLVER_KERNELS if not callable(getattr(solver, k, None))],
    "normalize_views": callable(getattr(mvsc.pipeline, "normalize_views", None)),
    "cli": "mvsc.cli" in sys.modules,
}))
spans.Tracer().install()
"""


def test_package_import_exposes_what_the_benchmark_wraps():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench" / "spans.py")],
        env=env, timeout=300, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout.splitlines()[-1])
    assert found == {
        "before": [],
        "untraced": [],
        "kernels": [],
        "normalize_views": True,
        "cli": False,
    }
