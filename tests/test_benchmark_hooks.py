"""The benchmark in perfbench/ reaches into mvsc by name: its tracer wraps
the public functions of TRACED_MODULES and the solver's SOLVER_KERNELS,
and its launcher patches pipeline.normalize_views. These names must stay
until the benchmark changes with them; for the same reason the solver
keeps its unused svt and solve_spd imports. The package must not load
mvsc.cli, or `python -m mvsc.cli` warns that it is already loaded."""

import ast
import importlib
import importlib.util
import inspect
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


def test_each_command_normalizes_once_through_the_module_attribute(
    tmp_path, monkeypatch
):
    # perfbench/launch.py stamps setup_s by patching
    # pipeline.normalize_views; a command that reached the function some
    # other way, or called it twice, would skew that stamp
    import mvsc.pipeline as pipeline
    from mvsc.solver import HyperParams

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n": 24, "clusters": 2, "dims": [5, 6], "subspace_rank": 2,
        "noise_sigma": 0.05, "seed": 3,
    }))
    calls = []
    real = pipeline.normalize_views

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "normalize_views", counting)
    commands = {
        "run": pipeline.cmd_run,
        "ablate": pipeline.cmd_ablate,
        "sweep": lambda config: pipeline.cmd_sweep(config, (0.5,), (0.0, 1.0)),
    }
    for name, command in commands.items():
        calls.clear()
        config = pipeline.RunConfig(
            params=HyperParams(max_iter=20), out_dir=tmp_path / name,
            synthetic=spec, restarts=1,
        )
        assert command(config) == 0
        assert calls == [("unit_column",)], name


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


# the span names perfbench/spans.py layer_metrics reads through busy[...],
# calls[...] and self_time[...]; a name no span carries reads 0 there
LAYER_SPANS = {
    "data.load_dataset", "data.normalize_views",
    "graphs.build_graph_set", "graphs.first_order_proximity",
    "graphs.second_order_proximity",
    "solver.fit", "solver.update_E", "solver.update_Q", "solver.svt",
    "solver.update_Z", "solver.solve_spd", "solver.update_multipliers",
    "spectral.spectral_cluster", "spectral.spectral_embedding", "spectral.kmeans",
    "metrics.evaluate", "metrics.nmi",
    "pipeline.run_restarts", "pipeline.write_csv",
}


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_layer_metric_reads_a_traced_function():
    spans = load_spans()
    tree = ast.parse(inspect.getsource(spans.layer_metrics))
    read = {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("busy", "calls", "self_time")
        and isinstance(node.slice, ast.Constant)
    }
    assert read == LAYER_SPANS
    for name in sorted(LAYER_SPANS):
        short, attr = name.split(".")
        assert short in spans.TRACED_MODULES, name
        module = importlib.import_module("mvsc." + short)
        if short == "solver" and attr in spans.SOLVER_KERNELS:
            continue
        obj = getattr(module, attr, None)
        assert inspect.isfunction(obj) and not attr.startswith("_"), name
        assert obj.__module__ == module.__name__, name


# a traced ablate at n=150, whose variants run on two lanes given two
# CPUs and in turn on one; prints span_table's problems and each span
# name's call count
TRACED_ABLATE = """
import importlib.util, json, os, sys
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
tracer.install()
import mvsc.cli
code = mvsc.cli.main(sys.argv[2:])
_, calls, _, problems = spans.span_table({"spans": tracer.spans})
print(json.dumps([code, len(os.sched_getaffinity(0)), problems, calls]))
"""


def test_traced_ablate_nests_lane_spans_inside_their_parents(tmp_path):
    # the tracer parents a thread's first span on the innermost span open
    # in the main thread: in_order's, once the lane has signalled its start.
    # One map runs every fit (lrr-bsv's three views and the other three
    # variants) and one lane, on the extra thread or inline, whatever the
    # CPU count
    data = tmp_path / "spec.json"
    data.write_text(json.dumps({
        "n": 150, "clusters": 3, "dims": [20, 30, 40], "subspace_rank": 3,
        "noise_sigma": 0.05, "seed": 7,
    }))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )

    def one_cpu():
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    for preexec in (one_cpu, None):
        done = subprocess.run(
            [sys.executable, "-c", TRACED_ABLATE, str(ROOT / "perfbench" / "spans.py"),
             "ablate", "--synthetic", str(data), "--out", str(tmp_path / "out"),
             "--restarts", "2"],
            env=env, preexec_fn=preexec, timeout=300, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        code, cpus, problems, calls = json.loads(done.stdout.splitlines()[-1])
        assert code == 0
        assert cpus == 1 or preexec is None
        assert problems == []
        assert calls["pipeline.fit_and_embed"] == 6
        assert calls["pipeline.in_order"] == 1
        assert calls["pipeline.lane"] == 1
