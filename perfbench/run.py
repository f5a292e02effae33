"""Benchmark of the mvsc command line, run as users run it.

    python3 perfbench/run.py --workload run-ref --seed 7 --seconds 30 --trace 0

Run from the root of a checkout. Each run writes its dataset (the
planted-subspace generator, seeded by --seed) as a manifest before any
timing starts, then launches `mvsc` in fresh processes with the thread
variables unset, whole commands at a time, until --seconds is spent
(at least one command). Every output is checked by check.py. The last
line of standard output is one JSON object: correct, attempted, failed
(one operation is one restart row of report.csv) and the metrics named
in BENCHMARK.json, the end-to-end ones with --trace 0 and the per-layer
ones, from span-traced commands, with --trace 1. The line before it
holds the details: environment record, per-command samples, problems.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MVSC_THREADS")
SETUP_PROBES = 3
RUN_DEADLINE_S = 170.0  # processes still running then are killed
MEASURE_RESERVE_S = 15.0  # kept free after measuring for probes and checks
PREPARE_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    command: str
    restarts: int
    default_seed: int
    spec: dict
    flags: tuple = ()

    @property
    def reports(self):
        """The per-restart report files one command writes."""
        if self.command == "ablate":
            return [f"report_{v}.csv" for v in check.ABLATION_LABELS]
        return ["report.csv"]

    @property
    def outputs(self):
        """Every result file one command writes."""
        if self.command == "ablate":
            return ["ablation.csv", *self.reports]
        return [*self.reports, "summary.csv", "labels.csv"]

    @property
    def operations(self):
        """Restart rows one command writes."""
        return self.restarts * len(self.reports)


REFERENCE = {"clusters": 3, "dims": [20, 30, 40], "subspace_rank": 3, "noise_sigma": 0.05}
WORKLOADS = {
    "run-ref": Workload("run", 10, 7, dict(REFERENCE, n=150)),
    "run-large": Workload("run", 1, 7, dict(REFERENCE, n=1200)),
    "ablate-consensus": Workload(
        "ablate", 2, 1,
        dict(REFERENCE, n=150, noise_sigma=0.15, consensus_fraction=0.6),
        ("--knn", "30", "--lambda2", "10"),
    ),
}


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def child_env(extra):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(extra)
    return env


def prepare(spec, data_dir, env):
    """Write the dataset as a manifest and return the environment record,
    both from one launch.py process started like the commands, outside
    any timing."""
    done = subprocess.run(
        [sys.executable, str(HERE / "launch.py"), "prepare", json.dumps(spec), str(data_dir)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=PREPARE_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"launch.py prepare failed:\n{done.stderr}")
    return json.loads(done.stdout)


@dataclass
class Sample:
    """One launched mvsc process."""

    mode: str
    out_dir: Path
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None

    def as_dict(self):
        return {k: (str(v) if isinstance(v, Path) else v) for k, v in vars(self).items()}


class Runner:
    def __init__(self, workload, work, manifest, env, deadline):
        self.workload = workload
        self.work = work
        self.manifest = manifest
        self.env = env
        self.deadline = deadline
        self.count = 0

    def launch(self, mode):
        """Launch one mvsc process in `mode` (full, setup, trace) and wait
        for it; wall time runs from just before the launch to its exit."""
        self.count += 1
        name = f"{mode}{self.count}"
        out_dir = self.work / name
        stamp = self.work / f"{name}.stamp"
        spans_arg = [str(self.work / f"{name}.spans.json")] if mode == "trace" else []
        wl = self.workload
        argv = [
            str(HERE / "launch.py"), "cli", str(stamp), mode, *spans_arg, "--",
            wl.command, "--manifest", str(self.manifest), "--out", str(out_dir),
            "--restarts", str(wl.restarts), *wl.flags,
        ]
        with open(self.work / f"{name}.log", "w") as log_fh:
            started = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, *argv], env=self.env, cwd=ROOT,
                stdout=log_fh, stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(max(self.deadline - started, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        setup = float(stamp.read_text()) - started if stamp.exists() else None
        return Sample(
            mode=mode,
            out_dir=out_dir,
            returncode=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            setup_s=setup,
        )

    def measure(self, seconds, trace):
        """Whole commands (untraced/traced pairs with --trace 1) until the
        next one would overrun `seconds` or the run deadline."""
        modes = ("full", "trace") if trace else ("full",)
        started = time.monotonic()
        samples = []
        while True:
            samples += [self.launch(mode) for mode in modes]
            elapsed = time.monotonic() - started
            per_round = elapsed * len(modes) / len(samples)
            if elapsed + per_round > seconds:
                return samples
            if time.monotonic() + per_round > self.deadline - MEASURE_RESERVE_S:
                return samples


def output_files(sample, workload):
    return {name: (sample.out_dir / name).read_bytes() for name in workload.outputs}


def check_sample(sample, workload, truth):
    """Problems in one successful command's outputs, and its GRMSC NMI."""
    if workload.command == "ablate":
        problems, table = check.check_ablate(sample.out_dir, workload.restarts)
        return problems, float(table["GRMSC"]["nmi_mean"])
    problems, summary = check.check_run(sample.out_dir, truth, workload.restarts)
    return problems, float(summary["nmi_mean"])


def failed_operations(sample, workload):
    """Restart rows with an error, plus rows missing from the reports; a
    command that exited non-zero fails all of its restarts."""
    if sample.returncode != 0:
        return workload.operations
    rows = [row for name in workload.reports for row in check.read_csv(sample.out_dir / name)]
    return sum(1 for row in rows if row["error"]) + workload.operations - len(rows)


def fit_accounting(layer):
    """A `run` fit has four child steps and nothing else, so they and its
    self time must add up to its busy time."""
    parts = ("update_Q", "update_Z", "update_E", "update_multipliers")
    accounted = sum(layer[f"solver.{p}.s"] for p in parts) + layer["solver.fit.self_s"]
    if abs(accounted - layer["solver.fit.s"]) > 1e-6 * layer["solver.fit.s"] + 1e-9:
        return [f"fit steps account for {accounted!r} s of {layer['solver.fit.s']!r} s"]
    return []


def reported_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json lists for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in doc["per_layer" if trace else "end_to_end"]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="dataset seed (default: 7 for run-*, 1 for ablate-consensus)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--env", action="append", default=[], metavar="KEY=VALUE",
                        help="set a variable for the mvsc processes, e.g. "
                             "OPENBLAS_NUM_THREADS=1 for a single-threaded baseline")
    return parser.parse_args(argv)


def main(argv):
    run_started = time.monotonic()
    args = parse_args(argv)
    if not (ROOT / "src" / "mvsc" / "__init__.py").is_file():
        log(f"no mvsc sources under {ROOT / 'src'}; run from the root of a checkout")
        return 2
    names = reported_metrics(args.trace)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    extra = dict(item.split("=", 1) for item in args.env)
    env = child_env(extra)

    work = OUT / f"{args.workload}-seed{seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = dict(workload.spec, seed=seed, name=f"{args.workload}-{seed}")
    environment = prepare(spec, work / "data", env)
    manifest = work / "data" / "manifest.json"
    truth = check.read_labels(work / "data" / "labels.csv")
    environment["benchmark_env"] = {k: os.environ.get(k) for k in THREAD_VARS}
    environment["extra_env"] = extra

    runner = Runner(workload, work, manifest, env, run_started + RUN_DEADLINE_S)
    runner.launch("setup")  # untimed warm-up: bytecode caches, file cache
    log(f"{args.workload} seed {seed}: measuring for {args.seconds:g} s")
    samples = runner.measure(args.seconds, bool(args.trace))
    if not args.trace:
        samples += [runner.launch("setup") for _ in range(SETUP_PROBES)]

    commands = [s for s in samples if s.mode != "setup"]
    attempted = workload.operations * len(commands)
    failed = sum(failed_operations(s, workload) for s in commands)
    ok = [s for s in commands if s.returncode == 0]
    problems = [] if ok else ["no command succeeded"]
    nmis = []
    for s in ok:
        found, value = check_sample(s, workload, truth)
        problems += [f"{s.out_dir.name}: {p}" for p in found]
        nmis.append(value)
    if ok and workload.command == "run":
        problems += check.self_test(ok[0].out_dir, truth, workload.restarts)
    reference = output_files(ok[0], workload) if ok else {}
    for s in ok[1:]:
        if output_files(s, workload) != reference:
            problems.append(f"{s.out_dir.name}: outputs differ from {ok[0].out_dir.name}")

    full = [s for s in commands if s.mode == "full"]
    if args.trace:
        layers = []
        for s in ok:
            if s.mode != "trace":
                continue
            doc = json.loads((work / f"{s.out_dir.name}.spans.json").read_text())
            layer, found = spans.layer_metrics(doc)
            if workload.command == "run":
                found += fit_accounting(layer)
            problems += [f"{s.out_dir.name}: {p}" for p in found]
            layers.append(layer)
        values = {
            name: statistics.median(layer[name] for layer in layers)
            for name in (layers[0] if layers else {})
        }
        values["trace.overhead_s"] = statistics.median(
            s.wall_s for s in commands if s.mode == "trace"
        ) - statistics.median(s.wall_s for s in full)
    else:
        values = {
            "wall_s": statistics.median(s.wall_s for s in full),
            "setup_s": statistics.median(
                s.setup_s for s in samples if s.mode != "trace" and s.setup_s is not None
            ),
            "cpu_s": statistics.median(s.cpu_s for s in full),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in full),
            "nmi": statistics.median(nmis) if nmis else 0.0,
        }

    details = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment,
        "samples": [s.as_dict() for s in samples],
        "problems": problems,
    }
    (work / "result.json").write_text(json.dumps(details, indent=1) + "\n")
    for p in problems:
        log(f"problem: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        # a metric is missing only when every command it is taken from failed
        "metrics": {
            name: {"value": values[name] if not problems else values.get(name, 0.0), "unit": unit}
            for name, unit in names
        },
    }
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
