"""End-to-end checks of the batch CLI: artifacts, exit codes, determinism."""

import ast
import csv
import dataclasses
import errno
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mvsc import graphs, linalg, pipeline, solver
from mvsc.cli import build_parser, config_from_args, main
from mvsc.data import SyntheticSpec, generate_synthetic, normalize_views, write_dataset
from mvsc.errors import NumericalError
from mvsc.metrics import METRIC_FIELDS
from mvsc.solver import HyperParams

TINY_SPEC = {
    "n": 24,
    "clusters": 2,
    "dims": [5, 6],
    "subspace_rank": 2,
    "noise_sigma": 0.05,
    "seed": 3,
    "name": "tiny",
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(TINY_SPEC))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_cli(*argv):
    return main([str(a) for a in argv])


# ----------------------------------------------------------------- cmd run


def test_run_writes_report_summary_labels(spec_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli("run", "--synthetic", spec_file, "--out", out, "--restarts", 4)
    assert code == 0
    report = read_rows(out / "report.csv")
    assert len(report) == 4
    assert [r["restart"] for r in report] == ["0", "1", "2", "3"]
    assert [r["seed"] for r in report] == ["0", "1", "2", "3"]
    assert all(r["variant"] == "GRMSC" for r in report)
    summary = read_rows(out / "summary.csv")
    assert len(summary) == 1
    assert summary[0]["n_runs"] == "4"
    labels = np.loadtxt(out / "labels.csv", dtype=int)
    assert labels.shape == (24,)
    assert set(labels) <= {0, 1}


def test_run_default_restart_count_is_30(spec_file, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--synthetic", spec_file, "--out", out) == 0
    assert len(read_rows(out / "report.csv")) == 30


def test_summary_recomputable_from_report(spec_file, tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--synthetic", spec_file, "--out", out, "--restarts", 6)
    report = read_rows(out / "report.csv")
    summary = read_rows(out / "summary.csv")[0]
    for name in METRIC_FIELDS:
        col = np.array([float(r[name]) for r in report])
        assert abs(col.mean() - float(summary[name + "_mean"])) <= 1e-10
        assert abs(col.std() - float(summary[name + "_std"])) <= 1e-10


def test_msc_naive_label_and_zeroed_lambda2(spec_file, tmp_path):
    out = tmp_path / "out"
    run_cli(
        "run", "--synthetic", spec_file, "--out", out,
        "--restarts", 2, "--variant", "msc-naive", "--lambda2", "7.5",
    )
    report = read_rows(out / "report.csv")
    assert all(r["variant"] == "MSC_NAIVE" for r in report)
    assert all(float(r["lambda2"]) == 0.0 for r in report)
    assert read_rows(out / "summary.csv")[0]["variant"] == "MSC_NAIVE"


def test_knn_flag_lands_in_report(spec_file, tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--synthetic", spec_file, "--out", out,
            "--restarts", 1, "--knn", 4)
    assert read_rows(out / "report.csv")[0]["knn"] == "4"


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_oversized_knn_warns_once_and_writes_the_clamped_run(command, spec_file, tmp_path):
    # knn >= n is clamped to n - 1; the command says so once, before
    # ablate's lanes start, and writes what --knn 23 writes
    one, every = run_on_one_cpu_and_all(
        tmp_path, [command, "--synthetic", str(spec_file), "--restarts", "2", "--knn", "500"])
    assert one == every
    files, stdout, stderr = one
    assert stderr.decode() == "knn = 500 is not below n = 24; the graphs use knn = 23\n"
    assert stdout == b""
    out = tmp_path / "clamped"
    assert run_cli(command, "--synthetic", spec_file, "--out", out,
                   "--restarts", 2, "--knn", 23) == 0
    assert files == {str(p.relative_to(out)): p.read_bytes()
                     for p in sorted(out.rglob("*")) if p.is_file()}


# a non-default value for every HyperParams field, keyed by field name;
# the flag is the name with dashes
HYPERPARAM_FLAGS = {
    "lambda1": "0.7", "lambda2": "2.5", "alpha": "0.01", "knn": "5",
    "eps": "1e-5", "max_iter": "40", "variant": "msc-naive",
}


def test_every_hyperparam_is_set_from_its_flag(tmp_path):
    # the config object and the CLI must not drift apart: a field with
    # no flag is a setting nothing can change
    assert {f.name for f in dataclasses.fields(HyperParams)} == set(HYPERPARAM_FLAGS)
    argv = ["run", "--synthetic", "spec.json", "--out", str(tmp_path)]
    for name, value in HYPERPARAM_FLAGS.items():
        argv += ["--" + name.replace("_", "-"), value]
    params = config_from_args(build_parser().parse_args(argv)).params
    defaults = HyperParams()
    for name, value in HYPERPARAM_FLAGS.items():
        got = getattr(params, name)
        assert got == type(got)(value) != getattr(defaults, name), name


def test_z_update_flag_is_rejected(spec_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--synthetic", spec_file, "--out", tmp_path / "out",
                "--z-update", "as-printed")
    assert exc.value.code == 2


@pytest.mark.parametrize("command, flag", [
    ("ablate", ("--variant", "grmsc")),
    ("ablate", ("--dump-graphs",)),
    ("ablate", ("--trace-residuals",)),
    ("sweep", ("--lambda1", "0.5")),
    ("sweep", ("--lambda2", "1")),
    ("sweep", ("--dump-graphs",)),
    ("sweep", ("--trace-residuals",)),
], ids=lambda v: v if isinstance(v, str) else v[0].lstrip("-"))
def test_commands_reject_flags_they_do_not_read(command, flag, spec_file, tmp_path):
    # ablate runs every variant, sweep takes its lambdas from the grids,
    # and only run dumps graphs or writes traces
    out = tmp_path / "out"
    grids = ()
    if command == "sweep":
        grids = ("--lambda1-grid", "0.5", "--lambda2-grid", "1")
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--synthetic", spec_file, "--out", out, "--restarts", 1,
                *grids, *flag)
    assert exc.value.code == 2
    assert not out.exists()


def test_rerun_is_byte_identical(spec_file, tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--synthetic", spec_file, "--out", out, "--restarts", 4)
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    run_cli("run", "--synthetic", spec_file, "--out", out, "--restarts", 4)
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_outputs_do_not_depend_on_blas_thread_variables(tmp_path):
    # at n=150 the graph builds and the ALM's GEMMs are large enough for
    # a multi-threaded OpenBLAS to split them; every output must still
    # match a single-threaded run byte for byte
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n": 150, "clusters": 3, "dims": [20, 30, 40], "subspace_rank": 3,
        "noise_sigma": 0.05, "seed": 7,
    }))
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    trees = []
    for name, extra in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("default", {})):
        out = tmp_path / name
        subprocess.run(
            [sys.executable, "-m", "mvsc.cli", "run", "--synthetic", str(spec),
             "--out", str(out), "--restarts", "2", "--trace-residuals",
             "--dump-graphs"],
            env={**base, **extra}, check=True, timeout=300,
        )
        trees.append({str(p.relative_to(out)): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert "graphs/consensus.csv" in trees[0]
    assert "residuals_restart1.csv" in trees[0]
    assert trees[0] == trees[1]


def test_split_products_do_not_depend_on_blas_threads_or_cpus(tmp_path):
    # at n=400 the fit's large products are split in two (linalg.matmul)
    # and, given two CPUs, run on two threads; every output must match a
    # run limited to one CPU, where the parts run one after the other
    n, dims = 400, [20, 30, 40]
    assert sum(dims) * n * n >= linalg.SPLIT_MIN_MACS
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n": n, "clusters": 3, "dims": dims, "subspace_rank": 3,
        "noise_sigma": 0.05, "seed": 7,
    }))
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))

    def one_cpu():
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    trees = []
    for name, extra, preexec in (("one", {"OPENBLAS_NUM_THREADS": "1"}, None),
                                 ("default", {}, None), ("one-cpu", {}, one_cpu)):
        out = tmp_path / name
        subprocess.run(
            [sys.executable, "-m", "mvsc.cli", "run", "--synthetic", str(spec),
             "--out", str(out), "--restarts", "1", "--trace-residuals",
             "--dump-graphs"],
            env={**base, **extra}, preexec_fn=preexec, check=True, timeout=300,
        )
        trees.append({str(p.relative_to(out)): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert "graphs/consensus.csv" in trees[0]
    assert "residuals_restart0.csv" in trees[0]
    assert trees[0] == trees[1] == trees[2]


def run_on_one_cpu_and_all(tmp_path, argv, script=None):
    """(files, stdout, stderr) of a command launched in a fresh process on
    one CPU and on every CPU the test may use; script, given, runs in
    place of `-m mvsc.cli` with argv as its arguments."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))

    def one_cpu():
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    runs = []
    for name, preexec in (("one-cpu", one_cpu), ("default", None)):
        out = tmp_path / name
        head = ["-c", script] if script else ["-m", "mvsc.cli"]
        done = subprocess.run(
            [sys.executable, *head, *argv, "--out", str(out)],
            env=base, preexec_fn=preexec, timeout=300, capture_output=True,
        )
        assert done.returncode == 0, done.stderr.decode()
        files = {str(p.relative_to(out)): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        runs.append((files, done.stdout, done.stderr))
    return runs


@pytest.mark.parametrize("argv", [
    ["ablate", "--restarts", "2"],
    ["sweep", "--restarts", "1", "--lambda1-grid", "0.5,1", "--lambda2-grid", "0,1"],
    ["run", "--variant", "lrr-bsv", "--restarts", "2", "--trace-residuals"],
], ids=["ablate", "sweep", "run-lrr-bsv"])
def test_lanes_do_not_change_outputs(argv, tmp_path):
    # at n=150 ablate's variants, sweep's grid points and lrr-bsv's views
    # run on two lanes given two CPUs (pipeline.in_order), in turn on one
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n": 150, "clusters": 3, "dims": [20, 30, 40], "subspace_rank": 3,
        "noise_sigma": 0.05, "seed": 7,
    }))
    one, every = run_on_one_cpu_and_all(tmp_path, [*argv, "--synthetic", str(spec)])
    assert one[0] and one == every


# ablate with msc-naive's and grmsc's clusterings collapsed to one and two
# clusters; msc-naive's fit waits first, so on two lanes grmsc's ends
# before it
WARNING_SCRIPT = """
import logging, sys, time
import numpy as np
from mvsc import cli, pipeline, spectral

variants = {}  # id of an embedding -> its variant
real_fit_and_embed, real_kmeans = pipeline.fit_and_embed, spectral.kmeans

def tagged(dataset, params, *args, **kwargs):
    if params.variant == "msc-naive":
        time.sleep(0.5)
    state, U = real_fit_and_embed(dataset, params, *args, **kwargs)
    variants[id(U)] = params.variant
    return state, U

def collapsing(X, k, seed):
    labels, inertia = real_kmeans(X, k, seed)
    keep = {"msc-naive": 0, "grmsc": 1}.get(variants[id(X)])
    return (labels if keep is None else np.minimum(labels, keep)), inertia

class Counter(logging.Handler):
    count = 0

    def emit(self, record):
        Counter.count += 1

logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
logging.getLogger("mvsc.spectral").addHandler(Counter(logging.WARNING))
pipeline.fit_and_embed, spectral.kmeans = tagged, collapsing
print(cli.main(sys.argv[1:]), Counter.count)
"""


def test_lane_warnings_reach_stderr_in_the_order_of_one_cpu(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(TINY_SPEC, n=45, clusters=3, dims=[8, 10, 12])))
    one, every = run_on_one_cpu_and_all(
        tmp_path, ["ablate", "--synthetic", str(spec), "--restarts", "2"],
        script=WARNING_SCRIPT,
    )
    warning = "WARNING mvsc.spectral: spectral clustering produced {} nonempty " \
        "clusters (asked for 3)\n"
    assert one[2].decode() == 2 * warning.format(1) + 2 * warning.format(2)
    assert one[1] == b"0 4\n"
    assert one == every


def run_in_one_process(argvs, prelude="", package="scipy"):
    """Run the mvsc commands argvs in turn in one fresh process, after the
    Python source prelude; returns their exit codes and the modules of
    package (a dotted name) loaded after `import mvsc.cli` and after each
    command."""
    script = (
        "import json, sys\n"
        f"{prelude}\n"
        "import mvsc.cli\n"
        f"loaded = lambda: sorted(m for m in sys.modules if (m + '.').startswith("
        f"{package + '.'!r}))\n"
        "seen, codes = [loaded()], []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    codes.append(mvsc.cli.main(argv))\n"
        "    seen.append(loaded())\n"
        "print(json.dumps([codes, seen]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argvs = [[str(a) for a in argv] for argv in argvs]
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        env=env, check=True, timeout=600, capture_output=True, text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture
def reference_spec(tmp_path):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"n": 150, "clusters": 3, "dims": [20, 30, 40],
                                "subspace_rank": 3, "noise_sigma": 0.05, "seed": 7}))
    return path


def test_commands_load_no_scipy(spec_file, reference_spec, tmp_path):
    # importing scipy cost more than half a second per process; the
    # commands run on numpy alone, also where gesdd does not converge on
    # one of msc-naive's SVT inputs at the reference spec
    codes, seen = run_in_one_process([
        ["run", "--synthetic", spec_file, "--out", tmp_path / "tiny", "--restarts", 2],
        ["run", "--synthetic", reference_spec, "--out", tmp_path / "msc-naive",
         "--restarts", 2, "--variant", "msc-naive"],
        ["ablate", "--synthetic", reference_spec, "--out", tmp_path / "ablate",
         "--restarts", 2],
    ])
    assert codes == [0, 0, 0]
    assert seen == [[]] * 4


def test_quick_start_runs_without_scipy(reference_spec, tmp_path):
    # README's quick start on an install with numpy alone
    reports = {f"report_{solver.variant_label(v)}.csv" for v in pipeline.ABLATION_ORDER}
    commands = {
        "run": ([], {"report.csv", "summary.csv", "labels.csv"}),
        "ablate": (["--restarts", 10], reports | {"ablation.csv"}),
        "sweep": (["--restarts", 5], {"sweep.csv"}),
    }
    codes, _ = run_in_one_process(
        [[name, "--synthetic", reference_spec, "--out", tmp_path / name, *flags]
         for name, (flags, _) in commands.items()],
        prelude="sys.modules['scipy'] = None",
    )
    assert codes == [0, 0, 0]
    for name, (_, files) in commands.items():
        assert {p.name for p in (tmp_path / name).iterdir()} == files


def test_commands_load_no_numpy_ma(reference_spec, tmp_path):
    # a plain np.unique or np.median imports numpy.ma, about 20 ms of
    # every command's start; the label counts and the kernel's median
    # do without
    codes, seen = run_in_one_process([
        ["run", "--synthetic", reference_spec, "--out", tmp_path / "run", "--restarts", 2],
    ], package="numpy.ma")
    assert codes == [0]
    assert seen == [[], []]


def test_no_module_imports_scipy():
    imported = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "mvsc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imported += [(path.name, n) for n in names if n.split(".")[0] == "scipy"]
    assert imported == []


def test_trace_residuals_files(spec_file, tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--synthetic", spec_file, "--out", out,
            "--restarts", 2, "--trace-residuals")
    for i in range(2):
        rows = read_rows(out / f"residuals_restart{i}.csv")
        assert rows, "trace should not be empty"
        head = rows[0]
        for col in ("iteration", "residual_view0", "residual_view1",
                    "residual_zq", "mu"):
            assert col in head
        # residuals end below the default tolerance
        assert float(rows[-1]["residual_zq"]) < 1e-6


def test_dump_graphs_default_location(spec_file, tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--synthetic", spec_file, "--out", out,
            "--restarts", 1, "--dump-graphs")
    names = {p.name for p in (out / "graphs").iterdir()}
    assert names == {
        "first_order_view0.csv", "first_order_view1.csv",
        "second_order_view0.csv", "second_order_view1.csv",
        "consensus.csv",
    }


@pytest.mark.parametrize(
    "flags",
    [("--variant", "msc-naive"), ("--variant", "lrr-bsv"), ("--lambda2", "0")],
    ids=["msc-naive", "lrr-bsv", "lambda2-0"],
)
def test_runs_without_a_graph_term_dump_the_grmsc_graphs(flags, spec_file, tmp_path):
    def dump(name, *extra):
        out = tmp_path / name
        assert run_cli("run", "--synthetic", spec_file, "--out", out,
                       "--restarts", 1, "--dump-graphs", *extra) == 0
        return {p.name: p.read_bytes() for p in (out / "graphs").iterdir()}

    reference = dump("grmsc")
    assert "consensus.csv" in reference
    assert dump("other", *flags) == reference



@pytest.fixture
def counted_builds(monkeypatch):
    """The modes of every graph set built through pipeline.build_graph_set."""
    builds = []
    real_build = graphs.build_graph_set

    def counting_build(*args, **kwargs):
        builds.append(kwargs["mode"])
        return real_build(*args, **kwargs)

    monkeypatch.setattr(pipeline, "build_graph_set", counting_build)
    return builds


def test_graphs_are_built_only_when_a_fit_reads_them_or_a_dump_asks(
    spec_file, tmp_path, counted_builds
):
    def run(name, *extra):
        out = tmp_path / name
        assert run_cli("run", "--synthetic", spec_file, "--out", out,
                       "--restarts", 2, "--lambda2", "0", *extra) == 0
        return {n: (out / n).read_bytes()
                for n in ("report.csv", "summary.csv", "labels.csv")}

    plain = run("plain")
    assert counted_builds == []
    assert run("dumped", "--dump-graphs") == plain
    assert counted_builds == ["fused"]
    run("msc", "--variant", "msc-naive")
    assert counted_builds == ["fused"]
    assert run_cli("ablate", "--synthetic", spec_file, "--out", tmp_path / "ablate",
                   "--restarts", 1, "--lambda2", "0") == 0
    assert run_cli("sweep", "--synthetic", spec_file, "--out", tmp_path / "sweep",
                   "--restarts", 1, "--lambda1-grid", "0.5", "--lambda2-grid", "0") == 0
    assert counted_builds == ["fused"]


def test_graphs_are_dumped_before_the_fit(spec_file, tmp_path, capsys, monkeypatch):
    def failing_fit(*args, **kwargs):
        raise NumericalError("fit failed")

    monkeypatch.setattr(pipeline, "fit", failing_fit)
    out = tmp_path / "out"
    code = run_cli("run", "--synthetic", spec_file, "--out", out,
                   "--restarts", 1, "--dump-graphs")
    assert code == 3
    assert "numerical failure: fit failed" in capsys.readouterr().err
    assert (out / "graphs" / "consensus.csv").exists()
    assert not (out / "report.csv").exists()

def test_dump_graphs_explicit_dir(spec_file, tmp_path):
    out = tmp_path / "out"
    target = tmp_path / "elsewhere"
    run_cli("run", "--synthetic", spec_file, "--out", out,
            "--restarts", 1, "--dump-graphs", target)
    assert (target / "consensus.csv").exists()
    assert not (out / "graphs").exists()


# ---------------------------------------------------------------- exit codes


def test_missing_manifest_exits_4(tmp_path, capsys):
    code = run_cli("run", "--manifest", tmp_path / "absent.json",
                   "--out", tmp_path / "out")
    assert code == 4
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("command, flag, grid", [
    ("run", "--out", []),
    ("ablate", "--out", []),
    ("sweep", "--out", ["--lambda1-grid", "1", "--lambda2-grid", "0,1"]),
    ("run", "--dump-graphs", []),
], ids=["run", "ablate", "sweep", "run-dump-graphs"])
def test_output_path_at_a_file_exits_4(command, flag, grid, below, spec_file, tmp_path,
                                       capsys, monkeypatch):
    # an output directory named by an existing file, or below one, is an
    # i/o error that names the path, not a traceback, found before the
    # dataset loads
    def never(*args, **kwargs):
        raise AssertionError("called before the output paths were checked")

    monkeypatch.setattr(pipeline, "generate_synthetic", never)
    monkeypatch.setattr(pipeline, "fit", never)
    blocker = tmp_path / "afile"
    blocker.write_text("kept\n")
    target = blocker / "sub" if below else blocker
    out = target if flag == "--out" else tmp_path / "out"
    dump = [] if flag == "--out" else [flag, target]
    code = run_cli(command, "--synthetic", spec_file, "--restarts", 1, "--out", out,
                   *grid, *dump)
    assert code == 4
    number = errno.ENOTDIR if below else errno.EEXIST
    assert capsys.readouterr().err == \
        f"mvsc: i/o error: [Errno {number}] {os.strerror(number)}: {str(target)!r}\n"
    assert blocker.read_text() == "kept\n"
    assert not (tmp_path / "out").exists()


def test_malformed_manifest_exits_2(tmp_path, capsys):
    bad = tmp_path / "manifest.json"
    bad.write_text("{oops")
    code = run_cli("run", "--manifest", bad, "--out", tmp_path / "out")
    assert code == 2
    assert "validation error" in capsys.readouterr().err


def test_label_free_manifest_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(0)
    np.savetxt(tmp_path / "view0.csv", rng.standard_normal((4, 8)), delimiter=",")
    (tmp_path / "manifest.json").write_text(json.dumps({
        "name": "unlabeled", "clusters": 2,
        "views": [{"path": "view0.csv", "rows": 4}], "labels": None,
    }))
    code = run_cli("run", "--manifest", tmp_path / "manifest.json",
                   "--out", tmp_path / "out")
    assert code == 2
    assert "labels" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "ablate", "sweep"])
def test_label_free_manifest_exits_2_before_any_graph_build(
    command, tmp_path, capsys, counted_builds
):
    rng = np.random.default_rng(0)
    np.savetxt(tmp_path / "view0.csv", rng.standard_normal((4, 8)), delimiter=",")
    (tmp_path / "manifest.json").write_text(json.dumps({
        "name": "unlabeled", "clusters": 2,
        "views": [{"path": "view0.csv", "rows": 4}], "labels": None,
    }))
    code = run_cli(command, "--manifest", tmp_path / "manifest.json",
                   "--out", tmp_path / "out")
    assert code == 2
    assert "labels" in capsys.readouterr().err
    assert counted_builds == []
    assert not (tmp_path / "out").exists()


def test_zero_restarts_exits_2(spec_file, tmp_path):
    assert run_cli("run", "--synthetic", spec_file,
                   "--out", tmp_path / "out", "--restarts", 0) == 2


def test_negative_seed_exits_2_before_any_work(spec_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--synthetic", spec_file, "--out", out, "--seed", -1) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("run", "--lambda1", "nan"), ("run", "--lambda1", "inf"),
    ("run", "--lambda2", "nan"), ("run", "--lambda2", "inf"),
    ("run", "--alpha", "nan"), ("run", "--alpha", "inf"),
    ("run", "--eps", "nan"), ("run", "--eps", "inf"),
    ("sweep", "--lambda1-grid", "0.5,nan"), ("sweep", "--lambda2-grid", "0,inf"),
])
def test_non_finite_hyperparameters_exit_2(command, flag, value, spec_file,
                                           tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(command, "--synthetic", spec_file, "--out", out,
                   "--restarts", 1, flag, value) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [("run", "--lambda1"),
                                           ("sweep", "--lambda1-grid")])
def test_non_finite_lambda_exits_2_before_the_dataset_loads(command, flag,
                                                           tmp_path, capsys):
    # a missing manifest exits 4 once the dataset loads; lambda1 goes first
    assert run_cli(command, "--manifest", tmp_path / "missing.json",
                   "--out", tmp_path / "out", flag, "nan") == 2
    assert "lambda1 must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "variant, scale",
    [("grmsc", 1e160), ("msc-naive", 1e160), ("grmsc", 1e20), ("msc-naive", 1e20)],
    ids=["grmsc", "msc-naive", "grmsc-1e20", "msc-naive-1e20"],
)
def test_overflowing_views_exit_3(variant, scale, tmp_path, capsys):
    # finite input whose Gram matrices (1e160) or ALM iterates (1e20)
    # overflow is a numerical failure, not a validation problem, and the
    # error is all the command prints
    spec = SyntheticSpec(n=150, clusters=3, dims=(20, 30, 40), subspace_rank=3,
                         noise_sigma=0.05, seed=7)
    ds = generate_synthetic(spec)
    ds.views = [scale * X for X in ds.views]
    manifest = write_dataset(ds, tmp_path / "data")
    code = run_cli("run", "--manifest", manifest, "--out", tmp_path / "out",
                   "--normalize", "none", "--restarts", 1, "--variant", variant)
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("mvsc: numerical failure")


def _run_scaled_views(tmp_path, variant, transform):
    ds = generate_synthetic(SyntheticSpec(n=60, clusters=3, dims=(20, 30, 40), seed=7))
    ds.views = [transform(k, X) for k, X in enumerate(ds.views)]
    manifest = write_dataset(ds, tmp_path / "data")
    return run_cli("run", "--manifest", manifest, "--out", tmp_path / "out",
                   "--normalize", "none", "--restarts", 1, "--variant", variant)


@pytest.mark.parametrize("variant", ["grmsc", "grmsc-naive"])
def test_underflowing_views_exit_3_naming_the_view(variant, tmp_path, capsys):
    # distinct samples whose squared distances all underflow to zero are
    # a numerical failure, not degenerate input
    code = _run_scaled_views(tmp_path, variant, lambda k, X: 1e-165 * X)
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "mvsc: numerical failure: view 0: pairwise distances underflow to zero; "
        "rescale the view or normalize it"
    ]


@pytest.mark.parametrize("variant", ["msc-naive", "lrr-bsv"])
def test_views_below_eps_exit_2_before_the_fit(variant, tmp_path, capsys):
    # every residual of Z = 0 would start below eps = 1e-6, and the
    # absolute stopping rule would mark the unfitted Z converged
    code = _run_scaled_views(tmp_path, variant, lambda k, X: 1e-8 * X)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("mvsc: validation error: the views' largest entry")
    assert err[0].endswith("is below eps = 1e-06, so the fit would stop before it "
                           "starts; normalize or rescale the views")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("variant", ["grmsc", "msc-naive", "lrr-bsv"])
def test_views_at_eps_scale_still_fit(variant, tmp_path):
    code = _run_scaled_views(tmp_path, variant, lambda k, X: 1e-6 * X)
    assert code == 0
    with open(tmp_path / "out" / "report.csv") as fh:
        row = next(csv.DictReader(fh))
    assert row["converged"] == "1" and int(row["iterations"]) > 1


@pytest.mark.parametrize("mode", ["unit_column", "zscore_feature"])
def test_views_scaled_by_powers_of_two_give_the_unscaled_bytes(mode, tmp_path, capsys):
    # scaling by 2^k is exact, so every k here must give the unscaled
    # views and bytes; at 2^515 the plain column norms and stds
    # overflow, at 2^1020 the row means too, at 2^-560 the norms
    # underflow, and at 2^-540 and 2^-530 the squares are subnormal
    base = generate_synthetic(SyntheticSpec(n=60, clusters=3, dims=(8, 10, 12),
                                            subspace_rank=2, seed=3))
    unscaled = normalize_views(base, mode).views
    written = {}
    for k in (None, -560, -540, -530, -480, 400, 500, 515, 1020):
        ds = dataclasses.replace(
            base, views=base.views if k is None else [X * 2.0 ** k for X in base.views])
        out = tmp_path / f"out{k}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            views = normalize_views(ds, mode).views
            code = run_cli("run", "--manifest", write_dataset(ds, tmp_path / f"data{k}"),
                           "--out", out, "--restarts", 2, "--normalize", mode)
        assert (k, code, caught) == (k, 0, [])
        assert all(np.array_equal(X, Y) for X, Y in zip(views, unscaled)), k
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err and "zero columns" not in err
        written[k] = [(out / f).read_bytes()
                      for f in ("report.csv", "summary.csv", "labels.csv")]
        assert written[k] == written[None], k


def test_overflowing_alpha_exits_3_naming_alpha(tmp_path, capsys):
    # alpha * the second-order graph overflows S0 in the graph build,
    # before lambda2 scales it
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": 60, "clusters": 3, "dims": [8, 10, 12],
                                "subspace_rank": 2, "noise_sigma": 0.05, "seed": 3}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("run", "--synthetic", path, "--out", tmp_path / "out",
                       "--restarts", 1, "--alpha", "1e308")
    assert code == 3
    assert caught == []
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert err.splitlines() == [
        "mvsc: numerical failure: view 0: the graph term S0 overflows "
        "(alpha = 1e+308); lower alpha"
    ]


@pytest.mark.parametrize("spec", [
    {"n": 12, "clusters": 3, "dims": [4, 5], "subspace_rank": 2, "noise_sigma": 0.05,
     "seed": 1},
    {"n": 150, "clusters": 3, "dims": [20, 30, 40], "subspace_rank": 3,
     "noise_sigma": 0.05, "seed": 7},
], ids=["n12", "reference"])
def test_overflowing_graph_term_exits_3_naming_it(spec, tmp_path, capsys):
    # lambda2 * S0 overflows; at n=12 eigh then raised LinAlgError, a
    # traceback and exit 1, where the reference spec exited 3
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = run_cli("run", "--synthetic", path, "--out", tmp_path / "out",
                   "--restarts", 1, "--lambda2", "1e308")
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "mvsc: numerical failure: the graph term lambda2 * S0 overflows "
        "(lambda2 = 1e+308); lower lambda2"
    ]


def test_identical_columns_exit_2(tmp_path, capsys):
    code = _run_scaled_views(
        tmp_path, "grmsc", lambda k, X: np.ones_like(X) if k == 1 else X
    )
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "mvsc: validation error: median pairwise distance is zero; "
        "kernel bandwidth undefined"
    ]


def test_overflow_in_split_products_exits_3_without_a_warning(tmp_path, capsys):
    # at n=400 the fit's products run in two parts on two threads; the
    # fit's errstate must hold in both, so the overflow shows only as the
    # error line
    spec = SyntheticSpec(n=400, clusters=3, dims=(20, 30, 40), subspace_rank=3,
                         noise_sigma=0.05, seed=7)
    ds = generate_synthetic(spec)
    ds.views = [1e20 * X for X in ds.views]
    manifest = write_dataset(ds, tmp_path / "data")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("run", "--manifest", manifest, "--out", tmp_path / "out",
                       "--normalize", "none", "--restarts", 1)
    assert code == 3
    assert caught == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("mvsc: numerical failure")


MANIFEST = {
    "name": "tiny", "clusters": 2,
    "views": [{"path": "view0.csv", "rows": 4}], "labels": "labels.csv",
}


@pytest.mark.parametrize(
    "source, change, message",
    [
        ("manifest", {"views": [{"rows": 4}]}, "view 0 needs a string 'path'"),
        ("manifest", {"clusters": "two"}, "'clusters' must be an integer"),
        ("manifest", {"clusters": 2.7}, "'clusters' must be an integer"),
        ("synthetic", {"dims": "ab"}, "dims must be a list of integers"),
        ("synthetic", {"n": 150.5}, "n must be an integer"),
        # numpy's generator would raise on it
        ("synthetic", {"seed": -1}, "seed must be nonnegative, got -1"),
    ],
    ids=["view-without-path", "clusters-string", "clusters-float",
         "dims-string", "n-float", "seed-negative"],
)
def test_malformed_input_exits_2(source, change, message, tmp_path, capsys):
    # malformed fields are validation errors at the boundary, not
    # tracebacks from deep inside the loader or the generator
    if source == "manifest":
        rng = np.random.default_rng(0)
        np.savetxt(tmp_path / "view0.csv", rng.standard_normal((4, 8)), delimiter=",")
        np.savetxt(tmp_path / "labels.csv", np.arange(8)[:, None] % 2, fmt="%d")
        doc = {**MANIFEST, **change}
    else:
        doc = {**TINY_SPEC, **change}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code = run_cli("run", "--" + source, path, "--out", tmp_path / "out",
                   "--restarts", 1)
    assert code == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith("mvsc: validation error: ")
    assert message in err


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
@pytest.mark.parametrize("name", ["view0.csv", "labels.csv"])
def test_matrix_file_without_data_exits_2(name, text, tmp_path, capsys):
    # numpy would warn on stderr and hand back a (0, 1) matrix, which
    # failed later on a shape check that did not name the file
    rng = np.random.default_rng(0)
    np.savetxt(tmp_path / "view0.csv", rng.standard_normal((4, 8)), delimiter=",")
    np.savetxt(tmp_path / "labels.csv", np.arange(8)[:, None] % 2, fmt="%d")
    (tmp_path / name).write_text(text)
    doc = {**MANIFEST, "views": [{"path": "view0.csv"}]}
    (tmp_path / "input.json").write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("run", "--manifest", tmp_path / "input.json",
                       "--out", tmp_path / "out", "--restarts", 1)
    assert code == 2
    assert caught == []
    assert capsys.readouterr().err == \
        f"mvsc: validation error: matrix file {tmp_path / name} is empty\n"


def test_failed_clustering_exits_3(spec_file, tmp_path, capsys, monkeypatch):
    # one failing k-means seed ends the run through the exit-code map,
    # as a failed fit or embedding does, and writes no partial report
    real_cluster = pipeline.cluster_embedding

    def seed_one_fails(U, n_clusters, seed):
        if seed == 1:
            raise NumericalError("k-means failed")
        return real_cluster(U, n_clusters, seed)

    monkeypatch.setattr(pipeline, "cluster_embedding", seed_one_fails)
    code = run_cli("run", "--synthetic", spec_file, "--out", tmp_path / "out",
                   "--restarts", 3)
    assert code == 3
    assert "numerical failure: k-means failed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------------- ablate


def test_ablate_four_variant_rows(spec_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli("ablate", "--synthetic", spec_file, "--out", out,
                   "--restarts", 2)
    assert code == 0
    rows = read_rows(out / "ablation.csv")
    assert [r["variant"] for r in rows] == [
        "LRR_BSV", "MSC_NAIVE", "GRMSC_NAIVE", "GRMSC",
    ]
    for label in ("LRR_BSV", "MSC_NAIVE", "GRMSC_NAIVE", "GRMSC"):
        per_variant = read_rows(out / f"report_{label}.csv")
        assert len(per_variant) == 2
        assert all(r["variant"] == label for r in per_variant)


def test_ablate_deterministic_across_invocations(spec_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("ablate", "--synthetic", spec_file, "--out", a, "--restarts", 2)
    run_cli("ablate", "--synthetic", spec_file, "--out", b, "--restarts", 2)
    assert (a / "report_LRR_BSV.csv").read_bytes() == \
        (b / "report_LRR_BSV.csv").read_bytes()
    assert (a / "ablation.csv").read_bytes() == (b / "ablation.csv").read_bytes()


# -------------------------------------------------------------------- sweep


def test_sweep_default_grid_has_49_rows(spec_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli("sweep", "--synthetic", spec_file, "--out", out,
                   "--restarts", 1)
    assert code == 0
    rows = read_rows(out / "sweep.csv")
    assert len(rows) == 49
    grid = {0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0}
    assert {float(r["lambda1"]) for r in rows} == grid
    assert {float(r["lambda2"]) for r in rows} == grid


def test_single_point_sweep_matches_run_summary(spec_file, tmp_path):
    out_run = tmp_path / "run"
    out_sweep = tmp_path / "sweep"
    run_cli("run", "--synthetic", spec_file, "--out", out_run,
            "--restarts", 3, "--lambda1", "0.5", "--lambda2", "1.0")
    run_cli("sweep", "--synthetic", spec_file, "--out", out_sweep,
            "--restarts", 3, "--lambda1-grid", "0.5", "--lambda2-grid", "1.0")
    summary = read_rows(out_run / "summary.csv")[0]
    point = read_rows(out_sweep / "sweep.csv")[0]
    for name in METRIC_FIELDS:
        assert point[name + "_mean"] == summary[name + "_mean"]
        assert point[name + "_std"] == summary[name + "_std"]


def test_sweep_from_zero_lambda2_regularizes_positive_points(
    spec_file, tmp_path, counted_builds
):
    # graphs are chosen by variant, so a grid that starts at lambda2 = 0
    # still builds the set (once, for the whole grid) that the
    # lambda2 > 0 points use
    assert run_cli("sweep", "--synthetic", spec_file, "--out", tmp_path / "out",
                   "--restarts", 2,
                   "--lambda1-grid", "0.5", "--lambda2-grid", "0,1") == 0
    assert counted_builds == ["fused"]


def test_sweep_rejects_malformed_grid(spec_file, tmp_path, capsys):
    with pytest.raises(SystemExit):
        run_cli("sweep", "--synthetic", spec_file, "--out", tmp_path / "out",
                "--lambda1-grid", "a,b")
    assert "comma-separated" in capsys.readouterr().err
