#!/usr/bin/env python3
"""Compare what two checkouts of mvsc write, byte for byte.

Runs one command set in each checkout, `python -m mvsc.cli` with that
checkout's src/ on PYTHONPATH, on the same synthetic specs and one
manifest, and one of that checkout's scripts. Each command runs in a
fresh directory of its own, once with one CPU and once with two (by
affinity mask). Prints every output file, stdout, stderr or exit code
that differs between the checkouts and exits 1 if any does, else 0.

    python3 scripts/compare_trees.py PARENT CHANGE [--work DIR] [--only NAME ...]

The command set:
  ref-<variant>      run --restarts 10 --trace-residuals --dump-graphs on
                     the reference spec, for each of the four variants
  ablate-ref         ablate --restarts 2 on the reference spec, whose
                     msc-naive fit, on a lane, retries one SVD on the
                     transpose (as ref-msc-naive does outside the lanes)
  ablate-fails       ablate --restarts 2 --lambda2 1e308 on the reference
                     spec, whose grmsc-naive fit fails on a lane (its
                     graph term overflows): exit 3, with the reports of
                     lrr-bsv and msc-naive and no ablation.csv
  ablate-consensus   ablate --restarts 2 --knn 30 --lambda2 10 on the
                     benchmark's ablate-consensus dataset (seed 1)
  ablate-n600        ablate --restarts 1 at n=600, whose variants run in
                     turn while their products split
  run-n300           run --restarts 3 --trace-residuals at n=300
  run-n400           run --restarts 1 --trace-residuals at n=400, where
                     4 (sum d + 10) = n: the smallest fit whose SVT
                     sketches, each from a start narrower than the hint
  run-n600           run --restarts 1 --trace-residuals at n=600
  run-n1200          run --restarts 1 --trace-residuals at n=1200
  run-n1200-msc-naive
                     run --restarts 1 --variant msc-naive at n=1200, whose
                     embedding has the smallest spectral gap (0.023) of
                     the n=1200 fits surveyed, so the Krylov solver works
                     hardest there
  run-n1200-grmsc-naive
                     run --restarts 1 --variant grmsc-naive at n=1200,
                     whose SVT sketches fail the certificate from
                     iteration 20 and end in the full SVD
  sweep              sweep --restarts 1 on the default grid
  sweep-lrr-bsv      sweep --variant lrr-bsv --restarts 1 on a 2 x 1 grid
                     of the reference spec, whose two grid points' six
                     view fits share one map: each point must get back
                     its own three views
  ablate-wide        ablate --restarts 2 at n=150 on two views of 1000
                     and 1200 rows (sum d >> n), whose variants run on
                     two lanes; per-entry noise 0.02, so that the
                     variants' NMI ranges from 0.68 to 1
  run-wide-n520      run --restarts 1 --trace-residuals at n=520, four
                     clusters, on views of 1200 and 1400 rows with
                     per-entry noise 0.045 (NMI 0.98)
  run-manifest       run --restarts 10 --manifest on the reference spec,
                     written once as a manifest by the parent's
                     data.write_dataset: the input path of the benchmark's
                     workloads, through load_dataset's np.loadtxt
  ablation-script    scripts/run_ablation.py --seeds 2, the only entry
                     that reaches pipeline.run_configurations, with
                     three variants in one call; its --out is relative,
                     so the paths it prints match
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REFERENCE = {"n": 150, "clusters": 3, "dims": [20, 30, 40], "subspace_rank": 3,
             "noise_sigma": 0.05, "seed": 7}
VARIANTS = ("grmsc", "grmsc-naive", "msc-naive", "lrr-bsv")

SPECS = {
    "reference": REFERENCE,
    "ablate-consensus": dict(REFERENCE, noise_sigma=0.15, consensus_fraction=0.6, seed=1),
    "n300": dict(REFERENCE, n=300),
    "n400": dict(REFERENCE, n=400),
    "n600": dict(REFERENCE, n=600),
    "n1200": dict(REFERENCE, n=1200),
    # wide views: the per-entry noise adds up over d rows, so it is
    # smaller than the reference's 0.05
    "wide-n150": dict(REFERENCE, dims=[1000, 1200], noise_sigma=0.02),
    "wide-n520": dict(REFERENCE, n=520, clusters=4, dims=[1200, 1400], noise_sigma=0.045),
}

# name -> (input, mvsc arguments after the input and --out), where the
# input is a SPECS name or "manifest" (write_manifest's), or for a script
# (None, its path in the checkout and its arguments before --out)
COMMANDS = {
    **{f"ref-{v}": ("reference", ["run", "--restarts", "10", "--trace-residuals",
                                  "--dump-graphs", "--variant", v]) for v in VARIANTS},
    "ablate-ref": ("reference", ["ablate", "--restarts", "2"]),
    "ablate-fails": ("reference", ["ablate", "--restarts", "2", "--lambda2", "1e308"]),
    "ablate-consensus": ("ablate-consensus",
                         ["ablate", "--restarts", "2", "--knn", "30", "--lambda2", "10"]),
    "ablate-n600": ("n600", ["ablate", "--restarts", "1"]),
    "run-n300": ("n300", ["run", "--restarts", "3", "--trace-residuals"]),
    "run-n400": ("n400", ["run", "--restarts", "1", "--trace-residuals"]),
    "run-n600": ("n600", ["run", "--restarts", "1", "--trace-residuals"]),
    "run-n1200": ("n1200", ["run", "--restarts", "1", "--trace-residuals"]),
    "run-n1200-msc-naive": ("n1200", ["run", "--restarts", "1", "--variant", "msc-naive"]),
    "run-n1200-grmsc-naive": ("n1200",
                              ["run", "--restarts", "1", "--variant", "grmsc-naive"]),
    "sweep": ("reference", ["sweep", "--restarts", "1"]),
    "sweep-lrr-bsv": ("reference", ["sweep", "--variant", "lrr-bsv", "--restarts", "1",
                                    "--lambda1-grid", "0.1,1", "--lambda2-grid", "1"]),
    "ablate-wide": ("wide-n150", ["ablate", "--restarts", "2"]),
    "run-wide-n520": ("wide-n520", ["run", "--restarts", "1", "--trace-residuals"]),
    "run-manifest": ("manifest", ["run", "--restarts", "10"]),
    "ablation-script": (None, ["scripts/run_ablation.py", "--seeds", "2"]),
}

WRITE_MANIFEST = """
import sys
from mvsc.data import generate_synthetic, load_synthetic_spec, write_dataset
write_dataset(generate_synthetic(load_synthetic_spec(sys.argv[1])), sys.argv[2])
"""


def write_manifest(tree, spec_path, out_dir):
    """Write the dataset of the synthetic spec at spec_path as a manifest
    in out_dir with tree's data.write_dataset; returns the manifest's
    path."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    subprocess.run([sys.executable, "-c", WRITE_MANIFEST, str(spec_path), str(out_dir)],
                   env=env, check=True)
    return out_dir / "manifest.json"


def run_command(tree, source, argv, cwd, cpus):
    """Run one mvsc command on source, a (flag, path) such as
    ("--synthetic", spec), or with source None one script, from tree in
    the empty directory cwd on the given CPUs; the path is given
    relative to cwd, and the output goes to cwd/out. Returns (exit
    code, stdout, stderr)."""
    cwd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    command, *rest = argv
    if source is None:
        args = [sys.executable, str(Path(tree).resolve() / command), *rest, "--out", "out"]
    else:
        flag, path = source
        args = [sys.executable, "-m", "mvsc.cli", command,
                flag, os.path.relpath(path, cwd), "--out", "out", *rest]
    proc = subprocess.run(args, cwd=cwd, env=env, capture_output=True,
                          preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    return proc.returncode, proc.stdout, proc.stderr


def files_under(root):
    """Relative path -> bytes of every file under root."""
    root = Path(root)
    if not root.is_dir():
        return {}
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def differences(a, b):
    """What differs between two (code, stdout, stderr, files) results."""
    found = []
    if a[0] != b[0]:
        found.append(f"exit code: {a[0]} != {b[0]}")
    found += [what for what, x, y in (("stdout", a[1], b[1]), ("stderr", a[2], b[2]))
              if x != y]
    fa, fb = a[3], b[3]
    for name in sorted(fa.keys() | fb.keys()):
        if name not in fa or name not in fb:
            found.append(f"{name}: only in {'change' if name in fb else 'parent'}")
        elif fa[name] != fb[name]:
            found.append(f"{name}: contents differ")
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--work", type=Path, default=None,
                        help="new directory for specs and outputs, kept (default: a "
                             "temporary one, removed at the end)")
    parser.add_argument("--only", nargs="+", choices=sorted(COMMANDS), default=None,
                        help="run only these commands")
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (Path(tree) / "src" / "mvsc").is_dir():
            parser.error(f"{tree} has no src/mvsc")
    if args.work is not None and args.work.exists():
        parser.error(f"{args.work} exists; --work takes a new directory")

    work = args.work or Path(tempfile.mkdtemp(prefix="compare-trees-"))
    specs = work / "specs"
    specs.mkdir(parents=True)
    sources = {}
    for name, spec in SPECS.items():
        (specs / f"{name}.json").write_text(json.dumps(dict(spec, name=name)))
        sources[name] = ("--synthetic", specs / f"{name}.json")
    sources["manifest"] = ("--manifest", write_manifest(
        args.parent, specs / "reference.json", work / "manifest"))

    available = sorted(os.sched_getaffinity(0))
    cpu_sets = [set(available[:k]) for k in (1, 2) if len(available) >= k]
    names = list(dict.fromkeys(args.only or COMMANDS))
    differing = 0
    for cpus in cpu_sets:
        for name in names:
            source, argv_ = COMMANDS[name]
            results = []
            for label, tree in (("parent", args.parent), ("change", args.change)):
                cwd = work / f"{len(cpus)}cpu" / label / name
                code, out, err = run_command(tree, sources.get(source), argv_, cwd, cpus)
                results.append((code, out, err, files_under(cwd / "out")))
            found = differences(*results)
            status = "DIFFERS" if found else "same"
            print(f"{len(cpus)} cpu  {name}: {status} (exit {results[0][0]}, "
                  f"{len(results[0][3])} files)", flush=True)
            for line in found:
                print(f"    {line}", flush=True)
            differing += bool(found)
    if args.work is None:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{differing} command(s) differ" if differing else "all outputs identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
