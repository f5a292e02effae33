"""Correctness checks on mvsc command outputs, independent of mvsc.metrics.

Pure Python: NMI is recomputed from contingency counts and ACC by brute
force over every cluster-to-class mapping, both from labels.csv against
the planted labels the generator wrote, and must match what the program
reported; summary statistics are re-derived from the per-restart report.
Each check returns a list of problems (empty when the output is correct).

    python check.py --self-test OUT_DIR PLANTED_LABELS_CSV

re-checks an `mvsc run` output directory, then shows that the checker
accepts a copy of its labels.csv with the cluster names renamed and
rejects one whose rows are shuffled across samples.
"""

import csv
import itertools
import math
import random
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

METRIC_FIELDS = ("nmi", "acc", "f_score", "avgent", "precision", "rand_index")
ORDERING_MARGIN = 0.02  # acceptance criterion c06: GRMSC over MSC_NAIVE
STAT_TOL = 1e-10
ABLATION_LABELS = ("LRR_BSV", "MSC_NAIVE", "GRMSC_NAIVE", "GRMSC")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_labels(path):
    with open(path) as fh:
        return [int(float(line)) for line in fh if line.strip()]


def _entropy(counts, n):
    return -sum(c / n * math.log(c / n) for c in counts if c)


def nmi(pred, truth):
    """Mutual information over the geometric mean of the two entropies;
    1 for identical partitions and 0 otherwise when an entropy is zero."""
    n = len(truth)
    joint = Counter(zip(pred, truth))
    rows, cols = Counter(pred), Counter(truth)
    h_pred, h_true = _entropy(rows.values(), n), _entropy(cols.values(), n)
    if h_pred == 0.0 or h_true == 0.0:
        return 1.0 if len(joint) == len(rows) == len(cols) else 0.0
    info = sum(
        c / n * math.log(c * n / (rows[p] * cols[t])) for (p, t), c in joint.items()
    )
    return min(max(info / math.sqrt(h_pred * h_true), 0.0), 1.0)


def accuracy(pred, truth):
    """Best agreement over every one-to-one map from clusters to classes."""
    clusters, classes = sorted(set(pred)), sorted(set(truth))
    slots = classes + [None] * (len(clusters) - len(classes))
    joint = Counter(zip(pred, truth))
    best = max(
        sum(joint[(c, t)] for c, t in zip(clusters, perm))
        for perm in itertools.permutations(slots, len(clusters))
    )
    return best / len(truth)


def check_report(rows, restarts, what):
    """Every restart present, converged, and without an error."""
    problems = []
    if len(rows) != restarts:
        problems.append(f"{what}: {len(rows)} restart rows, expected {restarts}")
    for row in rows:
        if row["error"]:
            problems.append(f"{what}: restart {row['restart']} failed: {row['error']}")
        elif row["converged"] != "1":
            problems.append(f"{what}: restart {row['restart']} did not converge")
    return problems


def check_summary(rows, summary, what):
    """Re-derive n_runs and every *_mean / population *_std from the report."""
    ok = [row for row in rows if not row["error"]]
    problems = []
    if int(summary["n_runs"]) != len(ok):
        problems.append(f"{what}: n_runs {summary['n_runs']}, report has {len(ok)}")
    if not ok:
        return problems
    for name in METRIC_FIELDS:
        values = [float(row[name]) for row in ok]
        mean = sum(values) / len(values)
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
        for stat, expected in (("mean", mean), ("std", std)):
            got = float(summary[f"{name}_{stat}"])
            if abs(got - expected) > STAT_TOL:
                problems.append(
                    f"{what}: {name}_{stat} is {got!r}, report gives {expected!r}"
                )
    return problems


def check_run(out_dir, truth, restarts):
    """Checks on an `mvsc run` output directory. Returns (problems, summary row)."""
    out = Path(out_dir)
    rows = read_csv(out / "report.csv")
    (summary,) = read_csv(out / "summary.csv")
    problems = check_report(rows, restarts, "report.csv")
    problems += check_summary(rows, summary, "summary.csv")
    pred = read_labels(out / "labels.csv")
    if len(pred) != len(truth):
        problems.append(f"labels.csv has {len(pred)} rows, the dataset {len(truth)} samples")
    elif rows and not rows[0]["error"]:
        # labels.csv holds restart 0: the scores the program reported for
        # it must be the ones its labels earn against the planted labels
        for name, value in (("nmi", nmi(pred, truth)), ("acc", accuracy(pred, truth))):
            if abs(float(rows[0][name]) - value) > STAT_TOL:
                problems.append(
                    f"report.csv restart 0 {name} {rows[0][name]} != recomputed {value!r}"
                )
    return problems, summary


def check_ablate(out_dir, restarts):
    """Checks on an `mvsc ablate` output directory. Returns (problems, rows by variant)."""
    out = Path(out_dir)
    table = {row["variant"]: row for row in read_csv(out / "ablation.csv")}
    problems = []
    if sorted(table) != sorted(ABLATION_LABELS):
        return [f"ablation.csv has variants {sorted(table)}"], table
    for label in ABLATION_LABELS:
        what = f"report_{label}.csv"
        rows = read_csv(out / what)
        problems += check_report(rows, restarts, what)
        problems += check_summary(rows, table[label], what)
    grmsc = float(table["GRMSC"]["nmi_mean"])
    graph_free = float(table["MSC_NAIVE"]["nmi_mean"])
    if grmsc < graph_free + ORDERING_MARGIN:
        problems.append(
            f"GRMSC NMI {grmsc:.4f} is not {ORDERING_MARGIN} above MSC_NAIVE {graph_free:.4f}"
        )
    return problems, table


def self_test(out_dir, truth, restarts):
    """The checker accepts `out_dir`, a copy with the cluster names of
    labels.csv renamed and the rows kept, and rejects a copy whose labels
    are shuffled across samples or whose summary is off by 1e-6."""
    out = Path(out_dir)
    pred = read_labels(out / "labels.csv")
    names = sorted(set(pred))
    rename = dict(zip(names, names[1:] + names[:1]))
    shuffled = list(pred)
    random.Random(0).shuffle(shuffled)
    (summary,) = read_csv(out / "summary.csv")
    tampered = dict(summary, nmi_mean=repr(float(summary["nmi_mean"]) + 1e-6))
    cases = [
        ("as written", pred, summary, True),
        ("renamed clusters", [rename[p] for p in pred], summary, True),
        ("shuffled rows", shuffled, summary, False),
        ("summary off by 1e-6", pred, tampered, False),
    ]
    failures = []
    with tempfile.TemporaryDirectory(dir=out.parent) as tmp:
        shutil.copy(out / "report.csv", tmp)
        for name, labels, summary_row, accept in cases:
            Path(tmp, "labels.csv").write_text("".join(f"{p}\n" for p in labels))
            with open(Path(tmp, "summary.csv"), "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(summary_row))
                writer.writeheader()
                writer.writerow(summary_row)
            problems, _ = check_run(tmp, truth, restarts)
            if (not problems) != accept:
                verdict = "rejected" if problems else "accepted"
                failures.append(f"self-test: {name} was {verdict}: {problems}")
    return failures


def main(argv):
    if len(argv) != 3 or argv[0] != "--self-test":
        print(__doc__, file=sys.stderr)
        return 2
    out_dir, truth = argv[1], read_labels(argv[2])
    restarts = len(read_csv(Path(out_dir) / "report.csv"))
    failures = self_test(out_dir, truth, restarts)
    print("\n".join(failures) if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
