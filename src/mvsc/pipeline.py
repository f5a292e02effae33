"""Batch orchestration: multi-restart runs, ablations, and lambda sweeps.

A command lists its configurations and chains pure stages: graphs once
per (knn, alpha, mode), one fit per (variant, lambda), one spectral
embedding per fit, then one k-means per restart. One function,
_graph_terms, runs the graph stage before the first fit, and nothing
else builds a graph set: it builds the sets a fit reads (an effective
lambda2 > 0) or a dump asks for, and hands each fit its set's
S0 = sum_k (L_k + L_k^T) alone. A
configuration is a convex problem with one solution, so a restart is
only a k-means seed: restart r clusters the shared embedding with seed
base_seed + r. Every restart clusters the same finite embedding, so a
failure in one would be a failure in all; any stage that fails raises,
and the CLI maps the error to its exit code. Rows are emitted in
restart order, and no timestamps or environment details leak into the
artifacts, so re-running a command overwrites its outputs
byte-identically. Commands and run_restarts run BLAS on one thread
(blas.single_thread), so outputs do not depend on the caller's thread
environment either. Inside that pin the fit's large products run in two
parts on two CPUs (linalg.matmul); the parts depend on the shapes alone,
so outputs do not depend on the CPU count.

The commands and run_restarts each chain the stages through one call of
_clustered. Every fit of that call, one per configuration or per view
for lrr-bsv, is an item of one in_order map. Below matmul's split size
it runs over two lanes, the caller and blas.pair's extra thread. Each
fit runs whole on one lane, so every output keeps its bits. The caller
then clusters, scores, logs and writes each configuration in turn, so
stdout, stderr and the files are those of the plain loop.
"""

import csv
import errno
import logging
import os
import threading
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import blas, linalg
from .blas import single_thread
from .data import (
    generate_synthetic, load_dataset, load_synthetic_spec, normalize_views, write_matrix,
)
from .errors import ValidationError
from .metrics import METRIC_FIELDS, aggregate, evaluate, format_mean_std, nmi
from .graphs import build_graph_set
from .solver import GRAPH_MODES, HyperParams, fit, variant_label
from .spectral import affinity_from_representation, cluster_embedding, spectral_embedding

LAMBDA_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)

ABLATION_ORDER = ("lrr-bsv", "msc-naive", "grmsc-naive", "grmsc")

logger = logging.getLogger(__name__)


class _Map:
    """One in_order map over two lanes: each lane takes the next index
    under the lock until none is left or an item has failed."""

    def __init__(self, fn, items):
        self.fn, self.items = fn, items
        self.results = [None] * len(items)
        self.errors = {}
        self.taken = 0
        self.lock = threading.Lock()
        self.started = threading.Event()

    def run(self):
        self.started.wait()  # see lane
        while True:
            with self.lock:
                if self.errors or self.taken == len(self.items):
                    return
                index = self.taken
                self.taken += 1
            try:
                self.results[index] = self.fn(self.items[index])
            except BaseException as err:  # raised by handed
                with self.lock:
                    self.errors[index] = err

    def handed(self):
        """The results before the lowest failed item, then its error."""
        last = min(self.errors, default=len(self.items))
        yield from self.results[:last]
        if self.errors:
            raise self.errors[last]


def lane(work):
    """The second lane of an in_order map: signals that it has started,
    then runs items until none is left. The caller's lane waits for the
    signal before it takes an item, so a tracer that parents a thread's
    first span on the caller's open span sees this one start inside
    in_order."""
    work.started.set()
    work.run()


def in_order(fn, items, n_samples):
    """An iterator over fn(x) for x in items, in item order, computed on
    two lanes when that helps.

    The lanes are the caller and blas.pair's extra thread, and each item
    runs wholly on one of them. They run two or more items whose fits
    are below matmul's split gate (n_samples**3 < linalg.SPLIT_MIN_MACS),
    which keeps two fits' n x n working sets from being live at once
    (larger fits would finish sooner on two lanes, with more memory).
    A map that cannot have the thread (see blas.pair), such as one on
    one CPU, runs its lane inline. Either way the map ends before
    in_order returns: after a failure no new item starts, and the
    iterator hands back the results before the lowest failed item, then
    raises its error. With fewer items or larger fits, the iterator runs
    each item when it is asked for, as a plain loop does.
    """
    items = list(items)
    if len(items) < 2 or n_samples ** 3 >= linalg.SPLIT_MIN_MACS:
        return map(fn, items)
    work = _Map(fn, items)
    blas.pair(work.run, partial(lane, work))
    return work.handed()


@dataclass
class RunConfig:
    """Everything one batch command needs."""

    params: HyperParams
    out_dir: Path
    manifest: Path | None = None
    synthetic: Path | None = None
    normalize: str = "unit_column"
    restarts: int = 30
    seed: int = 0  # k-means seed of restart 0; restart r uses seed + r
    # False = off, True = dump under out_dir/graphs, str/Path = dump there
    dump_graphs: object = False
    trace_residuals: bool = False

    def __post_init__(self):
        if self.restarts < 1:
            raise ValidationError(f"restarts must be at least 1, got {self.restarts}")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        if (self.manifest is None) == (self.synthetic is None):
            raise ValidationError(
                "exactly one of manifest and synthetic spec must be given"
            )


def resolve_dataset(config):
    """The command's normalized dataset; raises ValidationError when it
    has no labels to evaluate against, before any graph is built. Warns
    once, before any lane starts, when --knn is clamped to n - 1. Checks
    the output directories before anything loads (_require_directory)."""
    for path in (config.out_dir, _dump_dir(config)):
        if path is not None:
            _require_directory(path)
    if config.manifest is not None:
        ds = load_dataset(config.manifest)
    else:
        ds = generate_synthetic(load_synthetic_spec(config.synthetic))
    ds = normalize_views(ds, config.normalize)
    _require_labels(ds)
    knn, n = config.params.knn, ds.n_samples
    if knn is not None and knn >= n:
        logger.warning("knn = %d is not below n = %d; the graphs use knn = %d",
                       knn, n, config.params.resolve_knn(n, ds.n_clusters))
    return ds


def _dump_dir(config):
    """Where cmd_run dumps the graphs: out_dir/graphs for True, else the
    path given, or None."""
    if config.dump_graphs is True:
        return Path(config.out_dir) / "graphs"
    return config.dump_graphs or None


def _require_directory(path):
    """Raises the OSError that making directory path would raise where
    path, or its nearest existing ancestor, is not a directory. Creates
    nothing, so a failed command leaves no output directory."""
    path = Path(path)
    for ancestor in (path, *path.parents):
        if ancestor.exists():
            if not ancestor.is_dir():
                code = errno.EEXIST if ancestor == path else errno.ENOTDIR
                raise OSError(code, os.strerror(code), str(path))
            return


def _require_labels(dataset):
    if dataset.labels is None:
        raise ValidationError(
            "evaluation needs ground-truth labels; the manifest declares none"
        )


@dataclass
class RestartResult:
    index: int
    seed: int
    report: object
    labels: np.ndarray
    state: object  # the fit clustered, without its matrices (see fit_and_embed)
    view: int  # index of the fit kept: for lrr-bsv, the view


def fit_and_embed(dataset, params, laplacian_sum=None, trace=False):
    """(state, embedding) of one fit of dataset's views.

    laplacian_sum goes to the fit as it is (see solver.fit). The fit is
    embedded as soon as it returns; its state drops Z, Q, E, Y1 and Y2
    (nothing downstream reads them) and keeps its histories, converged
    and iteration, so of the fit's n x n arrays only Z stays live through
    the embedding. A failed fit or embedding raises. BLAS runs on the
    caller's threads: the commands and run_restarts call it pinned.
    """
    Z, state = fit(dataset, params, laplacian_sum=laplacian_sum, trace_objective=trace)
    state.Z = state.Q = state.E = state.Y1 = state.Y2 = None
    return state, spectral_embedding(affinity_from_representation(Z), dataset.n_clusters)


def _clustered(dataset, configs, restarts, seed, dump_dir=None, trace=False):
    """(params, restart results) of each HyperParams in configs, in turn.
    The graph stage (_graph_terms, which dump_dir goes to) runs first.
    Then every fit of every configuration (one over all views, or for
    lrr-bsv one per view) is an item of one in_order map, and the caller
    clusters a configuration's fits in its turn (_restarts), where the
    error of the lowest failed fit is raised."""
    terms = _graph_terms(dataset, configs, dump_dir)
    datasets = [[replace(dataset, views=[X]) for X in dataset.views]
                if params.variant == "lrr-bsv" else [dataset] for params in configs]
    items = [(data, params, S0) for params, S0, each in zip(configs, terms, datasets)
             for data in each]
    fits = in_order(lambda item: fit_and_embed(*item, trace), items, dataset.n_samples)
    for params, each in zip(configs, datasets):
        yield params, _restarts(dataset, [next(fits) for _ in each], restarts, seed)


def _restarts(dataset, fits, restarts, seed):
    """The clustering stage: restart r clusters every fit's embedding
    with k-means seed seed + r, keeps the best by NMI (ties go to the
    lowest index), and scores it. A failed clustering raises."""
    results = []
    for r in range(restarts):
        labels = [cluster_embedding(U, dataset.n_clusters, seed + r) for _, U in fits]
        best = 0
        if len(fits) > 1:
            best = max(range(len(fits)), key=lambda k: nmi(labels[k], dataset.labels))
        results.append(RestartResult(
            index=r,
            seed=seed + r,
            report=evaluate(labels[best], dataset.labels),
            labels=labels[best],
            state=fits[best][0],
            view=best,
        ))
    return results


@single_thread()
def run_restarts(dataset, params, restarts, seed=0):
    """One configuration through the commands' stages (_clustered): its
    graph set, its fit, then one seeded k-means per restart of each
    fit's embedding, where lrr-bsv keeps, per restart, the view whose
    clustering scores the best NMI. Any failure raises."""
    _require_labels(dataset)
    [(_, results)] = _clustered(dataset, [params], restarts, seed)
    return results


def summarize(results):
    """(mean, std, run count) over the restarts."""
    mean, std = aggregate([r.report for r in results])
    return mean, std, len(results)


def _fmt(x):
    return f"{x:.17g}"


def report_rows(dataset, params, results):
    knn = params.resolve_knn(dataset.n_samples, dataset.n_clusters)
    rows = []
    for r in results:
        row = {
            "dataset": dataset.name,
            "variant": variant_label(params.variant),
            "lambda1": _fmt(params.lambda1),
            "lambda2": _fmt(params.effective_lambda2),
            "alpha": _fmt(params.alpha),
            "knn": knn,
            "seed": r.seed,
            "restart": r.index,
        }
        for name in METRIC_FIELDS:
            row[name] = _fmt(getattr(r.report, name))
        row["converged"] = int(r.state.converged)
        row["iterations"] = r.state.iteration
        row["error"] = ""  # a restart cannot fail alone; the column keeps the format
        rows.append(row)
    return rows


def summary_row(dataset, params, results):
    """One summary line: display cells in the mean(std) table style plus
    full-precision mean/std columns so the stats can be re-derived from
    report.csv to working precision."""
    mean, std, n_runs = summarize(results)
    row = {
        "dataset": dataset.name,
        "variant": variant_label(params.variant),
        "n_runs": n_runs,
    }
    for name in METRIC_FIELDS:
        row[name] = format_mean_std(getattr(mean, name), getattr(std, name))
    row.update(_stat_cells(mean, std))
    return row


def _stat_cells(mean, std):
    """Full-precision mean and std columns, metric by metric."""
    return {
        f"{name}_{stat}": _fmt(getattr(values, name))
        for name in METRIC_FIELDS for stat, values in (("mean", mean), ("std", std))
    }


def write_csv(path, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return path


def write_labels(path, labels):
    write_matrix(path, np.asarray(labels, dtype=int)[:, None], fmt="%d")


def write_traces(out_dir, results):
    """Per-restart residual traces: iteration, per-view reconstruction
    residuals, the Z-Q residual, the objective, and mu (all inf-norms)."""
    for r in results:
        st = r.state
        n_views = len(st.view_residual_history[0]) if st.view_residual_history else 0
        rows = []
        for it in range(st.iteration):
            row = {"iteration": it + 1}
            for k in range(n_views):
                row[f"residual_view{k}"] = _fmt(st.view_residual_history[it][k])
            row["residual_zq"] = _fmt(st.residual_history[it][1])
            if st.objective_history:
                row["objective"] = _fmt(st.objective_history[it])
            row["mu"] = _fmt(st.mu_history[it])
            rows.append(row)
        if rows:
            write_csv(Path(out_dir) / f"residuals_restart{r.index}.csv", rows)


def _graph_terms(dataset, configs, dump_dir=None):
    """The S0 of each of configs (HyperParams sharing knn and alpha), in
    order: that of its variant's build_graph_set mode, or None where no
    fit among configs reads that set. A graph variant's fit reads it at
    an effective lambda2 > 0; a graph-free variant has none. A set
    depends on (views, knn, alpha, mode), not on lambda2, and the sets
    share one build of the first-order graphs. dump_dir receives the
    CSVs of configs[0]'s set (grmsc's for a graph-free variant), built
    for the dump alone if no fit reads it.
    """
    read = [GRAPH_MODES[p.variant] for p in configs if p.effective_lambda2 > 0]
    dump_mode = None if dump_dir is None else GRAPH_MODES.get(configs[0].variant, "fused")
    knn = configs[0].resolve_knn(dataset.n_samples, dataset.n_clusters)
    terms, first = {}, None
    for mode in dict.fromkeys([*read, dump_mode] if dump_mode else read):
        graphs = build_graph_set(dataset.views, knn, configs[0].alpha, mode=mode,
                                 first_order=first,
                                 dump_dir=dump_dir if mode == dump_mode else None)
        first = graphs.first_order
        if mode in read:
            terms[mode] = graphs.laplacian_sum
    return [terms.get(GRAPH_MODES.get(p.variant)) for p in configs]


@single_thread()
def cmd_run(config):
    """Multi-restart evaluation of one variant; writes report.csv,
    summary.csv, labels.csv, and optional graph dumps and traces. The
    graphs are dumped before the fit."""
    dataset = resolve_dataset(config)
    out = Path(config.out_dir)
    [(params, results)] = _clustered(dataset, [config.params], config.restarts,
                                     config.seed, _dump_dir(config), config.trace_residuals)
    write_csv(out / "report.csv", report_rows(dataset, params, results))
    write_csv(out / "summary.csv", [summary_row(dataset, params, results)])
    write_labels(out / "labels.csv", results[0].labels)
    if config.trace_residuals:
        write_traces(out, results)
    return 0


@single_thread()
def cmd_ablate(config):
    """All four variants under identical restart seeds; one combined table.
    Both graph sets are built, sharing their first-order graphs, before
    the first fit. A variant's report is written once it is clustered,
    so a failure leaves the reports of the variants before it."""
    dataset = resolve_dataset(config)
    out = Path(config.out_dir)
    configs = [replace(config.params, variant=v) for v in ABLATION_ORDER]
    summaries = []
    for params, results in _clustered(dataset, configs, config.restarts, config.seed):
        write_csv(out / f"report_{variant_label(params.variant)}.csv",
                  report_rows(dataset, params, results))
        summaries.append(summary_row(dataset, params, results))
    write_csv(out / "ablation.csv", summaries)
    return 0


@single_thread()
def cmd_sweep(config, grid1=LAMBDA_GRID, grid2=LAMBDA_GRID):
    """Full pipeline per (lambda1, lambda2) grid point; one sweep.csv row
    each, suitable for a heatmap. One graph build serves the grid."""
    if not grid1 or not grid2:
        raise ValidationError("sweep grids must be non-empty")
    configs = [
        replace(config.params, lambda1=float(l1), lambda2=float(l2))
        for l1 in grid1 for l2 in grid2
    ]
    dataset = resolve_dataset(config)
    rows = []
    for params, results in _clustered(dataset, configs, config.restarts, config.seed):
        mean, std, n_runs = summarize(results)
        rows.append({"lambda1": _fmt(params.lambda1), "lambda2": _fmt(params.lambda2),
                     "n_runs": n_runs, **_stat_cells(mean, std)})
    write_csv(Path(config.out_dir) / "sweep.csv", rows)
    return 0
