"""Batch orchestration: multi-restart runs, ablations, and lambda sweeps.

A command lists its configurations and chains pure stages: graphs once
per (knn, alpha, mode), one fit per (variant, lambda), one spectral
embedding per fit, then one k-means per restart. One function,
_graph_terms, runs the graph stage before the first fit: it builds the
sets a fit reads (an effective lambda2 > 0) or a dump asks for, and
hands each fit its set's S0 = sum_k (L_k + L_k^T) alone. A
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

Below that size, where one fit's products stay whole, in_order maps
ablate's variants, sweep's grid points and lrr-bsv's views over two
lanes, the caller and blas.pair's extra thread. Each item runs whole on
one lane, so every output keeps its bits; results come back in item
order, the error of the lowest failed item is raised, and the log
records of each item are emitted after the map in item order, so
stdout, stderr and the files are those of the plain loop.
"""

import contextvars
import csv
import logging
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
from .solver import GRAPH_MODES, HyperParams, fit, variant_graphs, variant_label
from .spectral import affinity_from_representation, cluster_embedding, spectral_embedding

LAMBDA_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)

ABLATION_ORDER = ("lrr-bsv", "msc-naive", "grmsc-naive", "grmsc")

# the log records of the in_order item this context runs on a lane
_held = contextvars.ContextVar("held", default=None)


def _hold(record):
    """Logger filter: a record logged inside a lane's item waits in the
    item's list, for in_order to emit after the map."""
    held = _held.get()
    if held is None:
        return True
    held.append(record)
    return False


for _name in ("data", "linalg", "spectral"):  # the package's loggers
    logging.getLogger(f"{__package__}.{_name}").addFilter(_hold)


class _Map:
    """One in_order map over two lanes: each lane takes the next index
    under the lock until none is left or an item has failed, and runs
    the item in a copy of the lane's context with its own record list."""

    def __init__(self, fn, items):
        self.fn, self.items = fn, items
        self.results = [None] * len(items)
        self.records = [[] for _ in items]
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
            contextvars.copy_context().run(self._item, index)

    def _item(self, index):
        _held.set(self.records[index])
        try:
            self.results[index] = self.fn(self.items[index])
        except BaseException as err:  # re-raised by in_order
            with self.lock:
                self.errors[index] = err


def lane(work):
    """The second lane of an in_order map: signals that it has started,
    then runs items until none is left. The caller's lane waits for the
    signal before it takes an item, so a tracer that parents a thread's
    first span on the caller's open span sees this one start inside
    in_order."""
    work.started.set()
    work.run()


def in_order(fn, items, n_samples):
    """[fn(x) for x in items], computed on two lanes when that helps.

    The lanes are the caller and blas.pair's extra thread, and each item
    runs wholly on one of them. They run two or more items whose fits
    are below matmul's split gate (n_samples**3 < linalg.SPLIT_MIN_MACS):
    larger fits split their own products over both CPUs, and two of
    their n x n working sets would be live at once. Otherwise the items
    run in turn, as they do in a map that cannot have the thread (see
    blas.pair), such as one inside a lane, whose lane runs inline.

    After a failure no new item starts; once both lanes have ended, the
    error of the lowest failed item is raised. The records an item logs
    through the package's loggers are held and emitted after the map in
    item order, up to that failed item, as the plain loop would have
    logged them.
    """
    items = list(items)
    if len(items) < 2 or n_samples ** 3 >= linalg.SPLIT_MIN_MACS:
        return [fn(x) for x in items]
    work = _Map(fn, items)
    blas.pair(work.run, partial(lane, work))
    last = min(work.errors, default=len(items) - 1)
    for records in work.records[:last + 1]:
        for record in records:
            logging.getLogger(record.name).handle(record)
    if work.errors:
        raise work.errors[last]
    return work.results


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
    has no labels to evaluate against, before any graph is built."""
    if config.manifest is not None:
        ds = load_dataset(config.manifest)
    else:
        ds = generate_synthetic(load_synthetic_spec(config.synthetic))
    ds = normalize_views(ds, config.normalize)
    _require_labels(ds)
    return ds


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
    state: object  # the fit clustered, less Q and Y2; converged and iteration live here
    view: int  # index of the fit kept: for lrr-bsv, the view


def _restart(dataset, states, embeddings, index, seed):
    """Cluster every fit's embedding with one k-means seed, keep the best
    by NMI (ties go to the lowest index), and score it."""
    labels = [cluster_embedding(U, dataset.n_clusters, seed) for U in embeddings]
    best = 0
    if len(states) > 1:
        best = max(range(len(states)), key=lambda k: nmi(labels[k], dataset.labels))
    return RestartResult(
        index=index,
        seed=seed,
        report=evaluate(labels[best], dataset.labels),
        labels=labels[best],
        state=states[best],
        view=best,
    )


@single_thread()
def run_restarts(dataset, params, restarts, laplacian_sum=None, trace=False,
                 seed=0):
    """One fit of the configuration and its spectral embedding, then one
    seeded k-means per restart.

    laplacian_sum goes to the fit as it is (see solver.fit).
    lrr-bsv fits each view as its own one-view dataset and, per restart,
    keeps the view whose clustering scores the best NMI. Each fit is
    embedded as soon as it returns, after its state drops Q and Y2
    (nothing downstream reads them), so of the fit's n x n arrays only
    Z stays live through the embedding. lrr-bsv's views are fitted and
    embedded through in_order. Any failure, of a fit, an embedding or a
    clustering, raises.
    """
    _require_labels(dataset)
    if params.variant == "lrr-bsv":
        datasets = [replace(dataset, views=[X]) for X in dataset.views]
    else:
        datasets = [dataset]

    def fit_and_embed(data):
        Z, state = fit(data, params, laplacian_sum=laplacian_sum, trace_objective=trace)
        state.Q = state.Y2 = None
        return state, spectral_embedding(
            affinity_from_representation(Z), dataset.n_clusters
        )

    states, embeddings = zip(*in_order(fit_and_embed, datasets, dataset.n_samples))
    return [_restart(dataset, states, embeddings, r, seed + r) for r in range(restarts)]


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
    """{mode: S0} for each build_graph_set mode that a fit among configs
    (HyperParams sharing knn and alpha) reads: a graph variant's at an
    effective lambda2 > 0. The sets share one build of the first-order
    graphs. dump_dir receives the CSVs of configs[0]'s set (grmsc's for
    a graph-free variant), built for the dump alone if no fit reads it.
    """
    builds = {GRAPH_MODES[p.variant]: p for p in configs if p.effective_lambda2 > 0}
    read, dump_mode = set(builds), None
    if dump_dir is not None:
        dump = configs[0]
        if dump.variant not in GRAPH_MODES:
            dump = replace(dump, variant="grmsc")
        dump_mode = GRAPH_MODES[dump.variant]
        builds.setdefault(dump_mode, dump)
    terms, first = {}, None
    for mode, params in builds.items():
        graphs = variant_graphs(dataset, params, first_order=first,
                                dump_dir=dump_dir if mode == dump_mode else None)
        first = graphs.first_order
        if mode in read:
            terms[mode] = graphs.laplacian_sum
    return terms


@single_thread()
def cmd_run(config):
    """Multi-restart evaluation of one variant; writes report.csv,
    summary.csv, labels.csv, and optional graph dumps and traces. The
    graphs are dumped before the fit."""
    dataset = resolve_dataset(config)
    params = config.params
    out = Path(config.out_dir)
    dump = out / "graphs" if config.dump_graphs is True else config.dump_graphs
    terms = _graph_terms(dataset, [params], dump_dir=dump or None)
    results = run_restarts(
        dataset, params, config.restarts,
        laplacian_sum=terms.get(GRAPH_MODES.get(params.variant)),
        trace=config.trace_residuals, seed=config.seed,
    )
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
    the first fit. The variants run through in_order; when one fails,
    the reports of the variants before it are written, as a loop that
    wrote each report after its fit would have left them."""
    dataset = resolve_dataset(config)
    out = Path(config.out_dir)
    configs = [replace(config.params, variant=v) for v in ABLATION_ORDER]
    terms = _graph_terms(dataset, configs)
    rows = {}

    def fit_variant(params):
        results = run_restarts(
            dataset, params, config.restarts,
            laplacian_sum=terms.get(GRAPH_MODES.get(params.variant)), seed=config.seed,
        )
        rows[params.variant] = (report_rows(dataset, params, results),
                                summary_row(dataset, params, results))

    try:
        in_order(fit_variant, configs, dataset.n_samples)
    finally:
        for params in configs:
            if params.variant not in rows:
                break
            write_csv(out / f"report_{variant_label(params.variant)}.csv",
                      rows[params.variant][0])
    write_csv(out / "ablation.csv", [rows[p.variant][1] for p in configs])
    return 0


@single_thread()
def cmd_sweep(config, grid1=LAMBDA_GRID, grid2=LAMBDA_GRID):
    """Full pipeline per (lambda1, lambda2) grid point, through in_order;
    one sweep.csv row each, suitable for a heatmap. One graph build
    serves the grid."""
    if not grid1 or not grid2:
        raise ValidationError("sweep grids must be non-empty")
    dataset = resolve_dataset(config)
    out = Path(config.out_dir)
    configs = [
        replace(config.params, lambda1=float(l1), lambda2=float(l2))
        for l1 in grid1 for l2 in grid2
    ]
    terms = _graph_terms(dataset, configs)

    def grid_point(params):
        mean, std, n_runs = summarize(run_restarts(
            dataset, params, config.restarts,
            laplacian_sum=terms.get(GRAPH_MODES.get(params.variant)), seed=config.seed,
        ))
        return {"lambda1": _fmt(params.lambda1), "lambda2": _fmt(params.lambda2),
                "n_runs": n_runs, **_stat_cells(mean, std)}

    write_csv(out / "sweep.csv", in_order(grid_point, configs, dataset.n_samples))
    return 0
