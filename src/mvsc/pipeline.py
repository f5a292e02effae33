"""Batch orchestration: multi-restart runs, ablations, and lambda sweeps.

A command chains pure stages: graphs once per (knn, alpha, variant),
one fit per (variant, lambda), one spectral embedding per fit, then one
k-means per restart. A configuration is a convex problem with one
solution, so a restart is only a k-means seed: restart r clusters the
shared embedding with seed base_seed + r. Every restart clusters the
same finite embedding, so a failure in one would be a failure in all;
any stage that fails raises, and the CLI maps the error to its exit
code. Rows are emitted in restart order, and no timestamps or
environment details leak into the artifacts, so re-running a command
overwrites its outputs byte-identically. Commands and run_restarts run
BLAS on one thread (blas.single_thread), so outputs do not depend on the
caller's thread environment either.
"""

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import graphs as _graphs
from .blas import single_thread
from .data import generate_synthetic, load_dataset, load_synthetic_spec, normalize_views
from .errors import ValidationError
from .metrics import METRIC_FIELDS, aggregate, evaluate, format_mean_std, nmi
from .solver import HyperParams, fit, variant_graphs, variant_label
from .spectral import affinity_from_representation, cluster_embedding, spectral_embedding

LAMBDA_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)

ABLATION_ORDER = ("lrr-bsv", "msc-naive", "grmsc-naive", "grmsc")


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
        if (self.manifest is None) == (self.synthetic is None):
            raise ValidationError(
                "exactly one of manifest and synthetic spec must be given"
            )


def resolve_dataset(config):
    if config.manifest is not None:
        ds = load_dataset(config.manifest)
    else:
        ds = generate_synthetic(load_synthetic_spec(config.synthetic))
    return normalize_views(ds, config.normalize)


@dataclass
class RestartResult:
    index: int
    seed: int
    report: object
    labels: np.ndarray
    state: object  # the fit clustered; converged and iteration live here
    view: int  # index of the fit kept: for lrr-bsv, the view


def _restart(dataset, fits, embeddings, index, seed):
    """Cluster every fit's embedding with one k-means seed, keep the best
    by NMI (ties go to the lowest index), and score it."""
    labels = [cluster_embedding(U, dataset.n_clusters, seed) for U in embeddings]
    best = 0
    if len(fits) > 1:
        best = max(range(len(fits)), key=lambda k: nmi(labels[k], dataset.labels))
    return RestartResult(
        index=index,
        seed=seed,
        report=evaluate(labels[best], dataset.labels),
        labels=labels[best],
        state=fits[best][1],
        view=best,
    )


@single_thread()
def run_restarts(dataset, params, restarts, graphs=None, trace=False, seed=0):
    """One fit of the configuration and its spectral embedding, then one
    seeded k-means per restart.

    lrr-bsv fits each view as its own one-view dataset and, per restart,
    keeps the view whose clustering scores the best NMI. Any failure, of
    a fit, an embedding or a clustering, raises.
    """
    if dataset.labels is None:
        raise ValidationError(
            "evaluation needs ground-truth labels; the manifest declares none"
        )
    if params.variant == "lrr-bsv":
        fits = [
            fit(replace(dataset, views=[X]), params, trace_objective=trace)
            for X in dataset.views
        ]
    else:
        fits = [fit(dataset, params, graphs=graphs, trace_objective=trace)]
    embeddings = [
        spectral_embedding(affinity_from_representation(Z), dataset.n_clusters)
        for Z, _ in fits
    ]
    return [_restart(dataset, fits, embeddings, r, seed + r) for r in range(restarts)]


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
    for name in METRIC_FIELDS:
        row[name + "_mean"] = _fmt(getattr(mean, name))
        row[name + "_std"] = _fmt(getattr(std, name))
    return row


def write_csv(path, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return path


def write_labels(path, labels):
    np.savetxt(path, np.asarray(labels, dtype=int)[:, None], fmt="%d")


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


def _maybe_dump_graphs(config, dataset, params, graphs):
    if not config.dump_graphs:
        return
    if graphs is None:
        # a graph-free variant; dump the set the full model would use
        graphs = variant_graphs(dataset, replace(params, variant="grmsc"))
    if config.dump_graphs is True:
        target = Path(config.out_dir) / "graphs"
    else:
        target = Path(config.dump_graphs)
    _graphs.dump_graphs(graphs, target)


@single_thread()
def cmd_run(config):
    """Multi-restart evaluation of one variant; writes report.csv,
    summary.csv, labels.csv, and optional graph dumps and traces."""
    dataset = resolve_dataset(config)
    params = config.params
    out = Path(config.out_dir)
    graphs = variant_graphs(dataset, params)
    results = run_restarts(
        dataset, params, config.restarts, graphs=graphs,
        trace=config.trace_residuals, seed=config.seed,
    )
    write_csv(out / "report.csv", report_rows(dataset, params, results))
    write_csv(out / "summary.csv", [summary_row(dataset, params, results)])
    write_labels(out / "labels.csv", results[0].labels)
    if config.trace_residuals:
        write_traces(out, results)
    _maybe_dump_graphs(config, dataset, params, graphs)
    return 0


@single_thread()
def cmd_ablate(config):
    """All four variants under identical restart seeds; one combined table.
    The graph variants share one build of the first-order graphs."""
    dataset = resolve_dataset(config)
    out = Path(config.out_dir)
    summary = []
    first_order = None
    for variant in ABLATION_ORDER:
        params = replace(config.params, variant=variant)
        graphs = variant_graphs(dataset, params, first_order=first_order)
        if graphs is not None:
            first_order = graphs.first_order
        results = run_restarts(
            dataset, params, config.restarts, graphs=graphs, seed=config.seed
        )
        write_csv(
            out / f"report_{variant_label(variant)}.csv",
            report_rows(dataset, params, results),
        )
        summary.append(summary_row(dataset, params, results))
    write_csv(out / "ablation.csv", summary)
    return 0


@single_thread()
def cmd_sweep(config, grid1=LAMBDA_GRID, grid2=LAMBDA_GRID):
    """Full pipeline per (lambda1, lambda2) grid point; one sweep.csv row
    each, suitable for a heatmap."""
    if not grid1 or not grid2:
        raise ValidationError("sweep grids must be non-empty")
    dataset = resolve_dataset(config)
    out = Path(config.out_dir)
    # graphs do not depend on the lambdas; build once for the whole grid
    graphs = variant_graphs(dataset, config.params)
    rows = []
    for l1 in grid1:
        for l2 in grid2:
            params = replace(config.params, lambda1=float(l1), lambda2=float(l2))
            results = run_restarts(
                dataset, params, config.restarts, graphs=graphs, seed=config.seed
            )
            mean, std, n_runs = summarize(results)
            row = {
                "lambda1": _fmt(l1),
                "lambda2": _fmt(l2),
                "n_runs": n_runs,
            }
            for name in METRIC_FIELDS:
                row[name + "_mean"] = _fmt(getattr(mean, name))
                row[name + "_std"] = _fmt(getattr(std, name))
            rows.append(row)
    write_csv(out / "sweep.csv", rows)
    return 0
