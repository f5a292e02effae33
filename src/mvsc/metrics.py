"""Clustering quality measures: NMI, ACC, F-score, AVGent, Precision, RI.

All comparisons are invariant to label renaming. ACC aligns predicted
clusters to classes with an optimal one-to-one assignment; the pairwise
family (F-score, precision, recall, Rand index) counts sample pairs via
contingency-table combinatorics; AVGent is the size-weighted entropy of
the class mixture inside each predicted cluster (bits) — the one measure
where lower is better.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

NMI_NORMALIZATIONS = ("geometric", "arithmetic", "max")

# canonical column order for reports
METRIC_FIELDS = ("nmi", "acc", "f_score", "avgent", "precision", "rand_index")


def _check_labels(pred, truth):
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.size == 0:
        raise ValidationError("label vectors must be non-empty")
    if pred.shape != truth.shape:
        raise ValidationError(
            f"label length mismatch: {pred.shape[0]} vs {truth.shape[0]}"
        )
    return pred, truth


def contingency_table(pred, truth):
    """Co-occurrence counts, shape (clusters in pred, classes in truth)."""
    pred, truth = _check_labels(pred, truth)
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    counts = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(counts, (pi, ti), 1)
    return counts


def _min_cost_assignment(cost):
    """Column assigned to each row in a minimum-cost perfect matching of a
    square cost matrix: the Hungarian method as shortest augmenting paths
    with row and column potentials (Kuhn 1955; Jonker & Volgenant 1987).
    Integer-valued costs stay exact in float64 up to 2**53."""
    m = cost.shape[0]
    # 1-based rows and columns; column 0 is the virtual start of each path
    a = np.zeros((m + 1, m + 1))
    a[1:, 1:] = cost
    u = np.zeros(m + 1)
    v = np.zeros(m + 1)
    row_of = np.zeros(m + 1, dtype=np.intp)  # row on each column, 0 = free
    way = np.zeros(m + 1, dtype=np.intp)  # previous column on the path
    for i in range(1, m + 1):
        row_of[0] = i
        j0 = 0
        dist = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while row_of[j0] != 0:
            used[j0] = True
            i0 = row_of[j0]
            free = ~used
            reduced = a[i0] - u[i0] - v
            closer = free & (reduced < dist)
            dist[closer] = reduced[closer]
            way[closer] = j0
            j1 = np.flatnonzero(free)[np.argmin(dist[free])]
            delta = dist[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            dist[free] -= delta
            j0 = j1
        while j0:  # augment along the path back to the start
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    col_of = np.empty(m, dtype=np.intp)
    col_of[row_of[1:] - 1] = np.arange(m)
    return col_of


def accuracy(pred, truth):
    """Best achievable agreement under one-to-one cluster-class matching."""
    counts = contingency_table(pred, truth)
    m = max(counts.shape)
    padded = np.zeros((m, m), dtype=np.int64)
    padded[: counts.shape[0], : counts.shape[1]] = counts
    c = _min_cost_assignment(-padded.astype(float))
    return float(padded[np.arange(m), c].sum() / counts.sum())


def _entropy(p):
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def nmi(pred, truth, normalization="geometric"):
    """Normalized mutual information.

    If either labeling has a single label, its entropy is zero and the
    usual ratio is undefined; by convention the value is 1 when the two
    label vectors induce the same partition (both have a single label)
    and 0 otherwise. That case is read from the contingency table's
    shape, not from float entropies, whose rounding depends on the label
    names.
    """
    if normalization not in NMI_NORMALIZATIONS:
        raise ValidationError(
            f"unknown normalization {normalization!r}; one of {NMI_NORMALIZATIONS}"
        )
    counts = contingency_table(pred, truth)
    if 1 in counts.shape:
        return 1.0 if counts.shape == (1, 1) else 0.0
    n = counts.sum()
    pij = counts / n
    pi = pij.sum(axis=1)
    pj = pij.sum(axis=0)
    h_pred = _entropy(pi)
    h_true = _entropy(pj)
    mask = pij > 0
    outer = pi[:, None] * pj[None, :]
    info = float((pij[mask] * np.log(pij[mask] / outer[mask])).sum())
    if normalization == "geometric":
        denom = math.sqrt(h_pred * h_true)
    elif normalization == "arithmetic":
        denom = (h_pred + h_true) / 2.0
    else:
        denom = max(h_pred, h_true)
    return float(min(max(info / denom, 0.0), 1.0))


def pairwise_scores(pred, truth):
    """(f_score, precision, recall, rand_index) over all sample pairs.

    TP counts pairs co-clustered in both labelings, FP in pred only, FN
    in truth only. Empty denominators give precision/recall 1 (no pairs
    claimed means no wrong pairs); f_score is 0 when both are 0.
    """
    counts = contingency_table(pred, truth)
    n = int(counts.sum())
    if n < 2:
        raise ValidationError("pairwise scores need at least 2 samples")

    def pairs(x):
        x = x.astype(np.int64)
        return int((x * (x - 1) // 2).sum())

    tp = pairs(counts)
    same_pred = pairs(counts.sum(axis=1))
    same_true = pairs(counts.sum(axis=0))
    total = n * (n - 1) // 2
    fp = same_pred - tp
    fn = same_true - tp
    tn = total - tp - fp - fn
    precision = tp / (tp + fp) if tp + fp > 0 else 1.0
    recall = tp / (tp + fn) if tp + fn > 0 else 1.0
    f_score = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    rand_index = (tp + tn) / total
    return float(f_score), float(precision), float(recall), float(rand_index)


def avgent(pred, truth):
    """Average entropy (base 2) of the class mixture per predicted cluster,
    weighted by cluster size. Zero iff every cluster is class-pure."""
    counts = contingency_table(pred, truth)
    n = counts.sum()
    total = 0.0
    for row in counts:
        nj = row.sum()
        if nj == 0:
            continue
        p = row[row > 0] / nj
        total += (nj / n) * float(-(p * np.log2(p)).sum())
    return float(total)


@dataclass(frozen=True)
class EvaluationReport:
    """The six measures for one clustering run."""

    nmi: float
    acc: float
    f_score: float
    avgent: float
    precision: float
    rand_index: float


def evaluate(pred, truth):
    """All six measures at once."""
    f_score, precision, _, rand_index = pairwise_scores(pred, truth)
    return EvaluationReport(
        nmi=nmi(pred, truth),
        acc=accuracy(pred, truth),
        f_score=f_score,
        avgent=avgent(pred, truth),
        precision=precision,
        rand_index=rand_index,
    )


def aggregate(reports):
    """Per-metric mean and population standard deviation over runs."""
    if not reports:
        raise ValidationError("cannot aggregate zero reports")
    means, stds = {}, {}
    for name in METRIC_FIELDS:
        vals = np.array([getattr(r, name) for r in reports], dtype=float)
        means[name] = float(vals.mean())
        stds[name] = float(vals.std())
    return EvaluationReport(**means), EvaluationReport(**stds)


def format_mean_std(mean, std):
    """Render one cell in the benchmark-table style, e.g. '0.9547(0.0034)'."""
    return f"{mean:.4f}({std:.4f})"
