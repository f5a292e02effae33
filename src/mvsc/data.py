"""Multi-view dataset loading, validation, normalization, and synthesis.

On-disk layout: a JSON manifest {"name", "clusters", "views": [{"path",
"rows"}, ...], "labels"} with view paths relative to the manifest's
directory. Each view is a CSV matrix, one row per feature, one column
per sample, no header; labels are a single-column integer CSV aligned to
sample order.

The synthetic generator plants a union-of-subspaces structure with a
controllable split between latent coordinates shared across views and
view-specific ones, so both the agreement structure multi-view methods
exploit and the complementary per-view information are really present.
"""

import json
import logging
import numbers
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataIOError, ValidationError

logger = logging.getLogger(__name__)

NORMALIZE_MODES = ("none", "unit_column", "zscore_feature")


def _integer(value, what):
    """value as an int, or a ValidationError naming it; floats, strings
    and booleans are rejected rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass
class MultiViewDataset:
    """Views are d_k x n matrices over the same n samples (columns)."""

    views: list
    n_clusters: int
    labels: np.ndarray | None = None
    name: str = "dataset"

    @property
    def n_views(self):
        return len(self.views)

    @property
    def n_samples(self):
        return self.views[0].shape[1]

    def validate(self):
        if not self.views:
            raise ValidationError("dataset needs at least one view")
        if self.n_clusters < 2:
            raise ValidationError(
                f"cluster count must be at least 2, got {self.n_clusters}"
            )
        for k, X in enumerate(self.views):
            if X.ndim != 2:
                raise ValidationError(f"view {k} is not a matrix (ndim={X.ndim})")
        n = self.views[0].shape[1]
        bad = [
            f"view {k} has {X.shape[1]} samples (expected {n})"
            for k, X in enumerate(self.views)
            if X.shape[1] != n
        ]
        if bad:
            raise ValidationError("inconsistent sample counts: " + "; ".join(bad))
        for k, X in enumerate(self.views):
            if not np.all(np.isfinite(X)):
                r, c = np.argwhere(~np.isfinite(X))[0]
                raise ValidationError(
                    f"view {k} has a non-finite entry at row {r}, column {c}"
                )
        if self.labels is not None:
            labels = np.asarray(self.labels).ravel()
            if labels.shape[0] != n:
                raise ValidationError(
                    f"labels length {labels.shape[0]} does not match n={n}"
                )
            # return_inverse keeps np.unique off its numpy.ma import
            distinct = len(np.unique(labels, return_inverse=True)[0])
            if distinct != self.n_clusters:
                raise ValidationError(
                    f"labels have {distinct} distinct values but clusters={self.n_clusters}"
                )
        return self


def _load_matrix(path):
    try:
        with warnings.catch_warnings():
            # a file with no data warns; it is rejected below instead
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            M = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except OSError as exc:
        raise DataIOError(f"cannot read matrix file {path}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"malformed matrix file {path}: {exc}") from exc
    if M.size == 0:
        raise ValidationError(f"matrix file {path} is empty")
    return M


def load_dataset(manifest_path):
    """Read a manifest and its referenced matrices into a validated dataset."""
    manifest_path = Path(manifest_path)
    try:
        text = manifest_path.read_text()
    except OSError as exc:
        raise DataIOError(f"cannot read manifest {manifest_path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"manifest {manifest_path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ValidationError(f"manifest {manifest_path} is not a JSON object")
    for key in ("name", "clusters", "views"):
        if key not in doc:
            raise ValidationError(f"manifest missing required key {key!r}")
    clusters = _integer(doc["clusters"], "manifest 'clusters'")
    if not isinstance(doc["views"], list):
        raise ValidationError("manifest 'views' must be a list")
    base = manifest_path.parent
    views = []
    for k, entry in enumerate(doc["views"]):
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
            raise ValidationError(f"manifest view {k} needs a string 'path'")
        path = base / entry["path"]
        X = _load_matrix(path)
        rows = _integer(entry.get("rows", X.shape[0]), f"manifest view {k} 'rows'")
        if X.shape[0] != rows:
            raise ValidationError(
                f"view {k} ({path}) has {X.shape[0]} rows, manifest says {rows}"
            )
        views.append(X)
    labels = None
    if doc.get("labels"):
        if not isinstance(doc["labels"], str):
            raise ValidationError("manifest 'labels' must be a path or null")
        raw = _load_matrix(base / doc["labels"]).ravel()
        if not np.all(raw == np.round(raw)):
            raise ValidationError(f"labels file {doc['labels']} has non-integer values")
        labels = raw.astype(int)
    return MultiViewDataset(
        views=views,
        n_clusters=clusters,
        labels=labels,
        name=str(doc["name"]),
    ).validate()


def write_matrix(path, A, fmt="%.18e"):
    """Write a 2-D array as comma-separated text, byte for byte what
    np.savetxt(path, A, fmt=fmt, delimiter=",") writes, with one
    % per block of rows over a repeated row template instead of one per
    row."""
    A = np.asarray(A)
    # about 4096 values per block: enough to leave the per-row loop
    # behind, few enough that a block's text and Python floats stay a
    # small fraction of an n x n array
    rows = max(1, 4096 // max(A.shape[1], 1))
    line = ",".join([fmt] * A.shape[1]) + "\n"
    with open(path, "w") as fh:
        for i in range(0, A.shape[0], rows):
            block = A[i:i + rows]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def write_dataset(ds, out_dir):
    """Dump a dataset in manifest form; returns the manifest path.

    Matrices are written with 17 significant digits so a reload
    reproduces every float64 exactly.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for k, X in enumerate(ds.views):
        rel = f"view{k}.csv"
        write_matrix(out_dir / rel, X, fmt="%.17g")
        entries.append({"path": rel, "rows": int(X.shape[0])})
    labels_rel = None
    if ds.labels is not None:
        labels_rel = "labels.csv"
        write_matrix(out_dir / labels_rel, ds.labels[:, None], fmt="%d")
    manifest = {
        "name": ds.name,
        "clusters": int(ds.n_clusters),
        "views": entries,
        "labels": labels_rel,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _binary_scaled(X, axis):
    """X with each column (axis 0) or row (axis 1) whose largest |entry|
    lies outside [2^-501, 2^500), where its squares and sums can over- or
    underflow, scaled exactly by the power of two that brings it into
    [0.5, 1), so that it normalizes to the unscaled line's bits; a new
    array, or X itself when no line is scaled."""
    exponent = np.frexp(np.abs(X).max(axis=axis))[1]
    shift = np.where(np.abs(exponent) > 500, -exponent, 0)
    if not shift.any():
        return X
    return np.ldexp(X, np.expand_dims(shift, axis))


def normalize_views(ds, mode):
    """Return a dataset with per-view normalization applied.

    unit_column scales every sample column to unit Euclidean norm (zero
    columns pass through with a warning); zscore_feature centers each
    feature row and divides by its standard deviation (constant rows are
    only centered), each line first scaled by _binary_scaled.
    """
    if mode not in NORMALIZE_MODES:
        raise ValidationError(f"unknown normalize mode {mode!r}; one of {NORMALIZE_MODES}")
    if mode == "none":
        return ds
    views = []
    for k, X in enumerate(ds.views):
        if mode == "unit_column":
            X = _binary_scaled(X, 0)
            norms = np.linalg.norm(X, axis=0)
            zero = norms == 0
            if zero.any():
                logger.warning(
                    "view %d: %d zero columns left unnormalized", k, int(zero.sum())
                )
            X = X / np.where(zero, 1.0, norms)[None, :]
        else:  # zscore_feature
            X = _binary_scaled(X, 1)
            X = X - X.mean(axis=1, keepdims=True)
            sd = X.std(axis=1)
            X = X / np.where(sd > 0, sd, 1.0)[:, None]
        views.append(X)
    return replace(ds, views=views)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the planted multi-view subspace model."""

    n: int
    clusters: int
    dims: tuple
    subspace_rank: int = 3
    noise_sigma: float = 0.05
    consensus_fraction: float = 1.0
    seed: int = 0
    name: str = "synthetic"

    def __post_init__(self):
        for key in ("n", "clusters", "subspace_rank", "seed"):
            _integer(getattr(self, key), key)
        if isinstance(self.dims, str) or not hasattr(self.dims, "__iter__"):
            raise ValidationError(f"dims must be a list of integers, got {self.dims!r}")
        object.__setattr__(
            self, "dims", tuple(_integer(d, "every view dimension") for d in self.dims)
        )
        if self.clusters < 2:
            raise ValidationError(f"clusters must be at least 2, got {self.clusters}")
        if self.subspace_rank < 1:
            raise ValidationError(
                f"subspace_rank must be at least 1, got {self.subspace_rank}"
            )
        if self.n < self.clusters * self.subspace_rank:
            raise ValidationError(
                f"n={self.n} is below clusters*subspace_rank="
                f"{self.clusters * self.subspace_rank}"
            )
        if not self.dims:
            raise ValidationError("need at least one view dimension")
        if min(self.dims) < self.subspace_rank:
            raise ValidationError(
                f"every view dimension must be >= subspace_rank={self.subspace_rank}, "
                f"got {self.dims}"
            )
        if not 0.0 <= self.consensus_fraction <= 1.0:
            raise ValidationError(
                f"consensus_fraction must lie in [0, 1], got {self.consensus_fraction}"
            )
        if self.noise_sigma < 0:
            raise ValidationError(
                f"noise_sigma must be nonnegative, got {self.noise_sigma}"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")


def load_synthetic_spec(path):
    """Read a SyntheticSpec from a small JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataIOError(f"cannot read synthetic spec {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"synthetic spec {path} is not valid JSON: {exc}")
    try:
        return SyntheticSpec(**doc)
    except TypeError as exc:
        raise ValidationError(f"synthetic spec {path}: {exc}")


def _orthonormal_columns(rng, rows, cols):
    M = rng.standard_normal((rows, cols))
    Q, _ = np.linalg.qr(M)
    return Q[:, :cols]


def generate_synthetic(spec):
    """Sample a multi-view dataset with planted subspace clusters.

    Latent space has dimension clusters * subspace_rank. Each cluster
    gets an orthonormal latent basis; each sample draws one coefficient
    vector shared by all views and one per view. Coefficients are
    half-normal (|N(0,1)|), placing every cluster inside a cone of its
    subspace so that within-cluster similarities stay positive and the
    structure is recoverable by kernel methods too, not only by
    self-representation. A coordinate split at
    round(consensus_fraction * latent_dim) decides which latent
    coordinates come from the shared draw (agreeing across views) and
    which from the view-specific draw. Each view then applies its own
    linear map to its dimension and adds Gaussian noise. Cluster sizes
    are balanced within one sample. Deterministic given spec.seed.
    """
    rng = np.random.default_rng(spec.seed)
    c, r, n = spec.clusters, spec.subspace_rank, spec.n
    latent_dim = c * r
    split = int(round(spec.consensus_fraction * latent_dim))

    bases = [_orthonormal_columns(rng, latent_dim, r) for _ in range(c)]

    sizes = [n // c + (1 if t < n % c else 0) for t in range(c)]
    labels = np.concatenate([np.full(s, t, dtype=int) for t, s in enumerate(sizes)])
    cluster_of = labels

    shared = np.empty((latent_dim, n))
    for i in range(n):
        shared[:, i] = bases[cluster_of[i]] @ np.abs(rng.standard_normal(r))

    views = []
    for d in spec.dims:
        specific = np.empty((latent_dim, n))
        for i in range(n):
            specific[:, i] = bases[cluster_of[i]] @ np.abs(rng.standard_normal(r))
        latent = np.vstack([shared[:split], specific[split:]])
        if d >= latent_dim:
            A = _orthonormal_columns(rng, d, latent_dim)
        else:
            A = rng.standard_normal((d, latent_dim)) / np.sqrt(latent_dim)
        X = A @ latent
        if spec.noise_sigma > 0:
            X = X + spec.noise_sigma * rng.standard_normal(X.shape)
        views.append(X)

    return MultiViewDataset(
        views=views, n_clusters=c, labels=labels, name=spec.name
    ).validate()
