"""Graph-regularized multi-view subspace clustering.

Learns one low-rank self-representation shared by all views of a
dataset, guided by first- and second-order proximity graphs, then
clusters it spectrally and scores the result against ground truth.

The API is the submodules: data, graphs, solver, spectral, metrics and
pipeline, with the command line in mvsc.cli. Importing the package loads
all of them but cli, which `python -m mvsc.cli` runs as __main__.
blas comes first, since it loads numpy (see its docstring).
"""

from . import blas  # noqa: F401  (before any module that imports numpy)
from . import data, graphs, metrics, pipeline, solver, spectral  # noqa: F401

__version__ = "0.1.0"
