"""Desk-scale Chinese medical dialogue toolkit.

Subpackages cover the full pipeline: corpus handling, a character tokenizer,
a transformer encoder with masked-token pretraining, supervised and
prompt-based triage classifiers, a knowledge-graph-supplemented consultation
generator, and a generation-metric suite, all on a small autodiff core.
"""

import os

__version__ = "0.1.0"

# One BLAS thread unless the user chose a count: at these sizes a second thread
# only spins, and it reorders sums, so checkpoints would depend on the core
# count. BLAS reads these when numpy loads, so this runs before any submodule.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(name in os.environ for name in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
