"""Multi-label softmax loss, two-stream bilinear models, synthetic data, and
the AUC evaluation suite, built on explicitly differentiated numpy kernels.

Every name is imported from its module (``msml.model``, ``msml.train``,
``msml.dataset``, ...). Importing the package itself only defines
``__version__`` and pins OpenBLAS to one thread unless OPENBLAS_NUM_THREADS
is already set; parallelism comes from ``model``'s worker pool instead. The
pin only takes effect if numpy has not been imported yet.
"""

import os as _os

_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
