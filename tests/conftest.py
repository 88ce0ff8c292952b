"""Import msml before any test module imports numpy, so that the suite runs
under the package's thread policy: OpenBLAS pinned to one thread unless
OPENBLAS_NUM_THREADS is set."""

import msml  # noqa: F401
