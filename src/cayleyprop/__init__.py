"""Cayley graph computational templates and bottleneck diagnostics."""

__version__ = "0.1.0"

# The environment variables that set the BLAS thread count. Outputs are
# byte-for-byte reproducible only on one BLAS thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
