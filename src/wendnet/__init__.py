"""Compactly supported Wendland activation functions in a small deterministic
neural-network engine, with a benchmark CLI."""

import os

# A BLAS matmul sums in an order that depends on its thread count, so one
# thread per call keeps reruns byte-identical across hosts.  This holds only
# if NumPy loads after this line: a caller that imported it first keeps its
# own count.  The engine runs a large product or optimizer update as two
# fixed halves, on the caller's thread and one worker thread
# (`network._SPLIT`): always two whatever the core count, each one
# single-threaded call per replica, so the bits still do not depend on the
# host.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

__version__ = "0.1.0"
