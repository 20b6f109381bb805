"""One BLAS thread for the whole test session, set before anything imports numpy.

OpenBLAS splits a matrix product across its threads in a way that can move
the last bit of a Fock-oracle P_n table, and ``tests/output_manifest.json``
pins those bytes as one thread makes them (``scripts/output_manifest.py``
sets the same variables).
"""

import os

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
