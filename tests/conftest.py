"""Test-session setup: one BLAS thread, set before any test module loads numpy.

``mplab.cli.main`` pins BLAS to one thread before numpy loads, but a test
process has numpy loaded long before a test calls ``main`` or
``run_experiment``.  Pinning here gives the in-process runs the BLAS thread
count of the command line, so their trial pool does not oversubscribe cores.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
