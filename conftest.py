"""Pin NumPy's BLAS to one thread for every test run from this checkout.

The suite's timings and its bitwise claims (the blocked forward, the
benchmark digests) are stated for one BLAS thread, and an unpinned BLAS
slows a step about threefold when another process holds a core.  This
runs before any test module imports NumPy; a value already set in the
environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
