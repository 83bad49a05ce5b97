"""Exact Burnside-module and section-limit computations for small odd
p-groups, with batch verification campaigns over a group catalog.

The package imports nothing on its own: import the modules you use
(`bfk.groups`, `bfk.limits`, `bfk.campaigns`, ...), so that `bfk catalog`
never loads numpy and `bfk limit` never loads the campaign engines.
"""

import os

# BLAS runs only on small exact products (the float64 tier of
# zlinalg._exact_matmul), where a threaded OpenBLAS costs more than it
# saves; this must run before numpy is first imported.  A value already
# in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
