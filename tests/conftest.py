"""Shared test settings.

BLAS runs on one thread, set here before numpy loads: a threaded BLAS
splits its products by the host's core count, and the golden digests
(``tests/test_golden.py``) pin bits that depend on that split.  One
thread is also the benchmark's setting.

Property tests run a fixed, small set of examples: derandomized so a run
cannot flake, and without a per-example deadline so a loaded machine does
not fail them on time alone.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

from hypothesis import settings  # noqa: E402

settings.register_profile("smalljump", derandomize=True, deadline=None,
                          max_examples=20)
settings.load_profile("smalljump")
