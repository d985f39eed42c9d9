"""Session-scoped desk rig (``artbank.desk``) shared by module tests and the
acceptance suite."""

import os

# One OpenBLAS thread per process, read when numpy loads, so the convergence
# benchmark's rule gives it one worker per core. One and two threads give
# the same step time and the same artifact bytes on the 2-core host this was
# measured on; the suite pins it unless the environment already sets it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

from artbank import desk as desk_rig  # noqa: E402


@pytest.fixture(scope="session")
def desk() -> desk_rig.DeskRig:
    return desk_rig.build()
