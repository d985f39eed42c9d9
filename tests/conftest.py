"""Session-scoped desk rig (``artbank.desk``) shared by module tests and the
acceptance suite."""

import pytest

from artbank import desk as desk_rig


@pytest.fixture(scope="session")
def desk() -> desk_rig.DeskRig:
    return desk_rig.build()
