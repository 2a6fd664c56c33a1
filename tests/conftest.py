"""Suite-wide checks: no test may leave a child process behind."""

import pytest

from helpers import child_process_left


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    left = child_process_left()
    if left is not None:
        pytest.fail(left)
